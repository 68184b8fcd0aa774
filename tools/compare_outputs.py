"""Check that two source trees produce byte-identical run outputs.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC OUT_DIR

PARENT_SRC and CHANGE_SRC are directories holding the ``bridgerec`` package
(a checkout's ``src/``). Each tree runs the same fixed matrix of seeded
configs through ``python -m bridgerec.cli run`` (with ``save_checkpoints``)
and then ``export``, with BLAS pinned to one thread, writing into
OUT_DIR/parent/<config> and OUT_DIR/change/<config>. Two configs read rating
logs (csv + csv and csv + json-lines) that the script writes once into
OUT_DIR/logs from a fixed world, and each tree also runs ``prepare`` on them
into OUT_DIR/<side>/prepare. On the csv + json-lines logs each tree also runs
one ``suite`` sweep (tgt, cmf, emcdr and ptupcdr over two betas and two
seeds, with ``--export-attention``) serially into OUT_DIR/<side>/suite-serial
and with ``--parallel 2`` into OUT_DIR/<side>/suite-parallel. The script
prints every file that differs or exists on one side only, and the largest
difference of any report metric.
A differing ``report.json`` is printed with the largest difference of its
metrics, and a differing checkpoint ``.bin`` whose two manifests list the
same shapes with the largest absolute difference of its float64 values. It
exits 1 on any difference or failed command, else 0. Passing the same tree
twice checks that two processes give byte-identical outputs.
"""

from __future__ import annotations

import csv
import filecmp
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

TASK = {"kind": "synthetic", "n_users_src": 200, "n_users_tgt": 200, "n_overlap": 140,
        "n_items_src": 80, "n_items_tgt": 80, "k_true": 4, "ratings_per_user": 12}
BASE = {"task": TASK, "k": 4, "beta": 0.2, "seed": 3, "save_checkpoints": True,
        "pretrain": {"lr": 0.01, "epochs": 20},
        "bridge": {"lr": 0.01, "epochs": 10},
        "finetune": {"lr": 0.01, "epochs": 20}}
BRIDGE_NET_METHODS = ("ptupcdr", "ptupcdr_mapping_ablation")


def write_logs(log_dir: Path) -> None:
    """One fixed two-domain world: books.csv, and its target domain as movies.csv and .jsonl."""
    rng = random.Random(11)
    users = {f"u{i:03d}": [rng.uniform(0.3, 1.0) for _ in range(3)] for i in range(150)}
    names = list(users)
    log_dir.mkdir(parents=True)
    for domain, members in (("books", names[:120]), ("movies", names[30:])):
        items = {f"{domain[0]}{j:03d}": [rng.uniform(0.3, 1.0) for _ in range(3)]
                 for j in range(60)}
        rows = []
        for n, user in enumerate(members):
            for t, item in enumerate(rng.sample(sorted(items), 10)):
                dot = sum(a * b for a, b in zip(users[user], items[item]))
                rows.append((user, item, min(max(dot + rng.gauss(0.0, 0.1), 0.0), 5.0),
                             n * 100 + t))
        with open(log_dir / f"{domain}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["user", "item", "rating", "timestamp"])
            writer.writerows((u, i, repr(r), t) for u, i, r, t in rows)
        if domain == "movies":
            with open(log_dir / "movies.jsonl", "w") as f:
                f.writelines(json.dumps({"reviewerID": u, "asin": i, "overall": r,
                                         "unixReviewTime": t}) + "\n" for u, i, r, t in rows)


def matrix(log_dir: Path) -> dict[str, dict]:
    configs = {}
    for method in ("tgt", "cmf", "emcdr", *BRIDGE_NET_METHODS):
        configs[f"{method}-mf"] = {"method": method, "base_model": "mf"}
    for method in ("tgt", "emcdr", "ptupcdr"):
        for base_model in ("gmf", "two_tower"):
            configs[f"{method}-{base_model}"] = {"method": method, "base_model": base_model}
    configs["ptupcdr-finetune_items"] = {"method": "ptupcdr", "finetune_items": True}
    configs["ptupcdr-seq3-tanh"] = {"method": "ptupcdr", "max_seq_len": 3, "activation": "tanh"}
    configs["ptupcdr-two_tower-tanh"] = {"method": "ptupcdr", "base_model": "two_tower",
                                         "activation": "tanh"}
    for method, tgt_log in (("ptupcdr", "movies.csv"), ("cmf", "movies.jsonl")):
        task = {"kind": "amazon", "src_path": str(log_dir / "books.csv"),
                "tgt_path": str(log_dir / tgt_log)}
        configs[f"{method}-files-{tgt_log.split('.')[1]}"] = {"method": method, "task": task}
    return {name: {**BASE, **overrides} for name, overrides in configs.items()}


def suite_config(log_dir: Path) -> dict:
    base = {k: v for k, v in BASE.items() if k != "save_checkpoints"}
    task = {"kind": "amazon", "src_path": str(log_dir / "books.csv"),
            "tgt_path": str(log_dir / "movies.jsonl")}
    return {"base": {**base, "task": task, "method": "tgt"},
            "methods": ["tgt", "cmf", "emcdr", "ptupcdr"], "betas": [0.2, 0.4], "seeds": [3, 4]}


def run_tree(src: Path, out: Path, log_dir: Path) -> list[str]:
    """Run every config, a prepare and the suite sweep against one source tree;
    returns the failed commands."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    jobs = []
    for name, cfg in matrix(log_dir).items():
        run_dir = out / name
        run_dir.mkdir(parents=True)
        cfg_path = run_dir.parent / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))
        what = "both" if cfg["method"] in BRIDGE_NET_METHODS else "embeddings"
        jobs += [(["run", str(cfg_path)], run_dir),
                 (["export", str(cfg_path), "--what", what], run_dir)]
    jobs.append((["prepare", str(log_dir / "books.csv"), str(log_dir / "movies.jsonl"),
                  "--beta", "0.3", "--seed", "3"], out / "prepare"))
    suite_path = out / "suite-config.json"
    suite_path.write_text(json.dumps(suite_config(log_dir), indent=2))
    for name, flags in (("suite-serial", []), ("suite-parallel", ["--parallel", "2"])):
        jobs.append((["suite", str(suite_path), "--export-attention", *flags], out / name))
    failed = []
    for args, run_dir in jobs:
        cmd = [sys.executable, "-m", "bridgerec.cli", *args, "--out-dir", str(run_dir)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(f"{src}: {' '.join(args)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
    return failed


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def max_metric_diff(a: Path, b: Path) -> float:
    rows_a, rows_b = json.loads(a.read_text()), json.loads(b.read_text())
    if len(rows_a) != len(rows_b):
        return float("inf")
    return max((abs(ra[m] - rb[m]) for ra, rb in zip(rows_a, rows_b)
                for m in ("mae", "rmse")), default=0.0)


def max_tensor_diff(a: Path, b: Path) -> float | None:
    """Largest absolute difference of two checkpoint blobs; None when their
    manifests list different shapes."""
    shapes = [[e["shape"] for e in json.loads(p.with_suffix(".json").read_text())["tensors"]]
              for p in (a, b)]
    if shapes[0] != shapes[1]:
        return None
    va, vb = (np.frombuffer(p.read_bytes(), dtype="<f8") for p in (a, b))
    return float(np.max(np.abs(va - vb), initial=0.0))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_src, change_src, out_dir = (Path(a) for a in argv)
    sides = {"parent": (parent_src, out_dir / "parent"), "change": (change_src, out_dir / "change")}
    log_dir = out_dir / "logs"
    for src, out in sides.values():
        if not (src / "bridgerec").is_dir():
            print(f"error: no bridgerec package under {src}", file=sys.stderr)
            return 2
    for path in (*(out for _, out in sides.values()), log_dir):
        if path.exists():
            print(f"error: {path} exists; pass an empty OUT_DIR", file=sys.stderr)
            return 2

    write_logs(log_dir)
    failed = [f for src, out in sides.values() for f in run_tree(src, out, log_dir)]
    for line in failed:
        print(f"FAILED {line}")

    parent_out, change_out = sides["parent"][1], sides["change"][1]
    parent_files, change_files = files_under(parent_out), files_under(change_out)
    differing = sorted(parent_files ^ change_files)
    worst = 0.0
    drift = {}
    for rel in sorted(parent_files & change_files):
        if not filecmp.cmp(parent_out / rel, change_out / rel, shallow=False):
            differing.append(rel)
            if rel.name == "report.json":
                drift[rel] = max_metric_diff(parent_out / rel, change_out / rel)
                worst = max(worst, drift[rel])
            elif rel.suffix == ".bin":
                drift[rel] = max_tensor_diff(parent_out / rel, change_out / rel)
    for rel in differing:
        side = ("parent only" if rel not in change_files
                else "change only" if rel not in parent_files else "differs")
        note = "" if drift.get(rel) is None else f" (largest difference {drift[rel]:.3g})"
        print(f"{side}: {rel}{note}")
    print(f"{len(parent_files | change_files)} files, {len(differing)} differ; "
          f"largest report metric difference {worst:.3g}")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
