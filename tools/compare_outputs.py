"""Check that two source trees produce byte-identical run outputs.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC OUT_DIR

PARENT_SRC and CHANGE_SRC are directories holding the ``bridgerec`` package
(a checkout's ``src/``). Each tree runs the same fixed matrix of seeded
configs through ``python -m bridgerec.cli run`` (with ``save_checkpoints``)
and then ``export``, with BLAS pinned to one thread, writing into
OUT_DIR/parent/<config> and OUT_DIR/change/<config>. A config holds only the
method-dependent keys its method reads, which is all ``bridgerec`` accepts: the
emcdr and ptupcdr-family configs and the suite base get the ``bridge`` block,
and cmf-mf sets no ``base_model``. The cmf-small_batch
config trains on batches of 16 and 8, so most table rows go untouched on each
step and both Adam stages run past step 356, where the first bias correction
rounds to exactly 1.0. ``Adam`` densifies a row gradient with at least a
quarter as many entries as its table has rows, so warm fine-tuning's ``E``
and ``Q`` take the dense path in every other config; the
ptupcdr-finetune_items-small_batch config fine-tunes on batches of 2, which
keeps its ``E`` (28 rows) and ``Q`` (80 rows) on the row path. The
emcdr-shared_linear config's world has one shared bridge and no rating noise,
so the generator's shared-bridge and noise-free branches are compared too;
every other synthetic world has per-user bridges and noise. Two configs
read rating logs (csv + csv and csv + json-lines) that the script writes once into
OUT_DIR/logs from a fixed world. The emcdr, ptupcdr and
ptupcdr_mapping_ablation mf configs and the ptupcdr csv + csv config run a
second time as <config>-meta_only, with ``stage: meta_only`` reading the
checkpoints (models, domains and bridge) their first run saved; each of their
exports takes the saved bridge instead of training it. The
ptupcdr_mapping_ablation-mf-meta_only-bridge_epochs config reads the same
checkpoints with another ``bridge.epochs``, so its export finds a bridge saved
for another plan and trains its own. The ptupcdr-mf-truncated_bridge config
is ptupcdr-mf again; after its run the script cuts the last value off the
``bridge_nets.bin`` it saved, and its -meta_only config reads those
checkpoints, so that export finds the bridge unreadable and trains its own.
Each tree must write the same export files there as the config's first
export, which trained; any other file is a failure. Every command runs in
OUT_DIR/<side>, so that checkpoint path is relative and the config files
match across trees.
Each tree also runs ``prepare`` on the csv + json-lines logs into
OUT_DIR/<side>/prepare, and on a longer csv + json-lines pair in
OUT_DIR/logs/long into OUT_DIR/<side>/prepare-long: 12,000 rows a log, so
rows cross several of the loader's chunk boundaries, and every 97th row's
rating is out of range. On the csv + json-lines logs each tree also runs
one ``suite`` sweep (tgt, cmf, emcdr and ptupcdr over two betas and two
seeds, with ``--export-attention``) serially into OUT_DIR/<side>/suite-serial
and with ``--parallel 2`` into OUT_DIR/<side>/suite-parallel. The script
prints every file that differs or exists on one side only, and the largest
difference of any report metric.
A differing ``report.json`` or ``suite.json`` is printed with the largest
difference of its rows' mae and rmse (rows of failed plans, which have none,
are skipped; a different row count reads inf), and a differing checkpoint
``.bin`` whose two manifests list the same shapes and dtypes with the largest
absolute difference of its values, each tensor read with the dtype its
manifest gives. A differing checkpoint manifest (a ``.json`` under a
``checkpoints`` directory) is printed with the ``meta`` keys whose values
differ or that only one side has. It exits 1 on any difference or failed
command, else 0.
Passing the same tree twice checks that two processes give byte-identical
outputs.
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
        "finetune": {"lr": 0.01, "epochs": 20}}
BRIDGE = {"lr": 0.01, "epochs": 10}
BRIDGE_NET_METHODS = ("ptupcdr", "ptupcdr_mapping_ablation")
BRIDGE_METHODS = ("emcdr", *BRIDGE_NET_METHODS)  # the methods that read a bridge block
META_ONLY = ("emcdr-mf", "ptupcdr-mf", "ptupcdr_mapping_ablation-mf", "ptupcdr-files-csv")
TRUNCATED = "ptupcdr-mf-truncated_bridge"  # its saved bridge blob is cut before -meta_only


def write_logs(log_dir: Path, n_users: int = 150, reject_every: int = 0) -> None:
    """One fixed two-domain world: books.csv, and its target domain as movies.csv and .jsonl.

    Each user rates 10 of a domain's 60 items; the first four fifths of the users
    rate books, the last four fifths movies. With ``reject_every`` every such row
    of a log has the out-of-range rating 5.5, which loading drops.
    """
    rng = random.Random(11)
    users = {f"u{i:03d}": [rng.uniform(0.3, 1.0) for _ in range(3)] for i in range(n_users)}
    names = list(users)
    log_dir.mkdir(parents=True)
    for domain, members in (("books", names[:n_users * 4 // 5]), ("movies", names[n_users // 5:])):
        items = {f"{domain[0]}{j:03d}": [rng.uniform(0.3, 1.0) for _ in range(3)]
                 for j in range(60)}
        rows = []
        for n, user in enumerate(members):
            for t, item in enumerate(rng.sample(sorted(items), 10)):
                dot = sum(a * b for a, b in zip(users[user], items[item]))
                rows.append((user, item, min(max(dot + rng.gauss(0.0, 0.1), 0.0), 5.0),
                             n * 100 + t))
        if reject_every:
            rows[::reject_every] = [(u, i, 5.5, t) for u, i, _, t in rows[::reject_every]]
        with open(log_dir / f"{domain}.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["user", "item", "rating", "timestamp"])
            writer.writerows((u, i, repr(r), t) for u, i, r, t in rows)
        if domain == "movies":
            with open(log_dir / "movies.jsonl", "w", encoding="utf-8") as f:
                f.writelines(json.dumps({"reviewerID": u, "asin": i, "overall": r,
                                         "unixReviewTime": t}) + "\n" for u, i, r, t in rows)


def matrix(log_dir: Path) -> dict[str, dict]:
    configs = {}
    for method in ("tgt", "emcdr", *BRIDGE_NET_METHODS):
        configs[f"{method}-mf"] = {"method": method, "base_model": "mf"}
    configs["cmf-mf"] = {"method": "cmf"}  # cmf reads no base_model; the name pairs its files
    for method in ("tgt", "emcdr", "ptupcdr"):
        for base_model in ("gmf", "two_tower"):
            configs[f"{method}-{base_model}"] = {"method": method, "base_model": base_model}
    configs["ptupcdr-finetune_items"] = {"method": "ptupcdr", "finetune_items": True}
    configs["ptupcdr-finetune_items-small_batch"] = {
        "method": "ptupcdr", "finetune_items": True,
        "finetune": {**BASE["finetune"], "batch_size": 2}}
    configs["ptupcdr-seq3-tanh"] = {"method": "ptupcdr", "max_seq_len": 3, "activation": "tanh"}
    configs["ptupcdr-two_tower-tanh"] = {"method": "ptupcdr", "base_model": "two_tower",
                                         "activation": "tanh"}
    configs["emcdr-shared_linear"] = {
        "method": "emcdr", "base_model": "mf",
        "task": {**TASK, "bridge_family": "shared_linear", "noise_sd": 0.0}}
    configs["cmf-small_batch"] = {"method": "cmf",
                                  "pretrain": {**BASE["pretrain"], "batch_size": 16},
                                  "finetune": {**BASE["finetune"], "epochs": 40, "batch_size": 8}}
    for method, tgt_log in (("ptupcdr", "movies.csv"), ("cmf", "movies.jsonl")):
        task = {"kind": "amazon", "src_path": str(log_dir / "books.csv"),
                "tgt_path": str(log_dir / tgt_log)}
        configs[f"{method}-files-{tgt_log.split('.')[1]}"] = {"method": method, "task": task}
    configs = {name: {**BASE, **({"bridge": BRIDGE} if overrides["method"] in BRIDGE_METHODS
                                 else {}), **overrides}
               for name, overrides in configs.items()}
    for name in META_ONLY:  # after their source run, so its checkpoints exist
        configs[f"{name}-meta_only"] = {**configs[name], "stage": "meta_only",
                                        "checkpoint_dir": f"{name}/checkpoints"}
    name = "ptupcdr_mapping_ablation-mf-meta_only"
    configs[f"{name}-bridge_epochs"] = {**configs[name], "bridge": {**BRIDGE, "epochs": 7}}
    configs[TRUNCATED] = configs["ptupcdr-mf"]
    configs[f"{TRUNCATED}-meta_only"] = {**configs["ptupcdr-mf-meta_only"],
                                         "checkpoint_dir": f"{TRUNCATED}/checkpoints"}
    return configs


def suite_config(log_dir: Path) -> dict:
    base = {k: v for k, v in BASE.items() if k != "save_checkpoints"}
    task = {"kind": "amazon", "src_path": str(log_dir / "books.csv"),
            "tgt_path": str(log_dir / "movies.jsonl")}
    return {"base": {**base, "task": task, "method": "tgt", "bridge": BRIDGE},
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
        cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        what = "both" if cfg["method"] in BRIDGE_NET_METHODS else "embeddings"
        if name == f"{TRUNCATED}-meta_only":
            jobs.append((["truncate", f"{TRUNCATED}/checkpoints/bridge_nets.bin"], out))
        jobs += [(["run", str(cfg_path)], run_dir),
                 (["export", str(cfg_path), "--what", what], run_dir)]
    for logs, name in ((log_dir, "prepare"), (log_dir / "long", "prepare-long")):
        jobs.append((["prepare", str(logs / "books.csv"), str(logs / "movies.jsonl"),
                      "--beta", "0.3", "--seed", "3"], out / name))
    suite_path = out / "suite-config.json"
    suite_path.write_text(json.dumps(suite_config(log_dir), indent=2), encoding="utf-8")
    for name, flags in (("suite-serial", []), ("suite-parallel", ["--parallel", "2"])):
        jobs.append((["suite", str(suite_path), "--export-attention", *flags], out / name))
    failed = []
    for args, run_dir in jobs:
        if args[0] == "truncate":
            blob = run_dir / args[1]
            if blob.is_file():  # else the run that saves it failed, and is reported
                blob.write_bytes(blob.read_bytes()[:-8])
            continue
        cmd = [sys.executable, "-m", "bridgerec.cli", *args, "--out-dir", str(run_dir)]
        proc = subprocess.run(cmd, env=env, capture_output=True, encoding="utf-8",
                              errors="replace", cwd=out)
        if proc.returncode != 0:
            failed.append(f"{src}: {' '.join(args)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
    trained, retrained = out / TRUNCATED, out / f"{TRUNCATED}-meta_only"
    for name in ("attention.csv", "embeddings.csv"):
        pair = (trained / name, retrained / name)
        if not all(p.is_file() for p in pair) or not filecmp.cmp(*pair, shallow=False):
            failed.append(f"{src}: {retrained.name}/{name} differs from the training export's")
    return failed


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def max_metric_diff(a: Path, b: Path) -> float:
    """Largest mae or rmse difference of two report or suite row lists, skipping
    rows of failed plans; inf when the lists differ in length."""
    rows_a, rows_b = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    if len(rows_a) != len(rows_b):
        return float("inf")
    return max((abs(ra[m] - rb[m]) for ra, rb in zip(rows_a, rows_b)
                if "failed" not in (ra["stage"], rb["stage"])
                for m in ("mae", "rmse")), default=0.0)


def read_tensors(blob_path: Path) -> list[tuple[list, str, np.ndarray]]:
    """(shape, dtype, values) of each tensor of a checkpoint blob, in manifest order;
    a tensor's dtype is its entry's, else the manifest's."""
    manifest = json.loads(blob_path.with_suffix(".json").read_text(encoding="utf-8"))
    blob, offset, tensors = blob_path.read_bytes(), 0, []
    for entry in manifest["tensors"]:
        dtype = np.dtype(entry.get("dtype", manifest["dtype"]))
        count = int(np.prod(entry["shape"]))
        tensors.append((entry["shape"], dtype.str,
                        np.frombuffer(blob, dtype=dtype, count=count, offset=offset)))
        offset += count * dtype.itemsize
    return tensors


def max_tensor_diff(a: Path, b: Path) -> float | None:
    """Largest absolute difference of two checkpoint blobs; None when their
    manifests list different shapes or dtypes."""
    ta, tb = read_tensors(a), read_tensors(b)
    if [t[:2] for t in ta] != [t[:2] for t in tb]:
        return None
    return max((float(np.max(np.abs(va.astype(np.float64) - vb), initial=0.0))
                for (_, _, va), (_, _, vb) in zip(ta, tb)), default=0.0)


def differing_meta_keys(a: Path, b: Path) -> list[str]:
    """The ``meta`` keys of two checkpoint manifests whose values differ or that only
    one of them has, sorted."""
    meta_a, meta_b = (json.loads(p.read_text(encoding="utf-8")).get("meta", {}) for p in (a, b))
    return sorted(key for key in meta_a.keys() | meta_b.keys()
                  if (key in meta_a, meta_a.get(key)) != (key in meta_b, meta_b.get(key)))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_src, change_src, out_dir = (Path(a).resolve() for a in argv)
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
    # 12,000 rows a log: several of the loader's chunks, with rejected rows among them
    write_logs(log_dir / "long", n_users=1500, reject_every=97)
    failed = [f for src, out in sides.values() for f in run_tree(src, out, log_dir)]
    for line in failed:
        print(f"FAILED {line}")

    parent_out, change_out = sides["parent"][1], sides["change"][1]
    parent_files, change_files = files_under(parent_out), files_under(change_out)
    differing = sorted(parent_files ^ change_files)
    worst = 0.0
    notes = {}
    for rel in sorted(parent_files & change_files):
        if not filecmp.cmp(parent_out / rel, change_out / rel, shallow=False):
            differing.append(rel)
            pair, diff = (parent_out / rel, change_out / rel), None
            if rel.name in ("report.json", "suite.json"):
                diff = max_metric_diff(*pair)
                worst = max(worst, diff)
            elif rel.suffix == ".bin":
                diff = max_tensor_diff(*pair)
            elif rel.suffix == ".json" and "checkpoints" in rel.parts:
                notes[rel] = f"meta keys differ: {', '.join(differing_meta_keys(*pair))}"
            if diff is not None:
                notes[rel] = f"largest difference {diff:.3g}"
    for rel in differing:
        side = ("parent only" if rel not in change_files
                else "change only" if rel not in parent_files else "differs")
        note = f" ({notes[rel]})" if rel in notes else ""
        print(f"{side}: {rel}{note}")
    print(f"{len(parent_files | change_files)} files, {len(differing)} differ; "
          f"largest report metric difference {worst:.3g}")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
