"""Check that two source trees produce byte-identical run outputs.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC OUT_DIR

PARENT_SRC and CHANGE_SRC are directories holding the ``bridgerec`` package
(a checkout's ``src/``). Each tree runs the same fixed matrix of seeded
configs through ``python -m bridgerec.cli run`` (with ``save_checkpoints``)
and then ``export``, with BLAS pinned to one thread, writing into
OUT_DIR/parent/<config> and OUT_DIR/change/<config>. The script prints every
file that differs or exists on one side only, and the largest difference of
any report metric. It exits 1 on any difference or failed command, else 0.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

TASK = {"kind": "synthetic", "n_users_src": 200, "n_users_tgt": 200, "n_overlap": 140,
        "n_items_src": 80, "n_items_tgt": 80, "k_true": 4, "ratings_per_user": 12}
BASE = {"task": TASK, "k": 4, "beta": 0.2, "seed": 3, "save_checkpoints": True,
        "pretrain": {"lr": 0.01, "epochs": 20},
        "bridge": {"lr": 0.01, "epochs": 10},
        "finetune": {"lr": 0.01, "epochs": 20}}
BRIDGE_NET_METHODS = ("ptupcdr", "ptupcdr_mapping_ablation")


def matrix() -> dict[str, dict]:
    configs = {}
    for method in ("tgt", "cmf", "emcdr", *BRIDGE_NET_METHODS):
        configs[f"{method}-mf"] = {"method": method, "base_model": "mf"}
    for method in ("tgt", "emcdr", "ptupcdr"):
        for base_model in ("gmf", "two_tower"):
            configs[f"{method}-{base_model}"] = {"method": method, "base_model": base_model}
    configs["ptupcdr-finetune_items"] = {"method": "ptupcdr", "finetune_items": True}
    tanh = {"lr": 0.01, "epochs": 10, "activation": "tanh"}
    configs["ptupcdr-seq3-tanh"] = {"method": "ptupcdr", "max_seq_len": 3, "bridge": tanh}
    return {name: {**BASE, **overrides} for name, overrides in configs.items()}


def run_tree(src: Path, out: Path) -> list[str]:
    """Run every config against one source tree; returns the failed commands."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    failed = []
    for name, cfg in matrix().items():
        run_dir = out / name
        run_dir.mkdir(parents=True)
        cfg_path = run_dir.parent / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))
        what = "both" if cfg["method"] in BRIDGE_NET_METHODS else "embeddings"
        for args in (["run", str(cfg_path)], ["export", str(cfg_path), "--what", what]):
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


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_src, change_src, out_dir = (Path(a) for a in argv)
    sides = {"parent": (parent_src, out_dir / "parent"), "change": (change_src, out_dir / "change")}
    for src, out in sides.values():
        if not (src / "bridgerec").is_dir():
            print(f"error: no bridgerec package under {src}", file=sys.stderr)
            return 2
        if out.exists():
            print(f"error: {out} exists; pass an empty OUT_DIR", file=sys.stderr)
            return 2

    failed = [f for src, out in sides.values() for f in run_tree(src, out)]
    for line in failed:
        print(f"FAILED {line}")

    parent_out, change_out = sides["parent"][1], sides["change"][1]
    parent_files, change_files = files_under(parent_out), files_under(change_out)
    differing = sorted(parent_files ^ change_files)
    worst = 0.0
    for rel in sorted(parent_files & change_files):
        if not filecmp.cmp(parent_out / rel, change_out / rel, shallow=False):
            differing.append(rel)
            if rel.name == "report.json":
                worst = max(worst, max_metric_diff(parent_out / rel, change_out / rel))
    for rel in differing:
        side = ("parent only" if rel not in change_files
                else "change only" if rel not in parent_files else "differs")
        print(f"{side}: {rel}")
    print(f"{len(parent_files | change_files)} files, {len(differing)} differ; "
          f"largest report metric difference {worst:.3g}")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
