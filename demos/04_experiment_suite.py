"""Running a seeded method-comparison suite and tabulating the results.

Sweeps three transfer methods over three seeds on one synthetic world, then
prints the per-seed and seed-averaged rows the suite runner produces. The
same sweep re-run with the same seeds yields byte-identical tables.
"""

import tempfile
from pathlib import Path

from bridgerec import (ExperimentPlan, SyntheticSpec, SyntheticTask,
                       TrainConfig, run_suite, sweep_plans, write_suite_csv)

world = SyntheticSpec(n_users_src=140, n_users_tgt=140, n_overlap=100,
                      n_items_src=90, n_items_tgt=90, k_true=5,
                      ratings_per_user=15, noise_sd=0.1,
                      bridge_family="per_user_linear")
base = ExperimentPlan(task=SyntheticTask(world), method="tgt", k=5, beta=0.2,
                      pretrain=TrainConfig(lr=0.01, epochs=50),
                      bridge=TrainConfig(lr=0.01, epochs=30),
                      finetune=TrainConfig(lr=0.01, epochs=50))

plans = sweep_plans(base, methods=["tgt", "emcdr", "ptupcdr"], seeds=[0, 1, 2])
rows = run_suite(plans, record_runtime=False)

with tempfile.TemporaryDirectory(prefix="bridgerec_suite_") as tmp:
    out = Path(tmp) / "suite.csv"
    write_suite_csv(rows, out)
    n_lines = len(out.read_text(encoding="utf-8").splitlines())
    print(f"wrote {n_lines} lines to {out} (removed on exit)\n")

print(f"{'method':12s} {'stage':6s} {'seed':>4s} {'mae':>8s} {'rmse':>8s}")
for r in rows:
    if r["seed"] == "mean":
        print(f"{r['method']:12s} {r['stage']:6s} {'mean':>4s} "
              f"{r['mae']:8.4f} {r['rmse']:8.4f}   <- averaged over seeds")
for r in rows:
    if r["seed"] != "mean" and r["stage"] == "cold":
        print(f"{r['method']:12s} {r['stage']:6s} {r['seed']:4d} "
              f"{r['mae']:8.4f} {r['rmse']:8.4f}")
