"""The benchmark's workloads.

Each workload stresses a different layer of bridgerec:

- ``ptupcdr_bridge`` runs one ``ptupcdr`` plan through the library on a small
  synthetic world, so the per-user bridge loop (``task_oriented_loss``)
  dominates and the factor tables are too small for pre-training to matter.
- ``wide_suite`` runs ``bridgerec suite`` over ``tgt``, ``cmf`` and
  ``emcdr`` on csv and json-lines logs with wide user and item tables, so
  dense gradients and dense Adam over whole tables dominate, the target model
  is pre-trained twice with identical inputs, and the bridge layer is idle.
- ``meta_only_export`` runs ``bridgerec run`` from saved checkpoints and then
  ``bridgerec export``: checkpoint loading, the mapping objective, warm
  fine-tuning and per-user inference, with no pre-training.

A workload's ``setup`` prepares inputs from the seed (or, where the run makes
its own inputs, runs once to warm up); ``run`` is the timed call into the
program; ``check`` (untimed) scores and verifies its outputs. Every check is
one operation attempted, recorded as (name, ok).
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import bridgerec as br
from bridgerec import cli

K = 10
# The file workloads read one fixed world, as a study reads one corpus; the
# seed draws the split, the initialisations and the batch order.
WORLD_SEED = 0


def _finite_metrics(checks, label, mae, rmse):
    ok = math.isfinite(mae) and math.isfinite(rmse) and rmse >= mae
    checks.append((f"{label}: finite metrics with rmse >= mae", ok))


def _pool(reports):
    """Pool (mae, rmse, n) triples over plans into one (mae, rmse)."""
    n = sum(r[2] for r in reports)
    mae = sum(r[0] * r[2] for r in reports) / n
    rmse = math.sqrt(sum(r[1] ** 2 * r[2] for r in reports) / n)
    return mae, rmse


def _split_counts(split):
    cold = sum(len(split.cold[u]) for u in split.test_users)
    warm = sum(len(split.warm[u]) for u in split.test_users)
    return cold, warm


def _write_logs(spec, seed, src_path: Path, tgt_path: Path):
    """Generate a synthetic world and write each domain as a csv or jsonl log."""
    src, tgt, _ = br.generate_synthetic(spec, seed)
    for ds, path in ((src, src_path), (tgt, tgt_path)):
        rows = zip(ds.user_idx, ds.item_idx, ds.rating, ds.timestamp)
        with open(path, "w", newline="") as f:
            if path.suffix == ".jsonl":
                for u, i, r, t in rows:
                    f.write(json.dumps({"reviewerID": ds.users.external(u),
                                        "asin": ds.items.external(i),
                                        "overall": float(r),
                                        "unixReviewTime": int(t)}) + "\n")
            else:
                writer = csv.writer(f)
                writer.writerow(br.data.CSV_FIELDS)
                for u, i, r, t in rows:
                    writer.writerow([ds.users.external(u), ds.items.external(i),
                                     repr(float(r)), int(t)])


def _reference_split(src_path, tgt_path, beta, seed, checks):
    """The split every plan of a file task uses, built from the same public inputs."""
    src = br.load_domain(src_path)
    tgt = br.load_domain(tgt_path)
    split = br.make_split(src, tgt, beta, seed)
    try:
        br.verify_split(split, src, tgt)
        checks.append(("verify_split on the reference split", True))
    except AssertionError:
        checks.append(("verify_split on the reference split", False))
    return src, tgt, split


def _read_json_rows(path: Path):
    return json.loads(path.read_text()) if path.exists() else []


def _csv_rows(path: Path) -> int:
    if not path.exists():
        return -1
    with open(path, newline="") as f:
        return sum(1 for _ in csv.reader(f)) - 1


class PtupcdrBridge:
    name = "ptupcdr_bridge"
    spec = br.SyntheticSpec(n_users_src=700, n_users_tgt=700, n_overlap=600,
                            n_items_src=300, n_items_tgt=300, k_true=K,
                            ratings_per_user=20, bridge_family="per_user_linear",
                            n_clusters=32)

    def setup(self, seed: int, workdir: Path) -> list:
        self.plan = br.ExperimentPlan(task=br.SyntheticTask(self.spec), method="ptupcdr",
                                      base_model="mf", k=K, beta=0.5, seed=seed,
                                      bridge=br.TrainConfig(lr=0.01, epochs=5))
        # the world is generated inside the run, so a warm-up run is the set-up
        _, checks = self.check(self.run())
        return checks

    def run(self):
        # the body of run_plan, kept open so the checks can see the split
        cold = br.run_cold(self.plan)
        warm = br.run_warm(self.plan, cold)
        return cold, warm

    def check(self, result):
        cold, warm = result
        checks = [("plan ran", True)]
        try:
            br.verify_split(cold.split, cold.src, cold.tgt)
            checks.append(("verify_split", True))
        except AssertionError:
            checks.append(("verify_split", False))
        n_cold, n_warm = _split_counts(cold.split)
        for report, n in ((cold.report, n_cold), (warm, n_warm)):
            _finite_metrics(checks, report.stage, report.mae, report.rmse)
            checks.append((f"{report.stage}: n_eval equals split rows", report.n_eval == n))
        quality = {"cold_mae": cold.report.mae, "cold_rmse": cold.report.rmse,
                   "warm_mae": warm.mae, "warm_rmse": warm.rmse}
        return quality, checks


class WideSuite:
    name = "wide_suite"
    methods = ("tgt", "cmf", "emcdr")
    beta = 0.2
    spec = br.SyntheticSpec(n_users_src=1600, n_users_tgt=1600, n_overlap=1000,
                            n_items_src=3400, n_items_tgt=3400, k_true=K,
                            ratings_per_user=5, bridge_family="shared_linear",
                            n_clusters=32)

    def setup(self, seed: int, workdir: Path) -> list:
        self.out = workdir / "suite"
        src_path, tgt_path = workdir / "movies.csv", workdir / "music.jsonl"
        _write_logs(self.spec, WORLD_SEED, src_path, tgt_path)
        checks = []
        _, _, split = _reference_split(src_path, tgt_path, self.beta, seed, checks)
        self.expected_n = dict(zip(("cold", "warm"), _split_counts(split)))
        base = {"task": {"kind": "amazon", "src_path": str(src_path),
                         "tgt_path": str(tgt_path), "name": "wide"},
                "method": self.methods[0], "base_model": "mf", "beta": self.beta,
                "seed": seed, "k": K,
                "pretrain": {"lr": 0.01, "epochs": 10, "batch_size": 128}}
        self.config = workdir / "suite.json"
        self.config.write_text(json.dumps({"base": base, "methods": list(self.methods),
                                           "parallelism": 1, "record_runtime": False}))
        return checks

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return cli.main(["suite", str(self.config), "--out-dir", str(self.out)])

    def check(self, code):
        checks = [("suite exit code 0", code == 0)]
        rows = _read_json_rows(self.out / "suite.json")
        expected_rows = 2 * len(self.methods)
        checks.append(("suite.csv row count", _csv_rows(self.out / "suite.csv") == expected_rows))
        checks.append(("suite.json row count", len(rows) == expected_rows))
        stats = {"cold": [], "warm": []}
        for r in rows:
            label = f"{r['method']} {r['stage']}"
            checks.append((f"{label}: plan did not fail", r["stage"] in stats))
            if r["stage"] not in stats:
                continue
            _finite_metrics(checks, label, r["mae"], r["rmse"])
            checks.append((f"{label}: n_eval equals split rows",
                           r["n_eval"] == self.expected_n[r["stage"]]))
            stats[r["stage"]].append((r["mae"], r["rmse"], r["n_eval"]))
        if not (stats["cold"] and stats["warm"]):
            return None, checks
        cold_mae, cold_rmse = _pool(stats["cold"])
        warm_mae, warm_rmse = _pool(stats["warm"])
        quality = {"cold_mae": cold_mae, "cold_rmse": cold_rmse,
                   "warm_mae": warm_mae, "warm_rmse": warm_rmse}
        return quality, checks


class MetaOnlyExport:
    name = "meta_only_export"
    method = "ptupcdr_mapping_ablation"
    beta = 0.7
    max_seq_len = 40
    spec = br.SyntheticSpec(n_users_src=1200, n_users_tgt=1200, n_overlap=1000,
                            n_items_src=600, n_items_tgt=600, k_true=K,
                            ratings_per_user=40, bridge_family="per_user_linear",
                            n_clusters=32)

    def setup(self, seed: int, workdir: Path) -> list:
        src_path, tgt_path = workdir / "books.csv", workdir / "movies.csv"
        _write_logs(self.spec, WORLD_SEED, src_path, tgt_path)
        checks = []
        src, _, split = _reference_split(src_path, tgt_path, self.beta, seed, checks)
        self.expected_n = dict(zip(("cold", "warm"), _split_counts(split)))
        seqs = br.build_sequences(src)
        self.expected_attention = sum(min(len(seqs[src.users.index(u)]), self.max_seq_len)
                                      for u in split.test_users)
        self.expected_embeddings = len(split.test_users) + len(split.train_overlap_users)

        base = {"task": {"kind": "amazon", "src_path": str(src_path),
                         "tgt_path": str(tgt_path), "name": "meta"},
                "method": self.method, "base_model": "mf", "beta": self.beta,
                "seed": seed, "k": K, "max_seq_len": self.max_seq_len}
        setup_dir = workdir / "setup"
        shutil.rmtree(setup_dir, ignore_errors=True)
        setup_cfg = workdir / "setup.json"
        setup_cfg.write_text(json.dumps({**base, "save_checkpoints": True,
                                         "out_dir": str(setup_dir)}))
        code = cli.main(["run", str(setup_cfg)])
        checks.append(("set-up run exit code 0", code == 0))
        self.reference = {r["stage"]: (r["mae"], r["rmse"])
                          for r in _read_json_rows(setup_dir / "report.json")}

        self.run_dir, self.export_dir = workdir / "run", workdir / "export"
        self.config = workdir / "meta_only.json"
        self.config.write_text(json.dumps({**base, "stage": "meta_only",
                                           "checkpoint_dir": str(setup_dir / "checkpoints")}))
        return checks

    def run(self):
        for d in (self.run_dir, self.export_dir):
            shutil.rmtree(d, ignore_errors=True)
        config = str(self.config)
        return (cli.main(["run", config, "--out-dir", str(self.run_dir)]),
                cli.main(["export", config, "--what", "both", "--out-dir", str(self.export_dir)]))

    def check(self, codes):
        run_code, export_code = codes
        checks = [("run exit code 0", run_code == 0), ("export exit code 0", export_code == 0)]
        rows = _read_json_rows(self.run_dir / "report.json")
        checks.append(("report.json row count", len(rows) == 2))
        quality = {}
        for r in rows:
            stage = r["stage"]
            _finite_metrics(checks, stage, r["mae"], r["rmse"])
            checks.append((f"{stage}: n_eval equals split rows",
                           r["n_eval"] == self.expected_n.get(stage)))
            checks.append((f"{stage}: metrics equal the checkpointing run",
                           self.reference.get(stage) == (r["mae"], r["rmse"])))
            quality[f"{stage}_mae"] = r["mae"]
            quality[f"{stage}_rmse"] = r["rmse"]
        checks.append(("attention.csv row count",
                       _csv_rows(self.export_dir / "attention.csv") == self.expected_attention))
        checks.append(("embeddings.csv row count",
                       _csv_rows(self.export_dir / "embeddings.csv") == self.expected_embeddings))
        return (quality if len(quality) == 4 else None), checks


WORKLOADS = {w.name: w for w in (PtupcdrBridge, WideSuite, MetaOnlyExport)}
