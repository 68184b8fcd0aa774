import dataclasses
import json
import math
import multiprocessing
import os
import time

import pytest

from bridgerec import pipeline
from bridgerec.cli import build_plan, main
from bridgerec.models import DomainModel, TrainConfig, save_model
from bridgerec.pipeline import (BASE_MODELS, METHODS, AmazonTask, ExperimentPlan, SyntheticSpec,
                                SyntheticTask, sweep_plans)
from conftest import edit_checkpoint

SMOKE_TASK = {"kind": "synthetic", "n_users_src": 200, "n_users_tgt": 200,
              "n_overlap": 140, "n_items_src": 80, "n_items_tgt": 80,
              "k_true": 4, "ratings_per_user": 12}


def _run_config(tmp_path, **overrides):
    cfg = {"task": SMOKE_TASK, "method": "ptupcdr", "k": 4, "beta": 0.2, "seed": 3,
           "pretrain": {"lr": 0.01, "epochs": 30},
           "bridge": {"lr": 0.01, "epochs": 20},
           "finetune": {"lr": 0.01, "epochs": 30}}
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# prepare

def test_prepare_writes_deterministic_split(tmp_path, pair_csvs, capsys):
    src, tgt = pair_csvs
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        rc = main(["prepare", str(src), str(tgt), "--beta", "0.4", "--seed", "5",
                   "--out-dir", str(out)])
        assert rc == 0
    assert (out1 / "split.json").read_bytes() == (out2 / "split.json").read_bytes()
    for name in ("src_users", "src_items", "tgt_users", "tgt_items"):
        assert (out1 / f"{name}.json").exists()


def test_prepare_rejects_bad_beta(tmp_path, pair_csvs, capsys):
    src, tgt = pair_csvs
    rc = main(["prepare", str(src), str(tgt), "--beta", "1.5",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "--beta" in capsys.readouterr().err


def test_prepare_reports_a_json_line_that_is_not_an_object(tmp_path, pair_csvs, capsys):
    src, _ = pair_csvs
    tgt = tmp_path / "tgt.jsonl"
    tgt.write_text('{"reviewerID": "u1", "asin": "g0", "overall": 4.0, "unixReviewTime": 1}\n'
                   "[1, 2]\n")
    rc = main(["prepare", str(src), str(tgt), "--beta", "0.4", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2: expected a JSON object" in err
    assert "Traceback" not in err


def test_prepare_reports_a_timestamp_out_of_integer_range(tmp_path, pair_csvs, capsys):
    src, _ = pair_csvs
    tgt = tmp_path / "tgt.jsonl"
    tgt.write_text('{"reviewerID": "u1", "asin": "g0", "overall": 4.0, "unixReviewTime": 1}\n'
                   '{"reviewerID": "u2", "asin": "g0", "overall": 4.0, '
                   '"unixReviewTime": Infinity}\n')
    rc = main(["prepare", str(src), str(tgt), "--beta", "0.4", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: line 2: cannot convert float infinity to integer" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# run

def test_run_synthetic_smoke_completes_quickly(tmp_path, capsys):
    cfg = _run_config(tmp_path, out_dir=str(tmp_path / "out"))
    start = time.monotonic()
    rc = main(["run", str(cfg)])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 60.0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {r["stage"] for r in report} == {"cold", "warm"}
    assert (tmp_path / "out" / "report.csv").exists()


def test_run_is_idempotent(tmp_path):
    cfg = _run_config(tmp_path, method="tgt",
                      pretrain={"lr": 0.01, "epochs": 10},
                      finetune={"lr": 0.01, "epochs": 10})
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        blobs.append(((out / "report.csv").read_bytes(),
                      (out / "report.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_run_target_only_method_on_files(tmp_path, pair_csvs):
    src, tgt = pair_csvs
    cfg = {"task": {"kind": "amazon", "src_path": str(src), "tgt_path": str(tgt)},
           "method": "tgt", "k": 3, "beta": 0.4, "seed": 1,
           "pretrain": {"lr": 0.02, "epochs": 20},
           "finetune": {"lr": 0.02, "epochs": 10}}
    path = tmp_path / "tgt.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


def test_run_seed_override_changes_results(tmp_path):
    cfg = _run_config(tmp_path, method="tgt", out_dir=str(tmp_path / "a"))
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--seed", "99", "--out-dir", str(tmp_path / "b")]) == 0
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a[0]["seed"] == 3 and b[0]["seed"] == 99


@pytest.mark.parametrize("key", ["typo_key", "include_test_users_in_source",
                                 "clip_low", "clip_high"])
def test_run_rejects_unknown_config_keys(tmp_path, capsys, key):
    # the last three were plan options once; old configs must not run with them ignored
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": SMOKE_TASK, "method": "tgt", key: 1}))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err


def test_run_meta_only_requires_checkpoints(tmp_path, capsys):
    cfg = _run_config(tmp_path, stage="meta_only",
                      checkpoint_dir=str(tmp_path / "nowhere"))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "src_model" in err and "nowhere" in err


def test_run_meta_only_from_saved_checkpoints(tmp_path):
    full_out = tmp_path / "full"
    cfg = _run_config(tmp_path, out_dir=str(full_out), save_checkpoints=True)
    assert main(["run", str(cfg)]) == 0
    ckpt = full_out / "checkpoints"
    assert (ckpt / "src_model.bin").exists() and (ckpt / "tgt_model.bin").exists()

    cfg2 = _run_config(tmp_path, stage="meta_only", checkpoint_dir=str(ckpt))
    assert main(["run", str(cfg2), "--out-dir", str(tmp_path / "meta_out")]) == 0
    full = json.loads((full_out / "report.json").read_text())
    again = json.loads((tmp_path / "meta_out" / "report.json").read_text())
    assert full[0]["mae"] == pytest.approx(again[0]["mae"], rel=1e-12)


@pytest.mark.parametrize("case, overrides, message", [
    ("head", {"base_model": "gmf"}, "base_model 'two_tower' and k 4, but the config asks "
                                    "for base_model 'gmf' and k 4"),
    ("k", {"k": 3}, "base_model 'two_tower' and k 4, but the config asks "
                    "for base_model 'two_tower' and k 3"),
    ("name", {}, "lacks tensors ['item_net.W1']"),
    ("shape", {}, "tensor 'item_net.W1' has shape (4, 8, 1), expected (4, 8)"),
    ("meta", {}, "checkpoint manifest for tgt_model lacks the key 'k'"),
], ids=["head", "k", "name", "shape", "meta"])
def test_run_meta_only_rejects_checkpoints_that_disagree(tmp_path, capsys, monkeypatch,
                                                         case, overrides, message):
    _no_training(monkeypatch)
    ckpt = tmp_path / "ckpt"
    for name in ("src_model", "tgt_model"):
        save_model(ckpt / name, DomainModel(5, 6, 4, "two_tower"))
    if case in ("name", "shape", "meta"):
        edit_checkpoint(ckpt / "tgt_model", "k" if case == "meta" else "item_net.W1", case)
    cfg = _run_config(tmp_path, **{"base_model": "two_tower", "stage": "meta_only",
                                   "checkpoint_dir": str(ckpt), **overrides})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# suite

def test_suite_three_methods_with_means_and_attention(tmp_path):
    suite = {"base": {"task": SMOKE_TASK, "method": "tgt", "k": 4, "beta": 0.2,
                      "pretrain": {"lr": 0.01, "epochs": 15},
                      "bridge": {"lr": 0.01, "epochs": 10},
                      "finetune": {"lr": 0.01, "epochs": 10}},
             "methods": ["tgt", "emcdr", "ptupcdr"],
             "seeds": [0, 1],
             "out_dir": str(tmp_path / "suite_out")}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["suite", str(path), "--export-attention"]) == 0
    table = (tmp_path / "suite_out" / "suite.csv").read_text().strip().splitlines()
    assert table[0] == "task,beta,method,stage,seed,mae,rmse,n_eval,runtime_s"
    assert len(table) == 1 + 12 + 6  # header + per-seed rows + mean rows
    assert sum(1 for line in table if ",mean," in line) == 6
    attention = (tmp_path / "suite_out" / "attention_ptupcdr_beta0.2.csv")
    assert attention.exists()
    assert attention.read_text().splitlines()[0] == "user,item,weight"


def test_suite_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"base": {"task": SMOKE_TASK, "method": "tgt"},
                                "parallellism": 2}))
    assert main(["suite", str(path)]) == 1
    assert "parallellism" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export

def test_export_attention_and_embeddings(tmp_path):
    cfg = _run_config(tmp_path)
    out = tmp_path / "export"
    assert main(["export", str(cfg), "--what", "both", "--out-dir", str(out)]) == 0
    att = (out / "attention.csv").read_text().splitlines()
    assert att[0] == "user,item,weight"
    assert len(att) > 1
    emb = (out / "embeddings.csv").read_text().splitlines()
    assert emb[0].startswith("user,kind,d0")
    kinds = {line.split(",")[1] for line in emb[1:]}
    assert kinds == {"transformed", "target"}


def test_export_attention_needs_bridge_method(tmp_path, capsys):
    cfg = _run_config(tmp_path, method="tgt")
    rc = main(["export", str(cfg), "--what", "attention",
               "--out-dir", str(tmp_path / "e")])
    assert rc == 1
    assert "ptupcdr" in capsys.readouterr().err


def test_export_rejects_attention_before_the_cold_stage(tmp_path, capsys, monkeypatch):
    def no_cold_stage(*args, **kwargs):
        raise AssertionError("the cold stage ran")

    monkeypatch.setattr("bridgerec.cli.run_cold", no_cold_stage)
    monkeypatch.setattr("bridgerec.pipeline.pretrain", no_cold_stage)
    cfg = _run_config(tmp_path, method="emcdr")
    assert main(["export", str(cfg), "--what", "both", "--out-dir", str(tmp_path / "e")]) == 1
    assert "attention export needs a ptupcdr-family method" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_run_emits_training_trace_csvs(tmp_path):
    cfg = _run_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    for name, epochs in (("src_trace", 30), ("tgt_trace", 30), ("bridge_trace", 20),
                         ("finetune_trace", 30)):
        lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + epochs
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all("trace" not in row for row in report)


@pytest.mark.parametrize("bad", [{"batch_size": 0}, {"batch_size": -1},
                                 {"epochs": -1}, {"patience": -1}])
def test_run_rejects_invalid_train_config(tmp_path, capsys, bad):
    field_name = next(iter(bad))
    with pytest.raises(ValueError, match=field_name):
        TrainConfig(**bad)
    cfg = _run_config(tmp_path, bridge={"lr": 0.01, "epochs": 20, **bad})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert field_name in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_without_warm_ratings_fails_before_pretraining(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr("bridgerec.pipeline.pretrain", no_training)
    monkeypatch.setattr("bridgerec.pipeline.cmf_train", no_training)
    # one target rating per user: every test user's only rating lands in the cold set
    cfg = _run_config(tmp_path, task={**SMOKE_TASK, "ratings_per_user": 1})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "none of the 28 test users has a warm rating" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_rejects_invalid_plan_activation(tmp_path, capsys):
    cfg = _run_config(tmp_path, activation="sigmoid")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "activation must be one of" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


class PlanRan(Exception):
    pass


def _no_training(monkeypatch):
    def ran(*args, **kwargs):
        raise PlanRan

    for name in ("bridgerec.cli.run_plan", "bridgerec.cli.run_cold",
                 "bridgerec.pipeline.pretrain", "bridgerec.pipeline.cmf_train"):
        monkeypatch.setattr(name, ran)


# plans whose nets the plan-level activation reaches: the ptupcdr family's bridge
# nets, and the towers of a two_tower base model unless cmf replaces the base model
NET_PLANS = ({(m, b) for m in ("ptupcdr", "ptupcdr_mapping_ablation") for b in BASE_MODELS}
             | {("tgt", "two_tower"), ("emcdr", "two_tower")})


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("base_model", BASE_MODELS)
def test_run_accepts_activation_exactly_when_the_plan_builds_a_net(
        tmp_path, capsys, monkeypatch, method, base_model):
    _no_training(monkeypatch)
    cfg = _run_config(tmp_path, method=method, base_model=base_model, activation="tanh")
    if (method, base_model) in NET_PLANS:
        with pytest.raises(PlanRan):
            main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    else:
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert "activation has no effect" in capsys.readouterr().err


@pytest.mark.parametrize("method, base_model, checkpoints", [
    ("ptupcdr", "mf", {"bridge_nets": ("enc_activation", "meta_activation")}),
    ("emcdr", "two_tower", {"src_model": ("activation",), "tgt_model": ("activation",)}),
])
def test_plan_activation_reaches_every_net(tmp_path, method, base_model, checkpoints):
    cfg = _run_config(tmp_path, method=method, base_model=base_model, activation="tanh",
                      save_checkpoints=True, pretrain={"lr": 0.01, "epochs": 2},
                      bridge={"lr": 0.01, "epochs": 2}, finetune={"lr": 0.01, "epochs": 2})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    for name, keys in checkpoints.items():
        meta = json.loads((out / "checkpoints" / f"{name}.json").read_text())["meta"]
        assert [meta[key] for key in keys] == ["tanh"] * len(keys)


@pytest.mark.parametrize("stage", ["pretrain", "bridge", "finetune"])
def test_stage_activation_names_the_plan_key(tmp_path, capsys, stage):
    cfg = _run_config(tmp_path, **{stage: {"lr": 0.01, "epochs": 2, "activation": "tanh"}})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"activation is not a {stage} setting; set the top-level 'activation'" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _suite_config(tmp_path, methods, suite_keys=None, **base):
    suite = {"base": {"task": SMOKE_TASK, "method": "tgt", "k": 4, "beta": 0.2, **base,
                      "pretrain": {"lr": 0.01, "epochs": 3},
                      "bridge": {"lr": 0.01, "epochs": 3},
                      "finetune": {"lr": 0.01, "epochs": 3}},
             "methods": methods, **(suite_keys or {})}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return path


def test_suite_activation_needs_one_plan_with_a_net(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = _suite_config(tmp_path, ["tgt", "ptupcdr"], activation="tanh")
    assert main(["suite", str(cfg), "--out-dir", str(out)]) == 0
    assert [r["stage"] for r in json.loads((out / "suite.json").read_text())] == \
        ["cold", "warm"] * 2

    _no_training(monkeypatch)
    cfg = _suite_config(tmp_path, ["tgt", "emcdr"], activation="tanh")
    assert main(["suite", str(cfg), "--out-dir", str(tmp_path / "rejected")]) == 1
    assert "activation has no effect" in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


@pytest.mark.parametrize("command, overrides", [
    ("run", {"pretrain": 5}),
    ("run", {"pretrain": {"batch_size": "64"}}),
    ("run", {"k": "6"}),
    ("run", {"beta": "0.2"}),
    ("run", {"task": {**SMOKE_TASK, "n_overlap": "5"}}),
    ("suite", {"seeds": 3}),
    ("run", {"seed": "3"}),
    ("run", {"k": 2.5}),
    ("run", {"max_seq_len": 2.5}),
    ("run", {"pretrain": {"epochs": 1.5}}),
    ("run", {"pretrain": {"batch_size": 2.5}}),
    ("run", {"allow_off_grid_lr": True, "pretrain": {"lr": True}}),
    ("run", {"task": {"kind": "amazon", "src_path": 5, "tgt_path": "tgt.csv"}}),
    ("run", {"finetune_items": "no"}),
    ("run", {"record_runtime": "no"}),
    ("suite", {"parallelism": "2"}),
    ("suite", {"betas": ["0.2"]}),
    ("suite", {"seeds": [1.5]}),
    ("suite", {"record_runtime": "no"}),
    ("suite", {"export_attention": 1}),
], ids=["stage", "batch_size", "k", "beta", "n_overlap", "seeds", "seed-str", "k-float",
        "max_seq_len-float", "epochs-float", "batch_size-float", "lr-bool", "src_path-int",
        "finetune_items-str", "run-record_runtime-str", "parallelism-str", "betas-str",
        "seeds-float", "suite-record_runtime-str", "export_attention-int"])
def test_wrong_typed_config_values_are_config_errors(tmp_path, capsys, monkeypatch,
                                                     command, overrides):
    _no_training(monkeypatch)
    if command == "run":
        cfg = _run_config(tmp_path, **overrides)
    else:
        cfg = _suite_config(tmp_path, ["tgt"])
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **overrides}))
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, overrides, message", [
    ("run", {"stage": "meta-only", "checkpoint_dir": "nowhere"}, "got stage 'meta-only'"),
    ("run", {"checkpoint_dir": "nowhere"}, "only 'meta_only' reads checkpoint_dir"),
    ("export", {"stage": "meta-only"}, "got stage 'meta-only'"),
    ("suite", {"stage": "meta_only"}, "unknown keys in suite base: ['stage']"),
    ("suite", {"checkpoint_dir": "c"}, "unknown keys in suite base: ['checkpoint_dir']"),
    ("suite", {"save_checkpoints": True}, "unknown keys in suite base: ['save_checkpoints']"),
    ("suite", {"out_dir": "base_out"}, "unknown keys in suite base: ['out_dir']"),
    ("suite", {"record_runtime": True}, "unknown keys in suite base: ['record_runtime']"),
    ("suite", {"suite_keys": {"export_attention": True}},
     "attention export needs a ptupcdr-family method in the sweep"),
    ("suite --export-attention", {},
     "attention export needs a ptupcdr-family method in the sweep"),
], ids=["run-stage", "run-checkpoint_dir", "export-stage", "suite-stage",
        "suite-checkpoint_dir", "suite-save_checkpoints", "suite-out_dir",
        "suite-record_runtime", "suite-export_attention", "suite-export-attention-flag"])
def test_config_values_that_would_be_ignored_are_rejected(tmp_path, capsys, monkeypatch,
                                                          command, overrides, message):
    _no_training(monkeypatch)
    command, *flags = command.split()
    if command == "suite":
        cfg = _suite_config(tmp_path, ["emcdr"], **overrides)
    else:
        cfg = _run_config(tmp_path, **overrides)
    assert main([command, str(cfg), *flags, "--out-dir", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# suite: shared inputs, dead workers, parallelism

def test_suite_attention_comes_from_the_suite_cold_runs(tmp_path, monkeypatch):
    calls = {"run_cold": 0, "pretrain": 0}
    run_cold, pretrain = pipeline.run_cold, pipeline.pretrain

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "run_cold", counted("run_cold", run_cold))
    monkeypatch.setattr(pipeline, "pretrain", counted("pretrain", pretrain))
    cfg = _suite_config(tmp_path, ["tgt", "emcdr", "ptupcdr"])
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seeds": [0, 1]}))
    out = tmp_path / "out"
    assert main(["suite", str(cfg), "--export-attention", "--out-dir", str(out)]) == 0
    # one cold run per plan; per seed one target and one source pre-train
    assert calls == {"run_cold": 6, "pretrain": 4}
    # the csv is the one `export` writes for the first seed's plan
    run_cfg = _run_config(tmp_path, **{**json.loads(cfg.read_text())["base"],
                                       "method": "ptupcdr", "seed": 0})
    assert main(["export", str(run_cfg), "--what", "attention",
                 "--out-dir", str(tmp_path / "export")]) == 0
    assert (out / "attention_ptupcdr_beta0.2.csv").read_bytes() == \
        (tmp_path / "export" / "attention.csv").read_bytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched run_plan only when forked")
def test_suite_keeps_every_row_but_those_of_a_plan_whose_worker_dies(tmp_path, monkeypatch,
                                                                      capsys):
    cfg = _suite_config(tmp_path, ["tgt", "emcdr", "cmf"])
    assert main(["suite", str(cfg), "--out-dir", str(tmp_path / "serial")]) == 0
    serial = json.loads((tmp_path / "serial" / "suite.json").read_text())

    run_plan = pipeline.run_plan

    def dies_on_emcdr(plan, pretrained=None):
        if plan.method == "emcdr":
            os._exit(3)
        return run_plan(plan, pretrained)

    monkeypatch.setattr(pipeline, "run_plan", dies_on_emcdr)
    out = tmp_path / "parallel"
    assert main(["suite", str(cfg), "--parallel", "2", "--out-dir", str(out)]) == 1
    assert "3 plans, 1 failed" in capsys.readouterr().err
    rows = json.loads((out / "suite.json").read_text())
    assert [r for r in rows if r["method"] != "emcdr"] == \
        [r for r in serial if r["method"] != "emcdr"]
    (failed,) = [r for r in rows if r["method"] == "emcdr"]
    assert failed["stage"] == "failed" and "worker process" in failed["error"]


@pytest.mark.parametrize("suite_keys, flags", [
    ({"parallelism": -4}, []),
    ({"parallelism": 2}, ["--parallel", "0"]),
    ({}, ["--parallel", "-2"]),
], ids=["config-negative", "flag-zero", "flag-negative"])
def test_suite_rejects_parallelism_below_one(tmp_path, capsys, monkeypatch, suite_keys, flags):
    _no_training(monkeypatch)
    cfg = _suite_config(tmp_path, ["tgt", "emcdr"])
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **suite_keys}))
    assert main(["suite", str(cfg), "--out-dir", str(tmp_path / "out"), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: parallelism must be >= 1")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# config schemas and value checks

@pytest.mark.parametrize("command, config, message", [
    ("run", {"task": 5}, "run config key 'task' must be object, got 5"),
    ("run", {"task": [SMOKE_TASK]}, "run config key 'task' must be object"),
    ("run", {"bridge": "fast"}, "run config key 'bridge' must be object, got 'fast'"),
    ("run", {"finetune": None}, "run config key 'finetune' must be object, got None"),
    ("run", {"task": {"n_overlap": 5}}, "task 'kind'"),
    ("suite", {"base": 5}, "suite config key 'base' must be object, got 5"),
    ("suite", {"base": {"task": 5, "method": "tgt"}}, "suite base key 'task' must be object"),
    ("suite", {"base": {"task": SMOKE_TASK, "method": "tgt", "pretrain": []}},
     "suite base key 'pretrain' must be object, got []"),
], ids=["task-int", "task-list", "stage-str", "stage-null", "task-no-kind", "base-int",
        "base-task-int", "base-stage-list"])
def test_blocks_that_are_not_objects_name_their_key(tmp_path, capsys, monkeypatch,
                                                    command, config, message):
    _no_training(monkeypatch)
    if command == "run":
        cfg = _run_config(tmp_path, **config)
    else:
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({**config, "methods": ["tgt"]}))
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def _left_at_default(obj, where="plan"):
    """Paths of the fields of a dataclass, and of the dataclasses it holds, that equal
    their default."""
    found = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            found += _left_at_default(value, f"{where}.{f.name}")
        elif f.default is not dataclasses.MISSING and value == f.default:
            found.append(f"{where}.{f.name}")
    return found


def _stage(lr, epochs, batch_size, patience):
    return {"lr": lr, "epochs": epochs, "batch_size": batch_size, "patience": patience}


@pytest.mark.parametrize("config, expected", [
    ({"task": {"kind": "synthetic", "n_users_src": 120, "n_users_tgt": 110, "n_overlap": 90,
               "n_items_src": 60, "n_items_tgt": 50, "k_true": 3, "ratings_per_user": 8,
               "noise_sd": 0.2, "bridge_family": "shared_linear", "n_clusters": 2,
               "selection_sharpness": 1.5, "identity_bridge": True},
      "method": "emcdr", "base_model": "gmf", "beta": 0.4, "seed": 7, "k": 5,
      "activation": "tanh", "pretrain": _stage(0.003, 4, 64, 2),
      "bridge": _stage(0.02, 5, 32, 1), "finetune": _stage(0.1, 6, 16, 0),
      "max_seq_len": 8, "finetune_items": True, "allow_off_grid_lr": True},
     ExperimentPlan(
         task=SyntheticTask(SyntheticSpec(120, 110, 90, 60, 50, 3, 8, 0.2, "shared_linear", 2,
                                          1.5, True)),
         method="emcdr", base_model="gmf", beta=0.4, seed=7, k=5, activation="tanh",
         pretrain=TrainConfig(0.003, 4, 64, 2), bridge=TrainConfig(0.02, 5, 32, 1),
         finetune=TrainConfig(0.1, 6, 16, 0), max_seq_len=8, finetune_items=True,
         allow_off_grid_lr=True)),
    ({"task": {"kind": "amazon", "src_path": "books.csv", "tgt_path": "movies.jsonl",
               "format": "jsonl", "name": "books->movies"},
      "method": "ptupcdr_mapping_ablation", "base_model": "two_tower", "beta": 0.5, "seed": 2,
      "k": 3, "activation": "tanh", "pretrain": _stage(0.005, 2, 8, 3),
      "bridge": _stage(0.001, 3, 4, 4), "finetune": _stage(0.02, 1, 2, 5),
      "max_seq_len": None, "finetune_items": True, "allow_off_grid_lr": True},
     ExperimentPlan(
         task=AmazonTask("books.csv", "movies.jsonl", "jsonl", "books->movies"),
         method="ptupcdr_mapping_ablation", base_model="two_tower", beta=0.5, seed=2, k=3,
         activation="tanh", pretrain=TrainConfig(0.005, 2, 8, 3),
         bridge=TrainConfig(0.001, 3, 4, 4), finetune=TrainConfig(0.02, 1, 2, 5),
         max_seq_len=None, finetune_items=True, allow_off_grid_lr=True)),
], ids=["synthetic", "amazon"])
def test_every_plan_field_can_be_set_from_a_run_config(config, expected):
    assert _left_at_default(expected) == []
    assert build_plan(config) == expected


@pytest.mark.parametrize("command, value", [("run", 0), ("run", -3), ("export", 0),
                                            ("suite", -3)])
def test_max_seq_len_below_one_is_rejected_before_training(tmp_path, capsys, monkeypatch,
                                                           command, value):
    _no_training(monkeypatch)
    if command == "suite":
        cfg = _suite_config(tmp_path, ["ptupcdr"], max_seq_len=value)
    else:
        cfg = _run_config(tmp_path, max_seq_len=value)
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"max_seq_len must be None or >= 1, got {value}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lr", [-0.01, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_lr_is_rejected(tmp_path, capsys, monkeypatch, lr):
    with pytest.raises(ValueError, match="lr must be finite and >= 0"):
        TrainConfig(lr=lr)
    _no_training(monkeypatch)
    # json writes nan and inf as NaN and Infinity, which json.loads reads back
    cfg = _run_config(tmp_path, allow_off_grid_lr=True, bridge={"lr": lr, "epochs": 2})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    # the config check rejects a non-finite value before TrainConfig sees it
    message = ("lr must be finite and >= 0" if math.isfinite(lr)
               else f"bridge key 'lr' must be float, got {lr!r}")
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["methods", "betas", "seeds"])
def test_an_empty_sweep_list_is_rejected(tmp_path, capsys, monkeypatch, key):
    base = build_plan(json.loads(_run_config(tmp_path).read_text()))
    with pytest.raises(ValueError, match=f"{key} must be None or a non-empty list"):
        sweep_plans(base, **{key: []})
    _no_training(monkeypatch)
    cfg = _suite_config(tmp_path, ["tgt", "emcdr"])
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: []}))
    assert main(["suite", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be None or a non-empty list")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where, key", [("run config", "beta"), ("pretrain", "lr"),
                                        ("bridge", "lr"), ("finetune", "lr"),
                                        ("task", "noise_sd"), ("task", "selection_sharpness")],
                         ids=["beta", "pretrain-lr", "bridge-lr", "finetune-lr", "noise_sd",
                              "selection_sharpness"])
def test_non_finite_float_values_are_rejected(tmp_path, capsys, monkeypatch, where, key, value):
    _no_training(monkeypatch)
    if where == "run config":
        overrides = {key: value}
    elif where == "task":
        overrides = {"task": {**SMOKE_TASK, key: value}}
    else:
        overrides = {where: {"lr": value, "epochs": 2}}
    # json writes nan and inf as NaN and Infinity, which json.loads reads back
    cfg = _run_config(tmp_path, allow_off_grid_lr=True, **overrides)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} key {key!r} must be float, got {value!r}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "suite"])
def test_a_negative_n_overlap_is_rejected_before_any_output(tmp_path, capsys, monkeypatch,
                                                            command):
    _no_training(monkeypatch)
    task = {**SMOKE_TASK, "n_overlap": -2}
    if command == "run":
        cfg = _run_config(tmp_path, task=task)
    else:
        cfg = _suite_config(tmp_path, ["tgt"], task=task)
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_overlap must be >= 0, got -2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["run-config", "run-flag", "suite-config", "suite-flag",
                                  "prepare-flag"])
def test_a_negative_seed_is_rejected_before_any_output(tmp_path, capsys, monkeypatch,
                                                      pair_csvs, case):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentPlan(task=SyntheticTask(SyntheticSpec()), method="tgt", seed=-1)
    _no_training(monkeypatch)

    def no_loading(*args, **kwargs):
        raise PlanRan

    monkeypatch.setattr("bridgerec.cli.load_domain", no_loading)
    command, where = case.split("-")
    if command == "run":
        cfg = _run_config(tmp_path, **({"seed": -1} if where == "config" else {}))
    elif command == "suite":
        cfg = _suite_config(tmp_path, ["tgt", "emcdr"])
        if where == "config":
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seeds": [0, -1]}))
    argv = ([command, *map(str, pair_csvs), "--beta", "0.4"] if command == "prepare"
            else [command, str(cfg)])
    if where == "flag":
        argv += ["--seed", "-1"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0, got -1" in err
    assert not (tmp_path / "out").exists()
