import json
import time

import pytest

from bridgerec.cli import main
from bridgerec.models import DomainModel, TrainConfig, save_model
from bridgerec.pipeline import BASE_MODELS, METHODS
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


def _suite_config(tmp_path, methods, **base):
    suite = {"base": {"task": SMOKE_TASK, "method": "tgt", "k": 4, "beta": 0.2, **base,
                      "pretrain": {"lr": 0.01, "epochs": 3},
                      "bridge": {"lr": 0.01, "epochs": 3},
                      "finetune": {"lr": 0.01, "epochs": 3}},
             "methods": methods}
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
], ids=["run-stage", "run-checkpoint_dir", "export-stage", "suite-stage",
        "suite-checkpoint_dir", "suite-save_checkpoints", "suite-out_dir",
        "suite-record_runtime"])
def test_config_values_that_would_be_ignored_are_rejected(tmp_path, capsys, monkeypatch,
                                                          command, overrides, message):
    _no_training(monkeypatch)
    if command == "suite":
        cfg = _suite_config(tmp_path, ["emcdr"], **overrides)
    else:
        cfg = _run_config(tmp_path, **overrides)
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
