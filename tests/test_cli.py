import dataclasses
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bridgerec import checkpoint, pipeline
from bridgerec.cli import build_plan, main
from bridgerec.data import FORMATS, load_dataset
from bridgerec.models import DomainModel, TrainConfig, save_model
from bridgerec.pipeline import (BASE_MODELS, METHODS, AmazonTask, ExperimentPlan, SyntheticSpec,
                                SyntheticTask, sweep_plans)
from bridgerec.checkpoint import load_tensors, save_tensors
from conftest import edit_checkpoint

SMOKE_TASK = {"kind": "synthetic", "n_users_src": 200, "n_users_tgt": 200,
              "n_overlap": 140, "n_items_src": 80, "n_items_tgt": 80,
              "k_true": 4, "ratings_per_user": 12}


def _run_config(tmp_path, without=(), **overrides):
    cfg = {"task": SMOKE_TASK, "method": "ptupcdr", "k": 4, "beta": 0.2, "seed": 3,
           "pretrain": {"lr": 0.01, "epochs": 30},
           "bridge": {"lr": 0.01, "epochs": 20},
           "finetune": {"lr": 0.01, "epochs": 30}}
    cfg = {key: value for key, value in cfg.items() if key not in without}
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


@pytest.mark.parametrize("fmt", FORMATS)
def test_prepare_takes_every_format_load_domain_does(tmp_path, pair_csvs, fmt):
    # the logs get a suffix that infers nothing, so only --format names their format
    logs = []
    for path in pair_csvs:
        log = tmp_path / f"{path.stem}.log"
        if fmt == "csv":
            shutil.copy(path, log)
        else:
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            log.write_text("".join(json.dumps({"reviewerID": u, "asin": i, "overall": float(r),
                                               "unixReviewTime": int(t)}) + "\n"
                                   for u, i, r, t in rows))
        logs.append(str(log))
    for argv, out in ((map(str, pair_csvs), "csv"), ([*logs, "--format", fmt], "flag")):
        assert main(["prepare", *argv, "--beta", "0.4", "--out-dir", str(tmp_path / out)]) == 0
    assert (tmp_path / "flag" / "split.json").read_bytes() == \
        (tmp_path / "csv" / "split.json").read_bytes()


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


def test_prepare_reports_a_csv_field_over_the_size_limit(tmp_path, pair_csvs, capsys):
    _, tgt = pair_csvs
    src = tmp_path / "src.csv"
    src.write_text("user,item,rating,timestamp\nu1,s0,4.0,1\nu2," + "s" * 200_000 + ",3.0,2\n")
    rc = main(["prepare", str(src), str(tgt), "--beta", "0.4", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: line 3: field larger than field limit" in err
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
    cfg = _run_config(tmp_path, method="tgt", without=("bridge",),
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
    cfg = _run_config(tmp_path, method="tgt", without=("bridge",), out_dir=str(tmp_path / "a"))
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


@pytest.mark.parametrize("method", ["tgt", "cmf"])
def test_meta_only_needs_a_method_with_a_bridge_stage(tmp_path, capsys, monkeypatch, method):
    _no_training(monkeypatch)
    cfg = _run_config(tmp_path, method=method, without=("bridge",), stage="meta_only",
                      checkpoint_dir=str(tmp_path / "nowhere"))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"stage 'meta_only' does not apply to method {method!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # a k that is not an int >= 1 is an unreadable checkpoint, not a traceback
    ("k-float", {}, "has k 4.0, expected an int >= 1"),
    ("k-str", {}, "has k '4', expected an int >= 1"),
    ("k-zero", {}, "has k 0, expected an int >= 1"),
], ids=["head", "k", "name", "shape", "meta", "k-float", "k-str", "k-zero"])
def test_run_meta_only_rejects_checkpoints_that_disagree(tmp_path, capsys, monkeypatch,
                                                         case, overrides, message):
    # each model records the config's plan, so the head and k cases reach the check of
    # the model file itself, which a file replaced from outside the program can fail
    _no_training(monkeypatch)
    ckpt = tmp_path / "ckpt"
    cfg = _run_config(tmp_path, **{"base_model": "two_tower", "stage": "meta_only",
                                   "checkpoint_dir": str(ckpt), **overrides})
    records = pipeline._records(build_plan(json.loads(cfg.read_text())))
    for name in ("src_model", "tgt_model"):
        save_model(ckpt / name, DomainModel(5, 6, 4, "two_tower"), {"built_from": records[name]})
    if case in ("name", "shape", "meta"):
        edit_checkpoint(ckpt / "tgt_model", "domain_model",
                        "k" if case == "meta" else "item_net.W1", case)
    elif case.startswith("k-"):
        bad_k = {"k-float": 4.0, "k-str": "4", "k-zero": 0}[case]
        edit_checkpoint(ckpt / "tgt_model", "domain_model", "k", "meta_value", bad_k)
        message = (f"tgt_model checkpoint in {ckpt} is unreadable: "
                   f"checkpoint at {ckpt / 'tgt_model'} {message}")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# meta_only reads the domains its checkpoints were trained on

FAST = {"task": SMOKE_TASK, "method": "ptupcdr", "k": 4, "beta": 0.2, "seed": 3,
        "pretrain": {"lr": 0.01, "epochs": 5}, "bridge": {"lr": 0.01, "epochs": 3},
        "finetune": {"lr": 0.01, "epochs": 5}}


def _write_smoke_logs(log_dir):
    """The SMOKE_TASK world's two domains as csv logs; returns their paths by side."""
    spec = SyntheticSpec(**{k: v for k, v in SMOKE_TASK.items() if k != "kind"})
    log_dir.mkdir()
    paths = {}
    for side, ds in zip(("src", "tgt"), pipeline.generate_synthetic(spec, 0)[:2]):
        rows = zip(ds.user_idx.tolist(), ds.item_idx.tolist(), ds.rating.tolist(),
                   ds.timestamp.tolist())
        paths[side] = log_dir / f"{side}.csv"
        paths[side].write_text("user,item,rating,timestamp\n" + "".join(
            f"{ds.users.external(u)},{ds.items.external(i)},{r!r},{t}\n" for u, i, r, t in rows))
    return paths


def _file_task(logs):
    return {"kind": "amazon", "src_path": str(logs["src"]), "tgt_path": str(logs["tgt"])}


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """Per task kind, a ptupcdr run that saved checkpoints: (its config, its
    checkpoint dir, its report rows); the files task also gives its logs."""
    root = tmp_path_factory.mktemp("checkpointed")
    logs = _write_smoke_logs(root / "logs")
    runs = {}
    for kind, task in (("files", _file_task(logs)), ("synthetic", SMOKE_TASK)):
        cfg, out = {**FAST, "task": task}, root / kind
        path = root / f"{kind}.json"
        path.write_text(json.dumps({**cfg, "save_checkpoints": True}))
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        runs[kind] = cfg, out / "checkpoints", json.loads((out / "report.json").read_text())
    runs["logs"] = logs
    return runs


def _meta_only_config(tmp_path, cfg, ckpt, **overrides):
    path = tmp_path / "meta_only.json"
    path.write_text(json.dumps({**cfg, "stage": "meta_only", "checkpoint_dir": str(ckpt),
                                **overrides}))
    return path


def _rejected(tmp_path, capsys, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["files", "synthetic"])
def test_meta_only_reads_its_domains_from_the_checkpoints(tmp_path, monkeypatch, checkpointed,
                                                          kind):
    cfg, ckpt, full = checkpointed[kind]

    def parsed(*args, **kwargs):
        raise AssertionError("a meta_only run loaded or generated a domain")

    for name in ("bridgerec.pipeline.load_domain", "bridgerec.pipeline.generate_synthetic"):
        monkeypatch.setattr(name, parsed)
    path = _meta_only_config(tmp_path, cfg, ckpt)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "run")]) == 0
    again = json.loads((tmp_path / "run" / "report.json").read_text())
    assert ([(r["stage"], r["mae"], r["rmse"]) for r in again]
            == [(r["stage"], r["mae"], r["rmse"]) for r in full])
    assert main(["export", str(path), "--out-dir", str(tmp_path / "export")]) == 0
    for name in ("attention.csv", "embeddings.csv"):
        assert (tmp_path / "export" / name).read_text().count("\n") > 1


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_meta_only_rejects_a_log_edited_after_checkpointing(tmp_path, capsys, checkpointed,
                                                           side):
    cfg, ckpt, _ = checkpointed["files"]
    logs = dict(checkpointed["logs"])
    lines = logs[side].read_text().splitlines(keepends=True)
    user, item, rating, ts = lines[1].split(",")
    lines[1] = ",".join((user, item, "1.5" if rating != "1.5" else "2.5", ts))
    logs[side] = tmp_path / f"{side}.csv"
    logs[side].write_text("".join(lines))
    path = _meta_only_config(tmp_path, {**cfg, "task": _file_task(logs)}, ckpt)
    _rejected(tmp_path, capsys, ["run", str(path)],
              f"{side}_model checkpoint in {ckpt} was built from source ")


@pytest.mark.parametrize("side", ["src", "tgt"])
@pytest.mark.parametrize("case", ["missing", "truncated"])
def test_meta_only_rejects_a_missing_or_truncated_domain_checkpoint(tmp_path, capsys,
                                                                    checkpointed, side, case):
    cfg, ckpt, _ = checkpointed["files"]
    copy = tmp_path / "ckpt"
    shutil.copytree(ckpt, copy)
    blob = copy / f"{side}_domain.bin"
    if case == "missing":
        blob.unlink()
    else:
        blob.write_bytes(blob.read_bytes()[:-8])
    message = (f"missing checkpoint artifact for {side}_domain" if case == "missing"
               else f"{side}_domain checkpoint in {copy} is unreadable")
    _rejected(tmp_path, capsys, ["run", str(_meta_only_config(tmp_path, cfg, copy))], message)


@pytest.mark.parametrize("name", ["src_model", "tgt_model"])
def test_meta_only_names_a_truncated_model_checkpoint(tmp_path, capsys, checkpointed, name):
    cfg, ckpt, _ = checkpointed["files"]
    copy = tmp_path / "ckpt"
    shutil.copytree(ckpt, copy)
    blob = copy / f"{name}.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    _rejected(tmp_path, capsys, ["run", str(_meta_only_config(tmp_path, cfg, copy))],
              f"{name} checkpoint in {copy} is unreadable: checkpoint blob size")


def test_meta_only_names_the_first_broken_checkpoint_in_load_order(tmp_path, capsys,
                                                                   checkpointed):
    cfg, ckpt, _ = checkpointed["files"]
    copy = tmp_path / "ckpt"
    shutil.copytree(ckpt, copy)
    blob = copy / "tgt_model.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    (copy / "src_domain.bin").unlink()
    _rejected(tmp_path, capsys, ["run", str(_meta_only_config(tmp_path, cfg, copy))],
              f"tgt_model checkpoint in {copy} is unreadable: checkpoint blob size")


@pytest.mark.parametrize("side", ["src", "tgt"])
@pytest.mark.parametrize("field", ["users", "items"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_meta_only_rejects_a_model_whose_tables_do_not_fit_its_domain(
        tmp_path, capsys, checkpointed, side, field, delta):
    # a model with too few rows fails on an index, one with too many runs silently
    cfg, ckpt, _ = checkpointed["files"]
    copy = tmp_path / "ckpt"
    shutil.copytree(ckpt, copy)
    ds, _ = load_dataset(copy / f"{side}_domain")
    sizes = {"users": ds.n_users, "items": ds.n_items}
    sizes[field] += delta
    # so the record check passes
    record = load_tensors(copy / f"{side}_model", "domain_model")[1]["built_from"]
    save_model(copy / f"{side}_model", DomainModel(sizes["users"], sizes["items"], cfg["k"]),
               {"built_from": record})
    _rejected(tmp_path, capsys, ["run", str(_meta_only_config(tmp_path, cfg, copy))],
              f"{side}_model checkpoint in {copy} has {sizes['users']} users and "
              f"{sizes['items']} items, but {side}_domain has {ds.n_users} users and "
              f"{ds.n_items} items")


@pytest.mark.parametrize("command", ["run", "export"])
@pytest.mark.parametrize("kind, overrides, flags, asked", [
    ("files", {"seed": 4}, [], "src_model checkpoint in {} was built from seed 3, "
                               "but the config asks for seed 4"),
    ("files", {}, ["--seed", "2"], "src_model checkpoint in {} was built from seed 3, "
                                   "but the config asks for seed 2"),
    ("files", {"beta": 0.3}, [], "tgt_model checkpoint in {} was built from beta 0.2, "
                                 "but the config asks for beta 0.3"),
    ("synthetic", {}, ["--seed", "2"], "src_model checkpoint in {} was built from seed 3, "
                                       "but the config asks for seed 2"),
], ids=["config-seed", "flag-seed", "beta", "synthetic-flag-seed"])
def test_meta_only_rejects_another_beta_or_seed(tmp_path, capsys, checkpointed, command,
                                                kind, overrides, flags, asked):
    # another split would put target ratings that trained tgt_model into the test set
    cfg, ckpt, _ = checkpointed[kind]
    path = _meta_only_config(tmp_path, cfg, ckpt, **overrides)
    _rejected(tmp_path, capsys, [command, str(path), *flags], asked.format(ckpt))


@pytest.mark.parametrize("command", ["run", "export"])
@pytest.mark.parametrize("changed, message", [
    ("seed", "seed 4, but the config asks for seed 3"), ("split_source", "split_source ")])
def test_meta_only_rejects_a_target_model_a_later_run_saved_for_another_split(
        tmp_path, capsys, checkpointed, command, changed, message):
    # another seed, or a source log with other overlap users, splits the target ratings
    # otherwise: the later tgt_model trained on target ratings of this split's test users
    cfg, ckpt, _ = checkpointed["files"]
    out = tmp_path / "saved"
    shutil.copytree(ckpt.parent, out)
    later = {key: value for key, value in cfg.items() if key != "bridge"}
    if changed == "seed":
        later["seed"] = 4
    else:  # the source log without its first user
        logs = dict(checkpointed["logs"])
        lines = logs["src"].read_text().splitlines(keepends=True)
        first = lines[1].split(",")[0]
        logs["src"] = tmp_path / "src.csv"
        logs["src"].write_text("".join(line for line in lines
                                       if not line.startswith(f"{first},")))
        later["task"] = _file_task(logs)
    tgt = tmp_path / "tgt.json"
    tgt.write_text(json.dumps({**later, "method": "tgt", "save_checkpoints": True}))
    assert main(["run", str(tgt), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    path = _meta_only_config(tmp_path, cfg, out / "checkpoints")
    _rejected(tmp_path, capsys, [command, str(path)],
              f"tgt_model checkpoint in {out / 'checkpoints'} was built from {message}")


@pytest.mark.parametrize("command", ["run", "export"])
@pytest.mark.parametrize("key, value", [("pretrain", {"lr": 0.01, "epochs": 6}),
                                        ("base_model", "gmf"), ("k", 3)])
def test_meta_only_rejects_a_config_its_models_were_not_built_from(tmp_path, capsys,
                                                                   checkpointed, command,
                                                                   key, value):
    cfg, ckpt, _ = checkpointed["files"]
    path = _meta_only_config(tmp_path, cfg, ckpt, **{key: value})
    _rejected(tmp_path, capsys, [command, str(path)],
              f"src_model checkpoint in {ckpt} was built from {key} ")


@pytest.mark.parametrize("command", ["run", "export"])
def test_a_refused_dict_field_prints_both_sides_in_one_key_order(tmp_path, capsys,
                                                                  checkpointed, command):
    cfg, ckpt, _ = checkpointed["files"]
    path = _meta_only_config(tmp_path, cfg, ckpt, pretrain={"lr": 0.01, "epochs": 6})
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    saved, asked = re.fullmatch(r"error: src_model checkpoint in .* was built from pretrain "
                                r"(\{.*\}), but the config asks for pretrain (\{.*\})\n",
                                capsys.readouterr().err).groups()
    assert saved == "{'batch_size': 512, 'epochs': 5, 'lr': 0.01, 'patience': None}"
    assert asked == saved.replace("'epochs': 5", "'epochs': 6")


def test_a_record_mismatch_sorts_nested_dict_keys_on_both_sides():
    saved = {"source": {"spec": {"n": 1, "beta": {"y": 2, "x": 1}}, "data_seed": 0}}
    asked = {"source": {"data_seed": 0, "spec": {"beta": {"x": 1, "y": 3}, "n": 1}}}
    assert pipeline._record_mismatch({"built_from": saved}, asked) == (
        "source {'data_seed': 0, 'spec': {'beta': {'x': 1, 'y': 2}, 'n': 1}}, but the config "
        "asks for source {'data_seed': 0, 'spec': {'beta': {'x': 1, 'y': 3}, 'n': 1}}")


def test_checkpointing_and_meta_only_commands_hash_each_log_once(tmp_path, monkeypatch,
                                                                  checkpointed):
    cfg, _, _ = checkpointed["files"]
    hashed = []

    def counted(path, fmt=None, _fn=pipeline.log_source):
        hashed.append(Path(path).name)
        return _fn(path, fmt)

    monkeypatch.setattr(pipeline, "log_source", counted)
    saving = tmp_path / "saving.json"
    saving.write_text(json.dumps({**cfg, "save_checkpoints": True}))
    path = _meta_only_config(tmp_path, cfg, tmp_path / "saved" / "checkpoints")
    for command, config, out in (("run", saving, "saved"), ("run", path, "run"),
                                 ("export", path, "export")):
        hashed.clear()
        assert main([command, str(config), "--out-dir", str(tmp_path / out)]) == 0
        assert sorted(hashed) == ["src.csv", "tgt.csv"], (command, config)


# ---------------------------------------------------------------------------
# a meta_only export takes the bridge its checkpoints hold

TRAIN_BRIDGE = ("train_meta", "train_meta_mapping", "train_common_bridge")
BRIDGE_FILE = {"ptupcdr": "bridge_nets", "ptupcdr_mapping_ablation": "bridge_nets",
               "emcdr": "common_bridge"}


def _export(tmp_path, cfg, name, **overrides):
    """Export both files (embeddings only for emcdr) into tmp_path/name; their contents."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, **overrides}))
    what = "embeddings" if cfg["method"] == "emcdr" else "both"
    assert main(["export", str(path), "--what", what, "--out-dir", str(tmp_path / name)]) == 0
    return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}


@pytest.fixture(scope="module")
def saved_transfers(tmp_path_factory):
    """Per bridge method, (its config, the checkpoint dir of a run that saved checkpoints,
    the files of a stage-full export)."""
    root = tmp_path_factory.mktemp("saved_transfers")
    runs = {}
    for method in BRIDGE_FILE:
        cfg = {**FAST, "method": method}
        path = root / f"{method}.json"
        path.write_text(json.dumps({**cfg, "save_checkpoints": True}))
        assert main(["run", str(path), "--out-dir", str(root / method)]) == 0
        runs[method] = cfg, root / method / "checkpoints", _export(root, cfg, f"{method}-full")
    return runs


def _count_bridge_training(monkeypatch, allowed=True):
    """Wrap the bridge-stage trainers ``pipeline`` calls; the dict counts their calls.
    With ``allowed`` false a call is an AssertionError instead."""
    calls = {}
    for name in TRAIN_BRIDGE:
        def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            if not allowed:
                raise AssertionError(f"{_name} ran")
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize("method", list(BRIDGE_FILE))
def test_meta_only_export_takes_the_saved_bridge(tmp_path, monkeypatch, saved_transfers,
                                                 method):
    cfg, ckpt, full = saved_transfers[method]
    _count_bridge_training(monkeypatch, allowed=False)
    assert _export(tmp_path, cfg, "meta_only", stage="meta_only",
                   checkpoint_dir=str(ckpt)) == full


@pytest.mark.parametrize("method", list(BRIDGE_FILE))
@pytest.mark.parametrize("case", ["bridge_block", "no_record", "other_model", "truncated"])
def test_meta_only_export_trains_a_bridge_saved_for_another_plan(tmp_path, monkeypatch, caplog,
                                                                 saved_transfers, method, case):
    cfg, ckpt, full = saved_transfers[method]
    copy = tmp_path / "ckpt"
    shutil.copytree(ckpt, copy)
    overrides = {"stage": "meta_only", "checkpoint_dir": str(copy)}
    prefix = copy / BRIDGE_FILE[method]
    if case == "bridge_block":
        overrides["bridge"] = {**cfg["bridge"], "epochs": cfg["bridge"]["epochs"] + 1}
    elif case == "no_record":  # as written before bridges recorded their plan
        edit_checkpoint(prefix, prefix.name, "built_from", "meta")
    elif case == "other_model":  # a later run overwrote the target model in place
        tensors, meta = load_tensors(copy / "tgt_model", "domain_model")
        tensors["users"][0, 0] += 1.0
        save_tensors(copy / "tgt_model", "domain_model", tensors, meta)
    else:
        blob = prefix.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:-8])
    calls = _count_bridge_training(monkeypatch)
    files = _export(tmp_path, cfg, "meta_only", **overrides)
    assert sum(calls.values()) == 1
    if case in ("no_record", "truncated"):  # the models are the saved ones: same files
        assert files == full
    assert ("is unreadable, so the bridge stage trains again" in caplog.text) == (
        case == "truncated")


@pytest.mark.parametrize("method", list(BRIDGE_FILE))
def test_meta_only_run_trains_its_bridge_stage(tmp_path, monkeypatch, saved_transfers, method):
    cfg, ckpt, _ = saved_transfers[method]
    calls = _count_bridge_training(monkeypatch)
    path = _meta_only_config(tmp_path, cfg, ckpt)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "run")]) == 0
    assert sum(calls.values()) == 1
    assert (tmp_path / "run" / "bridge_trace.csv").exists()


@pytest.mark.parametrize("method", list(BRIDGE_FILE))
def test_meta_only_commands_parse_each_manifest_once(tmp_path, monkeypatch, saved_transfers,
                                                     method):
    cfg, ckpt, full = saved_transfers[method]
    parsed = []

    def counted(prefix, _fn=checkpoint._manifest):
        parsed.append(prefix.name)
        return _fn(prefix)

    monkeypatch.setattr(checkpoint, "_manifest", counted)
    models = ["src_domain", "src_model", "tgt_domain", "tgt_model"]
    assert main(["run", str(_meta_only_config(tmp_path, cfg, ckpt)),
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert sorted(parsed) == models
    parsed.clear()
    assert _export(tmp_path, cfg, "export", stage="meta_only", checkpoint_dir=str(ckpt)) == full
    assert sorted(parsed) == sorted([*models, BRIDGE_FILE[method]])


def test_a_saved_bridge_records_the_plan_that_trained_it(saved_transfers):
    for method, (cfg, ckpt, _) in saved_transfers.items():
        record = load_tensors(ckpt / BRIDGE_FILE[method], BRIDGE_FILE[method])[1]["built_from"]
        assert {key: record[key] for key in ("method", "k", "beta", "seed", "bridge")} == {
            "method": method, "k": 4, "beta": 0.2, "seed": 3,
            "bridge": {"lr": 0.01, "epochs": 3, "batch_size": 512, "patience": None}}
        assert (record["base_model"], record["activation"], record["max_seq_len"]) == (
            "mf", "relu", 20)
        assert len(record["models"]) == 64  # a sha256 of the two models


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
    cfg = _run_config(tmp_path, method="tgt", without=("bridge",))
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


def test_a_run_that_fails_in_its_plan_leaves_no_output_directory(tmp_path, capsys):
    # the sharpness leaves every user one item to draw, so the world cannot be drawn
    cfg = _run_config(tmp_path, task={**SMOKE_TASK, "selection_sharpness": 1e6})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "fewer than ratings_per_user=12 items to draw from" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# the method-dependent keys each method reads: cmf trains an mf model of its own, and a
# method that reads base_model also reads activation (its towers) when it is two_tower
READS = {"tgt": {"base_model"}, "cmf": set(), "emcdr": {"base_model", "bridge"},
         **dict.fromkeys(("ptupcdr", "ptupcdr_mapping_ablation"),
                         {"base_model", "bridge", "max_seq_len", "activation"})}
# a value other than the default for each of those keys but base_model
KEY_VALUES = {"activation": "tanh", "bridge": {"lr": 0.01, "epochs": 2}, "max_seq_len": 5}


def _plan_reads(method, base_model):
    two_tower = "base_model" in READS[method] and base_model == "two_tower"
    return READS[method] | ({"activation"} if two_tower else set())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("base_model", BASE_MODELS)
def test_run_accepts_activation_exactly_when_the_plan_builds_a_net(
        tmp_path, capsys, monkeypatch, method, base_model):
    """Every method-dependent key, activation among them: run and export take it exactly
    when the plan reads it, and otherwise exit 1 before any output."""
    _no_training(monkeypatch)
    for key in ("base_model", *KEY_VALUES):
        keys = {key: KEY_VALUES[key]} if key in KEY_VALUES else {}
        if key == "base_model" or "base_model" in READS[method]:
            keys["base_model"] = base_model
        cfg = _run_config(tmp_path, method=method, without=("bridge",), **keys)
        for command in (["run"], ["export", "--what", "embeddings"]):
            out = tmp_path / f"{command[0]}-{key}"
            if key in _plan_reads(method, base_model):
                with pytest.raises(PlanRan):
                    main([*command, str(cfg), "--out-dir", str(out)])
            else:
                assert main([*command, str(cfg), "--out-dir", str(out)]) == 1
                assert capsys.readouterr().err.startswith(f"error: {key} has no effect: ")
                assert not out.exists()


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


def _suite_config(tmp_path, methods, suite_keys=None, without=(), **base):
    stages = {"pretrain": {"lr": 0.01, "epochs": 3},
              "bridge": {"lr": 0.01, "epochs": 3},
              "finetune": {"lr": 0.01, "epochs": 3}}
    suite = {"base": {"task": SMOKE_TASK, "method": "tgt", "k": 4, "beta": 0.2, **base,
                      **{key: value for key, value in stages.items() if key not in without}},
             "methods": methods, **(suite_keys or {})}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return path


def test_suite_activation_needs_one_plan_with_a_net(tmp_path, capsys, monkeypatch):
    """A suite base may hold a method-dependent key, activation among them, exactly when
    one plan of the sweep reads it."""
    out = tmp_path / "out"
    cfg = _suite_config(tmp_path, ["tgt", "ptupcdr"], activation="tanh")
    assert main(["suite", str(cfg), "--out-dir", str(out)]) == 0
    assert [r["stage"] for r in json.loads((out / "suite.json").read_text())] == \
        ["cold", "warm"] * 2
    capsys.readouterr()

    def ran(*args, **kwargs):
        raise PlanRan

    monkeypatch.setattr("bridgerec.cli.run_suite", ran)
    for key in ("base_model", *KEY_VALUES):
        keys = {key: KEY_VALUES.get(key, "gmf")}
        readers = [m for m in METHODS if key in READS[m]]
        others = [m for m in METHODS if key not in READS[m]]
        cfg = _suite_config(tmp_path, [*others, readers[0]], without=("bridge",), **keys)
        with pytest.raises(PlanRan):
            main(["suite", str(cfg), "--out-dir", str(tmp_path / f"{key}-accepted")])
        cfg = _suite_config(tmp_path, others, without=("bridge",), **keys)
        assert main(["suite", str(cfg), "--out-dir", str(tmp_path / f"{key}-rejected")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} has no effect: ")
        assert not (tmp_path / f"{key}-rejected").exists()
    # a two_tower base model's towers read activation in every method that reads base_model
    cfg = _suite_config(tmp_path, ["tgt"], without=("bridge",), base_model="two_tower",
                        activation="tanh")
    with pytest.raises(PlanRan):
        main(["suite", str(cfg), "--out-dir", str(tmp_path / "two_tower")])


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


def test_readme_lists_the_keys_each_method_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| method | keys it reads |\n|---|---|\n")[1].split("\n\n")[0]
    table = {}
    for row in rows.splitlines():
        method, keys = row.strip("|").split("|")
        table[method.strip().strip("`")] = set(re.findall(r"`(\w+)`", keys))
    assert list(table) == list(METHODS)
    assert table == pipeline.METHOD_FIELDS


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


@pytest.mark.parametrize("key, values", [("methods", ["tgt", "emcdr", "tgt"]),
                                         ("betas", [0.2, 0.2]), ("seeds", [1, 1])])
def test_a_sweep_list_that_repeats_a_value_is_rejected(tmp_path, capsys, monkeypatch, key,
                                                       values):
    # each copy would run the same plan again, and its mean row would average the copies
    base = build_plan(json.loads(_run_config(tmp_path).read_text()))
    message = f"{key} must not repeat a value, got {values}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_plans(base, **{key: values})
    _no_training(monkeypatch)
    cfg = _suite_config(tmp_path, ["tgt", "emcdr"])
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: values}))
    assert main(["suite", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
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


@pytest.mark.parametrize("sharpness", [1e6, 1e308])
def test_a_degenerate_selection_sharpness_is_one_error_naming_the_field(tmp_path, capsys,
                                                                         sharpness):
    # 1e6 leaves a user one item with non-zero probability; 1e308 overflows the scores
    cfg = _run_config(tmp_path, task={**SMOKE_TASK, "selection_sharpness": sharpness})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: selection_sharpness {sharpness} leaves user ou00000 fewer than "
        f"ratings_per_user={SMOKE_TASK['ratings_per_user']} items to draw from\n")


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


@pytest.mark.parametrize("command", ["run", "export", "suite"])
def test_an_unknown_amazon_format_is_rejected_before_any_output(tmp_path, capsys, monkeypatch,
                                                                pair_csvs, command):
    _no_training(monkeypatch)
    task = {"kind": "amazon", "src_path": str(pair_csvs[0]), "tgt_path": str(pair_csvs[1]),
            "format": "xml"}
    if command == "suite":
        cfg = _suite_config(tmp_path, ["tgt"], task=task)
    else:
        cfg = _run_config(tmp_path, task=task)
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: format must be one of ") and "got 'xml'" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# files are UTF-8 whatever the locale

@pytest.mark.parametrize("command", ["run", "suite", "export"])
def test_a_config_that_is_not_utf8_is_a_config_error_naming_the_file(tmp_path, capsys,
                                                                      command):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"task": {"kind": "amazon", "name": "tâche"}}'.encode("latin-1"))
    _rejected(tmp_path, capsys, [command, str(path)],
              f"error: {path}: 'utf-8' codec can't decode byte 0xe2")


def _write_non_ascii_logs(log_dir):
    """A small synthetic world whose user and item ids are not ASCII, as
    books.csv and movies.jsonl (raw UTF-8, not \\u escapes)."""
    spec = SyntheticSpec(n_users_src=60, n_users_tgt=60, n_overlap=45, n_items_src=30,
                         n_items_tgt=30, k_true=3, ratings_per_user=6)
    src, tgt, _ = pipeline.generate_synthetic(spec, seed=4)
    log_dir.mkdir()
    for ds, name in ((src, "books.csv"), (tgt, "movies.jsonl")):
        rows = [("é" + ds.users.external(u), "ü" + ds.items.external(i), r, t)
                for u, i, r, t in zip(ds.user_idx.tolist(), ds.item_idx.tolist(),
                                      ds.rating.tolist(), ds.timestamp.tolist())]
        if name.endswith(".csv"):
            text = "user,item,rating,timestamp\n" + "".join(f"{u},{i},{r!r},{t}\n"
                                                           for u, i, r, t in rows)
        else:
            text = "".join(json.dumps({"reviewerID": u, "asin": i, "overall": r,
                                       "unixReviewTime": t}, ensure_ascii=False) + "\n"
                           for u, i, r, t in rows)
        (log_dir / name).write_text(text, encoding="utf-8")


# an ASCII locale with UTF-8 mode off, and a UTF-8 locale
LOCALES = {"C": {"LC_ALL": "C", "PYTHONUTF8": "0"}, "C.UTF-8": {"LC_ALL": "C.UTF-8"}}


def test_every_command_writes_the_same_files_in_an_ascii_and_a_utf8_locale(tmp_path):
    logs = tmp_path / "logs"
    _write_non_ascii_logs(logs)
    src_log, tgt_log = str(logs / "books.csv"), str(logs / "movies.jsonl")
    plan = {"task": {"kind": "amazon", "src_path": src_log, "tgt_path": tgt_log,
                     "name": "tâche"},
            "method": "ptupcdr", "k": 3, "beta": 0.3, "seed": 1,
            "pretrain": {"lr": 0.01, "epochs": 3}, "bridge": {"lr": 0.01, "epochs": 2},
            "finetune": {"lr": 0.01, "epochs": 2}}
    configs = {"run.json": {**plan, "save_checkpoints": True},
               "meta.json": {**plan, "stage": "meta_only", "checkpoint_dir": "run/checkpoints"},
               "suite.json": {"base": plan, "methods": ["tgt", "ptupcdr"]}}
    commands = [["prepare", src_log, tgt_log, "--beta", "0.3", "--seed", "1",
                 "--out-dir", "prepare"],
                ["run", "run.json", "--out-dir", "run"],
                ["run", "meta.json", "--out-dir", "meta"],
                ["export", "run.json", "--what", "both", "--out-dir", "export"],
                ["suite", "suite.json", "--export-attention", "--out-dir", "suite"]]
    path = [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    files = {}
    for name, settings in LOCALES.items():
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("LC_") and k not in ("LANG", "PYTHONUTF8", "PYTHONIOENCODING")}
        env.update(settings, PYTHONPATH=os.pathsep.join(filter(None, path)))
        side = tmp_path / name
        side.mkdir()
        for config, cfg in configs.items():  # raw UTF-8, as an editor saves it
            (side / config).write_bytes(json.dumps(cfg, ensure_ascii=False).encode("utf-8"))
        for argv in commands:
            proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                                   "-W", "error::EncodingWarning", "-m", "bridgerec.cli", *argv],
                                  cwd=side, env=env, capture_output=True)
            stderr = proc.stderr.decode("utf-8", "replace")
            assert proc.returncode == 0, (name, argv, stderr)
            assert "EncodingWarning" not in stderr
        files[name] = {p.relative_to(side): p.read_bytes()
                       for p in sorted(side.rglob("*")) if p.is_file()}
    ascii_side, utf8_side = files["C"], files["C.UTF-8"]
    assert sorted(ascii_side) == sorted(utf8_side)
    assert [p for p in ascii_side if ascii_side[p] != utf8_side[p]] == []
    assert "tâche".encode() in ascii_side[Path("suite", "suite.csv")]
    for table in ("export/attention.csv", "export/embeddings.csv",
                  "suite/attention_ptupcdr_beta0.3.csv"):
        assert "éou".encode() in ascii_side[Path(table)]
