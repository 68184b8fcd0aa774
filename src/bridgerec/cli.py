"""Command-line entry point: data prep, single runs, suites, artifact export.

Hyperparameters live in json config files; flags cover only paths, seeds and
verbosity. Logs go to stderr, machine-readable outputs to files. The
default output directory comes from --out-dir, then the config, then the
BRIDGEREC_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

from .data import FORMATS, load_domain, make_split, write_csv
from .models import TrainConfig
from .pipeline import (BRIDGE_NET_METHODS, METHOD_FIELDS, AmazonTask, ExperimentPlan,
                       SyntheticSpec, SyntheticTask, load_checkpoints, report_row,
                       run_cold, run_plan, run_suite, save_checkpoints, sweep_plans,
                       write_attention_csv, write_embeddings_csv, write_suite_csv,
                       write_suite_json)

logger = logging.getLogger(__name__)

OUT_DIR_ENV = "BRIDGEREC_OUT_DIR"

_STAGES = ("pretrain", "bridge", "finetune")


def _annotations(cls) -> dict[str, str]:
    return {f.name: f.type for f in dataclasses.fields(cls)}


# one schema per config level: config key -> annotation of the value it takes, as
# written on the dataclass field; an "object" is a block with a schema of its own
_TRAIN_SCHEMA = _annotations(TrainConfig)
_SYNTH_SCHEMA = {"kind": "str", **_annotations(SyntheticSpec)}
_AMAZON_SCHEMA = {"kind": "str", **{("format" if k == "fmt" else k): t
                                    for k, t in _annotations(AmazonTask).items()}}
_PLAN_SCHEMA = {**_annotations(ExperimentPlan), "task": "object",
                **dict.fromkeys(_STAGES, "object")}
_RUN_SCHEMA = {**_PLAN_SCHEMA, "stage": "str", "checkpoint_dir": "str",
               "save_checkpoints": "bool", "out_dir": "str | None", "record_runtime": "bool"}
_SUITE_SCHEMA = {"base": "object", "methods": "list[str] | None",
                 "betas": "list[float] | None", "seeds": "list[int] | None",
                 "parallelism": "int", "record_runtime": "bool", "out_dir": "str | None",
                 "export_attention": "bool"}
_METHOD_KEYS = set().union(*METHOD_FIELDS.values())
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "object": dict}


class ConfigError(ValueError):
    pass


def _fits(value, annotation: str) -> bool:
    """Whether a json value fits an annotation such as "int | None" or "list[float]".
    A bool fits only "bool"; an int fits "int" and "float", a finite float only
    "float", and NaN or Infinity nothing."""
    kinds = annotation.split(" | ")
    if value is None or isinstance(value, bool):
        return ("None" if value is None else "bool") in kinds
    if isinstance(value, list):
        return any(k.startswith("list[") and all(_fits(v, k[5:-1]) for v in value)
                   for k in kinds)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return any(isinstance(value, _JSON_TYPES[k]) for k in kinds if k in _JSON_TYPES)


def _check(d, schema: dict[str, str], where: str) -> None:
    """Reject, in this order, a block that is not an object, a key ``schema`` lacks and
    a value that does not fit its key's annotation."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d).difference(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in d.items():
        if not _fits(value, schema[key]):
            raise ConfigError(f"{where} key {key!r} must be {schema[key]}, got {value!r}")


def _parse_train(d: dict, where: str) -> TrainConfig:
    if "activation" in d:
        raise ConfigError(f"activation is not a {where} setting; set the top-level 'activation'")
    _check(d, _TRAIN_SCHEMA, where)
    return TrainConfig(**d)


def _parse_task(d: dict):
    kind = d.get("kind")
    if kind == "synthetic":
        _check(d, _SYNTH_SCHEMA, "task")
        return SyntheticTask(SyntheticSpec(**{k: v for k, v in d.items() if k != "kind"}))
    if kind == "amazon":
        _check(d, _AMAZON_SCHEMA, "task")
        if "src_path" not in d or "tgt_path" not in d:
            raise ConfigError("amazon task needs src_path and tgt_path")
        return AmazonTask(src_path=d["src_path"], tgt_path=d["tgt_path"],
                          fmt=d.get("format"), name=d.get("name", ""))
    raise ConfigError(f"task 'kind' must be 'synthetic' or 'amazon', got {kind!r}")


def build_plan(cfg: dict, seed_override: int | None = None) -> ExperimentPlan:
    try:
        _check(cfg, _RUN_SCHEMA, "run config")
        for key in ("task", "method"):
            if key not in cfg:
                raise ConfigError(f"run config missing required key {key!r}")
        kwargs = {k: v for k, v in cfg.items() if k in _PLAN_SCHEMA}
        kwargs["task"] = _parse_task(cfg["task"])
        for stage in _STAGES:
            if stage in cfg:
                kwargs[stage] = _parse_train(cfg[stage], stage)
        if seed_override is not None:
            kwargs["seed"] = seed_override
        return ExperimentPlan(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _check_reads(cfg: dict, plans) -> None:
    """Reject a ``METHOD_FIELDS`` key of ``cfg`` that no plan of ``plans`` reads."""
    unread = sorted(_METHOD_KEYS.intersection(cfg).difference(*(p.reads for p in plans)))
    if unread:
        methods = "/".join(dict.fromkeys(p.method for p in plans))
        models = "/".join(dict.fromkeys(p.base_model for p in plans if "base_model" in p.reads))
        given = f" with base_model {models}" if unread[0] == "activation" and models else ""
        raise ConfigError(f"{unread[0]} has no effect: no {methods} plan{given} reads it")


def _load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _out_dir(flag_value, cfg_value) -> Path:
    out = flag_value or cfg_value or os.environ.get(OUT_DIR_ENV) or "runs"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_traces(traces: dict, out_dir: Path) -> None:
    for name, record in traces.items():
        if record.losses:
            write_csv(out_dir / f"{name}_trace.csv", ["epoch", "loss"],
                      ((epoch, f"{loss:.8f}") for epoch, loss in enumerate(record.losses)))


def _load_pretrained(cfg: dict, plan: ExperimentPlan, transfer: bool = False) -> dict | None:
    stage = cfg.get("stage", "full")
    if stage == "full" and "checkpoint_dir" not in cfg:
        return None
    if stage != "meta_only":
        raise ConfigError(f"got stage {stage!r}: stage is 'full' or 'meta_only', "
                          "and only 'meta_only' reads checkpoint_dir")
    # meta_only: a run trains the bridge stage again, an export may take the saved bridge
    if "bridge" not in plan.reads:
        raise ConfigError(f"stage 'meta_only' does not apply to method {plan.method!r}")
    ckpt_dir = cfg.get("checkpoint_dir")
    if not ckpt_dir:
        raise ConfigError("stage 'meta_only' needs checkpoint_dir")
    return load_checkpoints(plan, ckpt_dir, transfer)


# ---------------------------------------------------------------------------
# commands

def cmd_prepare(args) -> int:
    if not 0.0 < args.beta < 1.0:
        raise ConfigError(f"--beta must be in (0, 1), got {args.beta}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    src = load_domain(args.src, args.format)
    tgt = load_domain(args.tgt, args.format)
    split = make_split(src, tgt, args.beta, args.seed)
    out = _out_dir(args.out_dir, None)
    split.save(out / "split.json")
    for name, idmap in (("src_users", src.users), ("src_items", src.items),
                        ("tgt_users", tgt.users), ("tgt_items", tgt.items)):
        (out / f"{name}.json").write_text(
            json.dumps(idmap.backward, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote split and id maps to {out}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    cfg = _load_json(args.config)
    plan = build_plan(cfg, args.seed)
    _check_reads(cfg, [plan])
    pretrained = _load_pretrained(cfg, plan)

    # output files stay byte-identical across reruns unless timings are asked for
    record_runtime = bool(cfg.get("record_runtime", False))
    (cold, t_cold), (warm, t_warm) = run_plan(plan, pretrained)
    out = _out_dir(args.out_dir, cfg.get("out_dir"))  # a failed plan leaves no directory
    rows = [{**report_row(plan, report, t, record_runtime), "counters": report.counters}
            for report, t in ((cold.report, t_cold), (warm, t_warm))]
    write_suite_csv(rows, out / "report.csv")
    write_suite_json(rows, out / "report.json")
    _write_traces({**cold.report.traces, **warm.traces}, out)
    if cfg.get("save_checkpoints"):
        save_checkpoints(cold, out / "checkpoints")
    print(f"cold mae={cold.report.mae:.4f} warm mae={warm.mae:.4f} -> {out}",
          file=sys.stderr)
    return 0


def cmd_suite(args) -> int:
    cfg = _load_json(args.config)
    _check(cfg, _SUITE_SCHEMA, "suite config")
    if "base" not in cfg:
        raise ConfigError("suite config missing required key 'base'")
    _check(cfg["base"], _PLAN_SCHEMA, "suite base")
    base = build_plan(cfg["base"])
    seeds = [args.seed] if args.seed is not None else cfg.get("seeds")
    plans = sweep_plans(base, methods=cfg.get("methods"), betas=cfg.get("betas"),
                        seeds=seeds)
    _check_reads(cfg["base"], plans)
    parallelism = args.parallel if args.parallel is not None else cfg.get("parallelism", 1)
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    export = args.export_attention or cfg.get("export_attention")
    if export and not any(p.method in BRIDGE_NET_METHODS for p in plans):
        raise ConfigError("attention export needs a ptupcdr-family method in the sweep")
    out = _out_dir(args.out_dir, cfg.get("out_dir"))
    rows = run_suite(plans, parallelism=parallelism,
                     record_runtime=cfg.get("record_runtime", False),
                     attention_dir=out if export else None)
    write_suite_csv(rows, out / "suite.csv")
    write_suite_json(rows, out / "suite.json")
    n_failed = sum(1 for r in rows if r["stage"] == "failed")
    print(f"suite: {len(plans)} plans, {n_failed} failed -> {out}", file=sys.stderr)
    return 0 if n_failed == 0 else 1


def cmd_export(args) -> int:
    cfg = _load_json(args.config)
    plan = build_plan(cfg, args.seed)
    _check_reads(cfg, [plan])
    if args.what in ("attention", "both") and plan.method not in BRIDGE_NET_METHODS:
        raise ConfigError("attention export needs a ptupcdr-family method")
    pretrained = _load_pretrained(cfg, plan, transfer=True)
    cold = run_cold(plan, pretrained=pretrained)
    out = _out_dir(args.out_dir, cfg.get("out_dir"))
    if args.what in ("attention", "both"):
        write_attention_csv(cold, out / "attention.csv")
    if args.what in ("embeddings", "both"):
        write_embeddings_csv(cold, out / "embeddings.csv")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bridgerec",
                                     description="cross-domain cold-start recommendation runner")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug (stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a deterministic cold/warm split from two rating logs")
    p.add_argument("src", help="source-domain rating log")
    p.add_argument("tgt", help="target-domain rating log")
    p.add_argument("--beta", type=float, required=True, help="fraction of overlap users held out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("run", help="run one experiment plan from a json config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("suite", help="run a method/beta/seed sweep and tabulate results")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="replace the seed list")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--parallel", type=int, default=None, help="plan groups to run at once")
    p.add_argument("--export-attention", action="store_true")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("export", help="dump attention weights or transformed embeddings")
    p.add_argument("config")
    p.add_argument("--what", choices=["attention", "embeddings", "both"], default="both")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (ConfigError, ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
