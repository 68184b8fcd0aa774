"""bridgerec benchmark: timed workloads, output checks and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ptupcdr_bridge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: the
next timed run starts when the previous one and its output checks are done.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json: the
median wall time of the timed runs, the median of several set-ups (a fresh
interpreter importing bridgerec plus the workload's input preparation), peak
resident memory, pooled cold/warm MAE and RMSE, and the share of operations
that passed. ``--trace 1`` alternates untraced and traced runs and reports
the per-layer metrics instead: per-iteration calls, total
and self seconds of each layer's spans, counts recorded at the same
boundaries, the tracing overhead, and kernel microbenchmarks at fixed shapes.

Inputs come only from ``--seed``. Every check of a run's outputs is one
operation attempted; quality metrics must be identical across the runs of
one process and across processes that ran the same code on the same seed.
BLAS runs on one thread. The last line of standard output is one JSON
object; details and spans go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_RUNS = 3


# ---------------------------------------------------------------------------
# environment

def _git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_files():
    return sorted(SRC.rglob("*.py"))


def _code_digest() -> str:
    """Hash of the program's and the benchmark's sources: what "the same code" means."""
    h = hashlib.sha256()
    for path in _src_files() + sorted(Path(__file__).parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "git_commit": _git_commit(), "code_sha256": _code_digest(),
            "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files())}


# ---------------------------------------------------------------------------
# measurement

def _import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import bridgerec"], cwd=ROOT, env=env,
                   check=True, timeout=60)


def set_up(workload, seed, workdir):
    times, checks = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        _import_in_fresh_interpreter()
        checks = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), checks


def measure(workload, seconds, tracer=None):
    """Timed runs until the next one would overrun ``seconds``.

    With a tracer, runs alternate between untraced and traced, so both kinds
    see the same state of a shared machine and their difference is the
    tracing overhead. Returns (untraced durations, traced durations,
    qualities, checks); each kind gets at least MIN_RUNS runs.
    """
    durations = {False: [], True: []}
    qualities, checks = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(durations[False]) > len(durations[True])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = tracer.root(workload.run) if traced else workload.run()
        except Exception as exc:  # one failed run is counted, the loop goes on
            durations[traced].append(time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            checks.append((f"run raised {type(exc).__name__}", False))
        else:
            durations[traced].append(time.perf_counter() - t0)
            quality, run_checks = workload.check(result)
            checks.extend(run_checks)
            if quality is not None:
                qualities.append(quality)
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        enough = min(len(d) for d in durations.values()) >= MIN_RUNS if tracer else \
            len(durations[False]) >= MIN_RUNS
        if enough and elapsed + durations[traced][-1] > seconds:
            return durations[False], durations[True], qualities, checks


def determinism_checks(name, seed, qualities, digest):
    checks = [("quality identical across runs", all(q == qualities[0] for q in qualities))]
    store = WORK / "quality" / f"{name}-{seed}-{digest[:16]}.json"
    if store.exists():
        checks.append(("quality identical to an earlier process",
                       json.loads(store.read_text()) == qualities[0]))
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(qualities[0], sort_keys=True))
    return checks


def _select(listed, values, correct):
    """The listed metrics; a failed run may lack quality values and reports them as null."""
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and correct:
        raise KeyError(f"benchmark computes no value for {missing}")
    return {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}


def run_workload(args, bench) -> int:
    import kernels
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workdir = WORK / f"{workload.name}-{args.seed}"
    setup_s, checks = set_up(workload, args.seed, workdir)

    tracer = Tracer() if args.trace else None
    durations, traced, qualities, run_checks = measure(workload, args.seconds, tracer)
    checks += run_checks
    if tracer:
        tracer.write(WORK / f"{workload.name}-{args.seed}-spans.jsonl")
        values = tracer.metrics()
        values["trace.wall_s"] = statistics.fmean(traced)
        values["trace.untraced_wall_s"] = statistics.fmean(durations)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values.update(kernels.kernel_metrics(args.seed))
        listed = bench["per_layer"]
    else:
        values = {}
        listed = bench["end_to_end"]

    if qualities:
        checks += determinism_checks(workload.name, args.seed, qualities,
                                     env["code_sha256"])
    failed = [name for name, ok in checks if not ok]
    values.update(qualities[0] if qualities else {})
    values.update({"wall_s": statistics.median(durations), "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "ok_frac": 1.0 - len(failed) / len(checks)})
    metrics = _select(listed, values, not failed)

    print(f"{workload.name} seed={args.seed}: {len(durations)} timed runs, "
          f"wall_s median {statistics.median(durations):.4f} "
          f"(min {min(durations):.4f}, max {max(durations):.4f}), "
          f"failed_frac {len(failed) / len(checks):.4f} ({len(failed)} of {len(checks)})")
    for name in failed:
        print(f"FAILED check: {name}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    detail = {**result, "env": env, "workload": workload.name, "seed": args.seed,
              "trace": args.trace, "durations_s": durations, "failed_checks": failed,
              "all_values": values}
    (WORK / f"{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args, bench) -> int:
    """Each workload in its own process, so peak memory is that workload's alone."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w['name']}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # pinned before numpy is first imported, here and in every child process
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "bridgerec" / "__init__.py").is_file():
        print(f"error: no bridgerec sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be 'all' or one of {names}")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
