"""The benchmark in ``perfbench/`` rebinds and calls bridgerec by name.

These tests load its tracer and kernel modules by path and run them against
the current package, so a rename or a changed call shape fails here instead
of silently breaking the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import bridgerec as br
from bridgerec.models import TrainConfig
from bridgerec.pipeline import ExperimentPlan, SyntheticSpec, SyntheticTask

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


def test_every_traced_name_resolves():
    missing = []
    for entry in tracer.SPANS + tracer.COUNTED:
        module_name, path = entry[1], entry[2]
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_name}:{path}")
    assert not missing


def test_traced_run_counts_boundaries_and_restores_originals():
    original_step = br.nn.Adam.__dict__["step"]
    original_loss = br.bridge.task_oriented_loss
    spec = SyntheticSpec(n_users_src=40, n_users_tgt=40, n_overlap=30, n_items_src=20,
                         n_items_tgt=20, k_true=3, ratings_per_user=5)
    plan = ExperimentPlan(task=SyntheticTask(spec), method="ptupcdr", k=3,
                          pretrain=TrainConfig(lr=0.01, epochs=2),
                          bridge=TrainConfig(lr=0.01, epochs=2),
                          finetune=TrainConfig(lr=0.01, epochs=2))
    t = tracer.Tracer()
    t.install()
    try:
        t.root(lambda: br.run_warm(plan, br.run_cold(plan)))
    finally:
        t.uninstall()
    assert br.nn.Adam.__dict__["step"] is original_step
    assert br.bridge.task_oriented_loss is original_loss

    metrics = t.metrics()
    assert metrics["pipeline.run_warm.calls"] == 1
    assert metrics["nn.Adam.step.calls"] > 0
    assert metrics["nn.Adam.step.elems"] > 0
    assert metrics["bridge.task_oriented_loss.samples"] > 0
    assert metrics["nn.TwoLayerNet.forward_cached.calls"] > 0


def test_kernel_microbenchmarks_run_against_the_package(monkeypatch):
    kernels = _load("kernels")
    sizes = {"N_USERS": 40, "N_ITEMS": 30, "BATCH": 16, "SEQ_USERS": 20, "SEQ_ITEMS": 15,
             "SEQ_LEN": 5, "ROWS_PER_USER": 4, "MAPPING_USERS": 6}
    for name, value in sizes.items():
        monkeypatch.setattr(kernels, name, value)
    calls = []

    def once(fn, **_):
        calls.append(fn())
        return 0.0

    monkeypatch.setattr(kernels, "_per_call", once)
    out = kernels.kernel_metrics(seed=0)
    assert all(np.isfinite(v) for v in out.values())
    # three heads, Adam, task loss, mapping loss, transform_user
    assert len(calls) == 7
    task_result, mapping_result = calls[4], calls[5]
    assert len(task_result) == 3 and task_result[2] == 0
    loss, grads = mapping_result
    assert np.isfinite(loss) and set(grads) == set(task_result[1])
