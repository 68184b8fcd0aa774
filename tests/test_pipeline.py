import concurrent.futures
import csv
import dataclasses
import math
import multiprocessing
import pickle
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgerec import pipeline
from bridgerec.data import IdMap, build_sequences
from bridgerec.bridge import CharacteristicEncoder, TransferContext, transform_user
from bridgerec.models import TrainConfig, predict_batch, pretrain, user_representation
from bridgerec.pipeline import (METHODS, AmazonTask, ExperimentPlan, SyntheticSpec,
                                SyntheticTask, _plan_rows, compute_metrics,
                                generate_synthetic, load_checkpoints, run_cold, run_suite,
                                run_warm, save_checkpoints, sweep_plans, write_attention_csv,
                                write_suite_csv, write_suite_json)
import reference
from conftest import traced_peak

SMALL = dict(n_users_src=140, n_users_tgt=140, n_overlap=100,
             n_items_src=90, n_items_tgt=90, k_true=5, ratings_per_user=15)


def _plan(spec, method, seed=0, beta=0.2, **kw):
    defaults = dict(pretrain=TrainConfig(lr=0.01, epochs=100),
                    bridge=TrainConfig(lr=0.01, epochs=50),
                    finetune=TrainConfig(lr=0.01, epochs=100))
    defaults.update(kw)
    return ExperimentPlan(task=SyntheticTask(spec), method=method, k=spec.k_true,
                          beta=beta, seed=seed, **defaults)


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_prediction():
    assert compute_metrics([4.0], [4.0]) == (0.0, 0.0)


def test_metrics_equal_errors():
    mae, rmse = compute_metrics([4.0, 1.0], [2.0, 3.0])
    assert mae == 2.0 and rmse == 2.0


def test_metrics_hand_arithmetic():
    # errors 4 and 0: mae = 2, rmse = sqrt((16 + 0) / 2)
    mae, rmse = compute_metrics([5.0, 3.0], [1.0, 3.0])
    assert mae == 2.0
    np.testing.assert_allclose(rmse, math.sqrt(8.0), rtol=1e-15)


def test_metrics_reject_empty_and_mismatched():
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics([1.0], [1.0, 2.0])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)), min_size=1, max_size=20))
def test_mae_never_exceeds_rmse(pairs):
    r, p = zip(*pairs)
    mae, rmse = compute_metrics(r, p)
    assert mae <= rmse + 1e-12


# ---------------------------------------------------------------------------
# plan validation

def test_plan_rejects_bad_fields():
    task = SyntheticTask(SyntheticSpec())
    with pytest.raises(ValueError):
        ExperimentPlan(task=task, method="nope")
    with pytest.raises(ValueError):
        ExperimentPlan(task=task, method="tgt", beta=1.2)
    with pytest.raises(ValueError):
        ExperimentPlan(task=task, method="tgt", base_model="svd")
    with pytest.raises(ValueError):
        ExperimentPlan(task=task, method="tgt", k=0)
    with pytest.raises(ValueError, match="activation must be one of"):
        ExperimentPlan(task=task, method="tgt", activation="sigmoid")
    for key, value in (("k", 2.5), ("k", True), ("seed", 1.5), ("max_seq_len", 2.5),
                       ("max_seq_len", 3.0)):
        with pytest.raises(ValueError, match=f"^{key} must be an int, got {value!r}$"):
            ExperimentPlan(task=task, method="tgt", **{key: value})
    # a stage's int fields follow the same rule, checked as the TrainConfig is built
    for key, value in (("epochs", 1.5), ("epochs", True), ("batch_size", 2.5),
                       ("patience", 0.5)):
        with pytest.raises(ValueError, match=f"^{key} must be an int, got {value!r}$"):
            ExperimentPlan(task=task, method="tgt", bridge=TrainConfig(**{key: value}))


def test_plan_enforces_lr_grid_unless_overridden():
    task = SyntheticTask(SyntheticSpec())
    with pytest.raises(ValueError, match="grid"):
        ExperimentPlan(task=task, method="tgt", pretrain=TrainConfig(lr=0.003))
    plan = ExperimentPlan(task=task, method="tgt", pretrain=TrainConfig(lr=0.003),
                          allow_off_grid_lr=True)
    assert plan.pretrain.lr == 0.003


def test_task_labels():
    assert SyntheticTask(SyntheticSpec()).label == "synthetic"
    assert AmazonTask("data/movies.csv", "data/music.csv").label == "movies->music"
    assert AmazonTask("a.csv", "b.csv", name="task1").label == "task1"


# ---------------------------------------------------------------------------
# synthetic generator

def test_synthetic_is_deterministic():
    spec = SyntheticSpec(**SMALL)
    a_src, a_tgt, a_truth = generate_synthetic(spec, seed=3)
    b_src, b_tgt, b_truth = generate_synthetic(spec, seed=3)
    np.testing.assert_array_equal(a_src.rating, b_src.rating)
    np.testing.assert_array_equal(a_tgt.item_idx, b_tgt.item_idx)
    np.testing.assert_array_equal(a_truth.src_user_factors, b_truth.src_user_factors)
    assert a_src.users.backward == b_src.users.backward


def test_synthetic_respects_rating_bounds_and_disjoint_items():
    spec = SyntheticSpec(**SMALL, noise_sd=0.3)
    src, tgt, _ = generate_synthetic(spec, seed=1)
    for ds in (src, tgt):
        assert ds.rating.min() >= 0.0 and ds.rating.max() <= 5.0
    assert not (set(src.items.backward) & set(tgt.items.backward))
    assert len(set(src.users.backward) & set(tgt.users.backward)) == spec.n_overlap


def test_synthetic_timestamps_order_each_user():
    src, _, _ = generate_synthetic(SyntheticSpec(**SMALL), seed=2)
    for user, seq_rows in build_sequences(src).items():
        assert len(seq_rows) == SMALL["ratings_per_user"]


def test_synthetic_ratings_match_planted_factors():
    spec = SyntheticSpec(**SMALL, noise_sd=0.0)
    src, tgt, truth = generate_synthetic(spec, seed=4)
    for ds, uf, vf in ((src, truth.src_user_factors, truth.src_item_factors),
                       (tgt, truth.tgt_user_factors, truth.tgt_item_factors)):
        exact = np.einsum("bk,bk->b", uf[ds.user_idx], vf[ds.item_idx])
        np.testing.assert_allclose(ds.rating, np.clip(exact, 0, 5), atol=1e-12)


def test_synthetic_identity_bridge_equates_overlap_factors():
    spec = SyntheticSpec(**SMALL, bridge_family="shared_linear", identity_bridge=True)
    src, tgt, truth = generate_synthetic(spec, seed=5)
    for u in truth.overlap_ids[:10]:
        np.testing.assert_array_equal(truth.src_user_factors[src.users.index(u)],
                                      truth.tgt_user_factors[tgt.users.index(u)])


def test_synthetic_noiseless_world_is_learnable():
    spec = SyntheticSpec(**SMALL, noise_sd=0.0)
    src, _, _ = generate_synthetic(spec, seed=0)
    model, _ = pretrain(src, k=spec.k_true, config=TrainConfig(lr=0.01, epochs=300), seed=0)
    pred = predict_batch(model, src.user_idx, src.item_idx)
    assert float(np.sqrt(np.mean((pred - src.rating) ** 2))) < 0.05


def test_synthetic_rejects_infeasible_specs():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(n_overlap=500), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(ratings_per_user=10_000), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(noise_sd=-0.1), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(bridge_family="cubic"), seed=0)
    with pytest.raises(ValueError, match="n_overlap must be >= 0, got -2"):
        generate_synthetic(SyntheticSpec(n_overlap=-2), seed=0)
    for name in ("n_users_src", "n_users_tgt", "n_overlap", "n_items_src", "n_items_tgt",
                 "k_true", "ratings_per_user", "n_clusters"):
        for value in (float(getattr(SyntheticSpec(), name)), True):
            with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
                generate_synthetic(SyntheticSpec(**{name: value}), seed=0)


# the benchmark workloads' worlds (K = 10), and worlds that reach every branch of the draw
REFERENCE_SPECS = {
    "ptupcdr_bridge": SyntheticSpec(n_users_src=700, n_users_tgt=700, n_overlap=600,
                                    n_items_src=300, n_items_tgt=300, k_true=10,
                                    ratings_per_user=20, n_clusters=32),
    "wide_suite": SyntheticSpec(n_users_src=1600, n_users_tgt=1600, n_overlap=1000,
                                n_items_src=3400, n_items_tgt=3400, k_true=10,
                                ratings_per_user=5, bridge_family="shared_linear",
                                n_clusters=32),
    "meta_only_export": SyntheticSpec(n_users_src=1200, n_users_tgt=1200, n_overlap=1000,
                                      n_items_src=600, n_items_tgt=600, k_true=10,
                                      ratings_per_user=40, n_clusters=32),
    "defaults": SyntheticSpec(),
    "noiseless": SyntheticSpec(noise_sd=0.0),
    "uniform_selection": SyntheticSpec(selection_sharpness=0.0),
    "shared_linear": SyntheticSpec(bridge_family="shared_linear"),
    "identity_bridge": SyntheticSpec(bridge_family="shared_linear", identity_bridge=True),
    # every item rated: most users need many rounds of the draw
    "all_items": SyntheticSpec(**{**SMALL, "n_items_src": 15, "n_items_tgt": 15}),
    "all_src_users_overlap": SyntheticSpec(**{**SMALL, "n_overlap": SMALL["n_users_src"]}),
}


def _fields(obj) -> list:
    """Every field of a dataset or PlantedTruth; arrays as dtype, shape and bytes."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, IdMap):
            value = list(value.forward.items())
        out.append((f.name, value))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 23])
@pytest.mark.parametrize("spec", REFERENCE_SPECS.values(), ids=REFERENCE_SPECS)
def test_synthetic_world_is_byte_identical_to_the_per_user_reference(spec, seed):
    for got, want in zip(generate_synthetic(spec, seed), reference.generate_synthetic(spec, seed)):
        assert _fields(got) == _fields(want)


WEIGHT = st.one_of(st.just(0.0), st.just(1e-200), st.just(1e-12), st.just(1.0), st.just(2.5),
                   st.floats(0.01, 10.0))


@settings(deadline=None, max_examples=300)
@given(st.lists(WEIGHT, min_size=1, max_size=40).filter(any), st.integers(0, 2**32 - 1),
       st.data())
def test_draw_without_replacement_repeats_numpy_choice(weights, seed, data):
    p = np.asarray(weights) / sum(weights)
    nnz = np.count_nonzero(p)
    count = data.draw(st.integers(1, nnz))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = pipeline._draw_without_replacement(rng_a, p.copy(), count)
    assert got == rng_b.choice(len(p), count, replace=False, p=p).tolist()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    with pytest.raises(ValueError, match=f"fewer than {nnz + 1} non-zero entries"):
        pipeline._draw_without_replacement(rng_a, p.copy(), nnz + 1)


@pytest.mark.parametrize("sharpness", [1e6, 1e308])
def test_a_degenerate_selection_sharpness_names_the_field_and_the_user(sharpness):
    # 1e6 leaves one item with non-zero probability; 1e308 overflows, without a warning
    message = (f"selection_sharpness {sharpness} leaves user ou00000 fewer than "
               "ratings_per_user=20 items to draw from")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_synthetic(SyntheticSpec(selection_sharpness=sharpness), seed=0)


def test_zero_overlap_world_cannot_run():
    spec = SyntheticSpec(**{**SMALL, "n_overlap": 0})
    with pytest.raises(ValueError, match="overlap"):
        run_cold(_plan(spec, "ptupcdr"))


@pytest.mark.parametrize("method", ["emcdr", "ptupcdr", "ptupcdr_mapping_ablation"])
def test_bridge_methods_need_training_overlap_users(method):
    # beta 0.8 of 2 overlapping users makes both of them test users
    spec = replace(_fast_suite_spec(), n_overlap=2)
    with pytest.raises(ValueError, match="overlap"):
        run_cold(replace(_fast_plan(method), task=SyntheticTask(spec), beta=0.8))


# ---------------------------------------------------------------------------
# cold stage

def test_run_cold_is_deterministic():
    spec = SyntheticSpec(**SMALL)
    a = run_cold(_plan(spec, "ptupcdr"))
    b = run_cold(_plan(spec, "ptupcdr"))
    assert a.report.mae == b.report.mae and a.report.rmse == b.report.rmse
    assert a.init.shape == (len(a.split.test_users), spec.k_true)
    for i in range(len(a.split.test_users)):
        np.testing.assert_array_equal(a.init[i], b.init[i])


def test_cold_shared_map_is_recovered_by_both_bridge_methods():
    spec = SyntheticSpec(**SMALL, noise_sd=0.0, bridge_family="shared_linear")
    for method in ("emcdr", "ptupcdr"):
        report = run_cold(_plan(spec, method)).report
        assert report.mae < 0.1, f"{method} mae {report.mae}"


def test_cold_personalized_world_orders_the_methods():
    spec = SyntheticSpec(**SMALL, noise_sd=0.0, bridge_family="per_user_linear")
    maes = {m: run_cold(_plan(spec, m)).report.mae
            for m in ("tgt", "emcdr", "ptupcdr")}
    assert maes["ptupcdr"] < maes["emcdr"] < maes["tgt"]


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("key", ["noise_sd", "selection_sharpness"])
def test_synthetic_spec_rejects_negative_or_non_finite_noise_and_sharpness(key, value):
    # NaN compares false both ways, so a NaN noise_sd used to add no noise at all
    with pytest.raises(ValueError, match="noise_sd and selection_sharpness must be finite"):
        SyntheticSpec(**{key: value})


def test_cold_report_counts_evaluated_ratings():
    spec = SyntheticSpec(**SMALL)
    cold = run_cold(_plan(spec, "tgt"))
    expected = sum(len(cold.split.cold[u]) for u in cold.split.test_users)
    assert cold.report.n_eval == expected
    sequences = build_sequences(cold.src)
    assert all(len(sequences.get(cold.src.users.index(u), ())) > 0
               for u in cold.split.test_users)


def test_cold_stage_never_reads_warm_rows():
    spec = SyntheticSpec(**SMALL)
    cold = run_cold(_plan(spec, "emcdr"))
    warm_rows = set()
    for u in cold.split.test_users:
        warm_rows |= set(cold.split.warm[u].tolist())
    assert not (warm_rows & set(cold.split.target_train_indices.tolist()))
    for u in cold.split.test_users:
        assert not (warm_rows & set(cold.split.cold[u].tolist()))


@pytest.mark.parametrize("method", ["emcdr", "ptupcdr"])
def test_run_cold_from_saved_checkpoints_repeats_the_cold_run(tmp_path, monkeypatch, method):
    plan = _plan(SyntheticSpec(**SMALL), method, pretrain=TrainConfig(lr=0.01, epochs=5),
                 bridge=TrainConfig(lr=0.01, epochs=3))
    cold = run_cold(plan)
    save_checkpoints(cold, tmp_path / "ckpt")

    def rebuilt(*args, **kwargs):
        raise AssertionError("a run from checkpoints loaded, generated or pre-trained")

    for name in ("load_domain", "generate_synthetic", "pretrain"):
        monkeypatch.setattr(pipeline, name, rebuilt)
    again = run_cold(plan, load_checkpoints(plan, tmp_path / "ckpt"))
    # a checkpoint holds no pre-training record
    trained = {k: v for k, v in cold.report.traces.items() if k not in ("src", "tgt")}
    assert again.report == replace(cold.report, traces=trained)
    np.testing.assert_array_equal(again.init, cold.init)


# ---------------------------------------------------------------------------
# warm stage

def test_warm_zero_epochs_equals_cold_initialization():
    spec = SyntheticSpec(**SMALL)
    plan = _plan(spec, "ptupcdr", finetune=TrainConfig(lr=0.01, epochs=0))
    cold = run_cold(plan)
    warm = run_warm(plan, cold)
    r, p = [], []
    for i, u in enumerate(cold.split.test_users):
        rows = cold.split.warm[u]
        if len(rows) == 0:
            continue
        items = cold.tgt.item_idx[rows]
        r.append(cold.tgt.rating[rows])
        p.append(np.clip(cold.scoring[items] @ cold.init[i], 0.0, 5.0))
    mae, rmse = compute_metrics(np.concatenate(r), np.concatenate(p))
    assert warm.mae == mae and warm.rmse == rmse


@pytest.mark.parametrize("finetune_items", [False, True])
def test_run_warm_leaves_the_cold_run_unchanged(finetune_items):
    # exporters and demos read cold.init after the warm stage
    plan = replace(_fast_plan("ptupcdr"), finetune_items=finetune_items)
    cold = run_cold(plan)
    init, scoring = cold.init.copy(), cold.scoring.copy()
    warm = run_warm(plan, cold)
    losses = warm.traces["finetune"].losses
    assert losses[-1] < losses[0]  # fine-tuning moved its own copies
    np.testing.assert_array_equal(cold.init, init)
    np.testing.assert_array_equal(cold.scoring, scoring)


@pytest.mark.parametrize("method", ["tgt", "emcdr", "ptupcdr"])
def test_cold_init_row_i_belongs_to_test_user_i(method):
    cold = run_cold(_fast_plan(method))
    art = cold.artifacts
    for i, u in enumerate(cold.split.test_users):
        if method == "tgt":
            want = user_representation(art["tgt_model"], cold.tgt.users.index(u))
        elif method == "emcdr":
            want = art["common_bridge"] @ art["ctx"].user_reprs[cold.src.users.index(u)]
        else:
            want = transform_user(art["enc"], art["meta"], art["ctx"], cold.src.users.index(u))
        np.testing.assert_allclose(cold.init[i], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("base_model", ["mf", "two_tower"])
def test_a_plan_moves_its_results_exactly_through_the_fields_it_reads(method, base_model):
    """A method-dependent field the plan does not read (``METHOD_FIELDS``, plus activation
    for two_tower towers) leaves the cold init, the scoring table and both reports
    bit-identical; a field it reads moves them."""
    # 8 source ratings a user: every history is longer than the max_seq_len of 3 below
    plan = replace(_fast_plan(method), base_model=base_model,
                   pretrain=TrainConfig(lr=0.01, epochs=3), bridge=TrainConfig(lr=0.01, epochs=3),
                   finetune=TrainConfig(lr=0.01, epochs=3))

    def outcome(plan):
        cold = run_cold(plan)
        reports = (cold.report, run_warm(plan, cold))
        return cold.init, cold.scoring, [(r.mae, r.rmse, r.n_eval, r.counters) for r in reports]

    def same(a, b):
        return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]

    base = outcome(plan)
    changes = {"base_model": "gmf", "bridge": TrainConfig(lr=0.02, epochs=3), "max_seq_len": 3,
               "activation": "tanh"}
    for field, value in changes.items():
        assert same(outcome(replace(plan, **{field: value})), base) == (field not in plan.reads), \
            field


def test_warm_improves_over_cold_with_consistent_preferences():
    spec = SyntheticSpec(**SMALL, noise_sd=0.0, bridge_family="per_user_linear")
    for method in ("tgt", "ptupcdr"):
        plan = _plan(spec, method)
        cold = run_cold(plan)
        warm = run_warm(plan, cold)
        assert warm.mae <= cold.report.mae, method


def test_warm_can_unfreeze_item_vectors():
    spec = SyntheticSpec(**SMALL, noise_sd=0.0)
    plan = _plan(spec, "tgt", finetune=TrainConfig(lr=0.01, epochs=30),
                 finetune_items=True)
    warm = run_warm(plan)
    assert np.isfinite(warm.mae)


# ---------------------------------------------------------------------------
# attention export

def test_attention_csv_is_written_a_block_of_rows_at_a_time(tmp_path):
    # 1,000 users with 40 items each: 40,000 rows. The columns take 24 B a row
    # and one block of kernel work about 1 MB, which traced 43 B a row here;
    # a list of one tuple per row traced 135 B a row. The bound leaves half as
    # much again as this code needs.
    n_users, n_items, per, k = 1000, 600, 40, 10
    rng = np.random.default_rng(0)
    users = IdMap.from_ids(f"user{u:05d}" for u in range(n_users))
    items = IdMap.from_ids(f"item{i:05d}" for i in range(n_items))
    ctx = TransferContext(user_reprs=None, item_reprs=rng.normal(size=(n_items, k)),
                          sequences={u: rng.choice(n_items, size=per, replace=False)
                                     for u in range(n_users)},
                          tgt_scoring=None, tgt_user_reprs=None)
    cold = SimpleNamespace(src=SimpleNamespace(users=users, items=items),
                           split=SimpleNamespace(test_users=users.backward),
                           artifacts={"enc": CharacteristicEncoder(k, None, rng=rng), "ctx": ctx})
    path = tmp_path / "attention.csv"
    write_attention_csv(cold, path)  # also warms up what a first call allocates
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + n_users * per
    assert rows[1][:2] == ["user00000", f"item{ctx.sequences[0][0]:05d}"]
    assert traced_peak(lambda: write_attention_csv(cold, path)) / (n_users * per) <= 64


# ---------------------------------------------------------------------------
# every stage trains through the same loop

# stage -> (method, plan field of its TrainConfig, key of its record in the reports' traces)
STAGE_TRACES = {
    "pretrain": ("tgt", "pretrain", "tgt"),
    "cmf": ("cmf", "pretrain", "cmf"),
    "emcdr": ("emcdr", "bridge", "bridge"),
    "ptupcdr": ("ptupcdr", "bridge", "bridge"),
    "mapping": ("ptupcdr_mapping_ablation", "bridge", "bridge"),
    "finetune": ("tgt", "finetune", "finetune"),
}


@pytest.mark.parametrize("patience", [None, 0, 2])
@pytest.mark.parametrize("stage", sorted(STAGE_TRACES))
def test_patience_stops_every_stage_on_a_flat_loss(stage, patience):
    # lr 0 and one batch per epoch: every epoch repeats the first epoch's loss
    method, field_name, key = STAGE_TRACES[stage]
    base = _fast_plan(method)
    flat = TrainConfig(lr=0.0, epochs=6, batch_size=10**6, patience=patience)
    plan = replace(base, allow_off_grid_lr=True, **{field_name: flat})
    cold = run_cold(plan)
    trace = {**cold.report.traces, **run_warm(plan, cold).traces}[key].losses
    assert len(trace) == (6 if patience is None else patience + 2)
    assert len(set(np.round(trace, 10))) == 1


# ---------------------------------------------------------------------------
# suites

def _fast_suite_spec():
    return SyntheticSpec(n_users_src=60, n_users_tgt=60, n_overlap=40,
                         n_items_src=40, n_items_tgt=40, k_true=3,
                         ratings_per_user=8)


def _fast_plan(method="tgt", seed=0, beta=0.2):
    return ExperimentPlan(task=SyntheticTask(_fast_suite_spec()), method=method,
                          k=3, beta=beta, seed=seed,
                          pretrain=TrainConfig(lr=0.01, epochs=15),
                          bridge=TrainConfig(lr=0.01, epochs=10),
                          finetune=TrainConfig(lr=0.01, epochs=20))


def test_suite_row_counts_and_means():
    plans = sweep_plans(_fast_plan(), methods=["tgt", "emcdr"], seeds=[0, 1, 2])
    rows = run_suite(plans, record_runtime=False)
    per_seed = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert len(per_seed) == 12  # 2 methods x 3 seeds x 2 stages
    assert len(means) == 4      # one per (method, stage)
    for m in means:
        group = [r for r in per_seed if (r["method"], r["stage"]) == (m["method"], m["stage"])]
        np.testing.assert_allclose(m["mae"], np.mean([g["mae"] for g in group]))


def test_suite_tables_are_byte_identical_across_runs(tmp_path):
    plans = sweep_plans(_fast_plan(), methods=["tgt"], seeds=[0, 1])
    for name in ("a", "b"):
        rows = run_suite(plans, record_runtime=False)
        write_suite_csv(rows, tmp_path / f"{name}.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_suite_records_failures_and_continues(tmp_path):
    bad = ExperimentPlan(task=AmazonTask(str(tmp_path / "missing_src.csv"),
                                         str(tmp_path / "missing_tgt.csv")),
                         method="tgt")
    rows = run_suite([bad, _fast_plan()], record_runtime=False)
    failed = [r for r in rows if r["stage"] == "failed"]
    ok = [r for r in rows if r["stage"] in ("cold", "warm")]
    assert len(failed) == 1 and "error" in failed[0]
    assert len(ok) == 2


def test_suite_attention_export_that_fails_is_its_plans_failed_row(tmp_path):
    plans = [_fast_plan("tgt"), _fast_plan("ptupcdr")]
    rows = run_suite(plans, record_runtime=False, attention_dir=tmp_path / "missing")
    assert [(r["method"], r["stage"]) for r in rows] == [
        ("tgt", "cold"), ("tgt", "warm"), ("ptupcdr", "failed")]
    assert "missing" in rows[2]["error"]


def test_suite_float_cells_and_attention_file_names_keep_their_digits(tmp_path):
    # under :g, 123456.5 printed as 123456, 1234567.0 as 1.23457e+06, and both
    # betas below named one attention file, beta0.123456
    rows = [{"task": "t", "beta": 0.1234561, "method": "tgt", "stage": "cold", "seed": "mean",
             "mae": 0.5, "rmse": 0.5, "n_eval": n, "runtime_s": 0.0}
            for n in (123456.5, 1234567.0)]
    write_suite_csv(rows, tmp_path / "suite.csv")
    cells = [line.split(",") for line in (tmp_path / "suite.csv").read_text().splitlines()[1:]]
    assert [(c[1], c[7]) for c in cells] == [("0.1234561", "123456.5"), ("0.1234561", "1234567")]
    plans = [_fast_plan("ptupcdr", beta=beta) for beta in (0.1234561, 0.1234562)]
    (tmp_path / "attention").mkdir()
    run_suite(plans, record_runtime=False, attention_dir=tmp_path / "attention")
    assert sorted(p.name for p in (tmp_path / "attention").iterdir()) == [
        "attention_ptupcdr_beta0.1234561.csv", "attention_ptupcdr_beta0.1234562.csv"]


SWEEP = dict(methods=["tgt", "cmf", "emcdr", "ptupcdr"], betas=[0.2, 0.4], seeds=[0, 1])


def test_suite_parallel_matches_serial(tmp_path):
    # the parallel path runs each group of plans in a worker, as the serial path runs it
    plans = sweep_plans(_fast_plan(), **SWEEP)
    for name, parallelism in (("serial", 1), ("parallel", 2)):
        write_suite_json(run_suite(plans, parallelism=parallelism, record_runtime=False),
                         tmp_path / f"{name}.json")
    assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "parallel.json").read_bytes()


def test_suite_rows_equal_each_plan_run_alone():
    plans = sweep_plans(_fast_plan(), **SWEEP)
    rows = run_suite(plans, record_runtime=False)
    alone = [r for plan in plans for r in _plan_rows(plan, False)]
    assert rows[:len(alone)] == alone


def _write_log(ds, path):
    with open(path, "w") as f:
        f.write("user,item,rating,timestamp\n")
        for u, i, r, t in zip(ds.user_idx, ds.item_idx, ds.rating, ds.timestamp):
            f.write(f"{ds.users.external(u)},{ds.items.external(i)},{float(r)!r},{t}\n")


def test_suite_loads_splits_and_pretrains_once_per_group(tmp_path, monkeypatch):
    src, tgt, _ = generate_synthetic(_fast_suite_spec(), 0)
    _write_log(src, tmp_path / "src.csv")
    _write_log(tgt, tmp_path / "tgt.csv")
    calls = {"load_domain": [], "make_split": 0, "pretrain": []}
    load_domain, make_split, pretrain = (pipeline.load_domain, pipeline.make_split,
                                         pipeline.pretrain)

    def counted_load(path, fmt=None):
        calls["load_domain"].append(path)
        return load_domain(path, fmt)

    def counted_split(*args):
        calls["make_split"] += 1
        return make_split(*args)

    def counted_pretrain(dataset, *args):
        calls["pretrain"].append(dataset.items.external(0)[:2])  # "si" or "ti"
        return pretrain(dataset, *args)

    monkeypatch.setattr(pipeline, "load_domain", counted_load)
    monkeypatch.setattr(pipeline, "make_split", counted_split)
    monkeypatch.setattr(pipeline, "pretrain", counted_pretrain)
    base = replace(_fast_plan(), task=AmazonTask(str(tmp_path / "src.csv"),
                                                 str(tmp_path / "tgt.csv")))
    rows = run_suite(sweep_plans(base, **SWEEP), record_runtime=False)
    assert all(r["stage"] in ("cold", "warm") for r in rows)
    groups = len(SWEEP["betas"]) * len(SWEEP["seeds"])
    assert calls["load_domain"] == [str(tmp_path / "src.csv"), str(tmp_path / "tgt.csv")] * groups
    assert calls["make_split"] == groups
    # tgt pre-trains the target model, emcdr the source model; ptupcdr reuses both
    assert calls["pretrain"] == ["ti", "si"] * groups


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched functions only when forked")
def test_suite_workers_load_and_pretrain_once_per_group(tmp_path, monkeypatch):
    src, tgt, _ = generate_synthetic(_fast_suite_spec(), 0)
    _write_log(src, tmp_path / "src.csv")
    _write_log(tgt, tmp_path / "tgt.csv")
    calls = tmp_path / "calls.txt"  # every worker appends a line per call
    load_domain, pretrain = pipeline.load_domain, pipeline.pretrain

    def logged(line):
        with open(calls, "a") as f:
            f.write(line + "\n")

    def counted_load(path, fmt=None):
        logged(f"load_domain {Path(path).name}")
        return load_domain(path, fmt)

    def counted_pretrain(dataset, *args):
        logged(f"pretrain {dataset.items.external(0)[:2]}")
        return pretrain(dataset, *args)

    monkeypatch.setattr(pipeline, "load_domain", counted_load)
    monkeypatch.setattr(pipeline, "pretrain", counted_pretrain)
    base = replace(_fast_plan(), task=AmazonTask(str(tmp_path / "src.csv"),
                                                 str(tmp_path / "tgt.csv")))
    rows = run_suite(sweep_plans(base, **SWEEP), parallelism=2, record_runtime=False)
    assert all(r["stage"] in ("cold", "warm") for r in rows)
    groups = len(SWEEP["betas"]) * len(SWEEP["seeds"])
    assert Counter(calls.read_text().splitlines()) == {
        "load_domain src.csv": groups, "load_domain tgt.csv": groups,
        "pretrain ti": groups, "pretrain si": groups}


@pytest.mark.parametrize("seeds, parallelism, workers", [
    ([0], 64, 1),        # one group
    ([0, 1, 2], 64, 3),  # three groups
    ([0, 1, 2], 2, 2),
])
def test_suite_pool_has_no_more_workers_than_groups(monkeypatch, seeds, parallelism, workers):
    sizes = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: runs each job when submitted, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pipeline.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    plans = sweep_plans(_fast_plan(), methods=["tgt", "emcdr"], seeds=seeds)
    rows = run_suite(plans, parallelism=parallelism, record_runtime=False)
    assert sizes == [workers]
    assert rows == run_suite(plans, record_runtime=False)


@pytest.mark.parametrize("base_model, finetune_items",
                         [("mf", False), ("mf", True), ("gmf", True), ("two_tower", True)])
def test_suite_plans_leave_their_shared_inputs_unchanged(monkeypatch, base_model,
                                                         finetune_items):
    run_plan = pipeline.run_plan
    groups = []  # (shared dict, {key: pickled entry as first handed out})

    def unchanged():
        for shared, pickled in groups:
            assert {key: pickle.dumps(shared[key]) for key in pickled} == pickled

    def checked(plan, pretrained):
        unchanged()
        result = run_plan(plan, pretrained)
        unchanged()
        pickled = next((p for shared, p in groups if shared is pretrained), None)
        if pickled is None:
            pickled = {}
            groups.append((pretrained, pickled))
        for key, value in pretrained.items():
            pickled.setdefault(key, pickle.dumps(value))
        return result

    monkeypatch.setattr(pipeline, "run_plan", checked)
    base = replace(_fast_plan(), base_model=base_model, finetune_items=finetune_items)
    rows = run_suite(sweep_plans(base, methods=list(METHODS), seeds=[0, 1]),
                     record_runtime=False)
    assert all(r["stage"] in ("cold", "warm") for r in rows)
    assert len(groups) == 2
    for _, pickled in groups:
        assert set(pickled) == {"src", "tgt", "split", "tgt_train", "tgt_model", "tgt_trace",
                                "src_model", "src_trace"}


def test_suite_beta_sweep_monotone_for_ptupcdr():
    # fewer training overlap users (larger beta) cannot help the meta stage
    spec = SyntheticSpec(**SMALL, noise_sd=0.1)
    means = []
    for beta in (0.2, 0.5, 0.8):
        maes = [run_cold(_plan(spec, "ptupcdr", seed=s, beta=beta)).report.mae
                for s in (0, 1, 2)]
        means.append(float(np.mean(maes)))
    assert means[0] <= means[1] <= means[2]


@pytest.mark.parametrize("base_model", ["gmf", "two_tower"])
def test_bridge_methods_generalize_across_base_models(base_model):
    spec = SyntheticSpec(**SMALL, noise_sd=0.0, bridge_family="per_user_linear")
    maes = {}
    for method in ("tgt", "emcdr", "ptupcdr"):
        plan = ExperimentPlan(task=SyntheticTask(spec), method=method,
                              base_model=base_model, k=spec.k_true, beta=0.2, seed=0,
                              pretrain=TrainConfig(lr=0.01, epochs=120),
                              bridge=TrainConfig(lr=0.01, epochs=50),
                              finetune=TrainConfig(lr=0.01, epochs=50))
        cold = run_cold(plan)
        warm = run_warm(plan, cold)
        assert warm.mae <= cold.report.mae
        maes[method] = cold.report.mae
    assert maes["emcdr"] < maes["tgt"]
    assert maes["ptupcdr"] < maes["tgt"]


def test_personalized_bridges_halve_common_bridge_mse():
    # on the archetype world the generated bridges reach well under half the
    # common bridge's squared prediction error, averaged over seeds
    spec = SyntheticSpec(n_users_src=260, n_users_tgt=260, n_overlap=200,
                         n_items_src=150, n_items_tgt=150, k_true=6,
                         ratings_per_user=20, noise_sd=0.1,
                         bridge_family="per_user_linear")
    mse = {m: [] for m in ("emcdr", "ptupcdr")}
    for seed in (0, 1, 2):
        for method in mse:
            plan = ExperimentPlan(task=SyntheticTask(spec), method=method, k=6,
                                  beta=0.2, seed=seed,
                                  pretrain=TrainConfig(lr=0.01, epochs=60),
                                  bridge=TrainConfig(lr=0.01, epochs=40))
            mse[method].append(run_cold(plan).report.rmse ** 2)
    assert np.mean(mse["ptupcdr"]) < 0.5 * np.mean(mse["emcdr"])
