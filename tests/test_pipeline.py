import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgerec import pipeline
from bridgerec.data import build_sequences
from bridgerec.bridge import transform_user
from bridgerec.models import TrainConfig, predict_batch, pretrain, user_representation
from bridgerec.pipeline import (METHODS, AmazonTask, ExperimentPlan, SyntheticSpec,
                                SyntheticTask, _plan_rows, compute_metrics,
                                generate_synthetic, run_cold, run_suite,
                                run_warm, sweep_plans, write_suite_csv, write_suite_json)

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


SWEEP = dict(methods=["tgt", "cmf", "emcdr", "ptupcdr"], betas=[0.2, 0.4], seeds=[0, 1])


def test_suite_parallel_matches_serial(tmp_path):
    # the parallel path runs every plan alone in a worker and shares nothing
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
