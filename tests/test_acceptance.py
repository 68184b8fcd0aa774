"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the PASS lines.
The full-corpus reproduction is opt-in (see test_amazon_task1_optional_long).
"""

import os
import time

import numpy as np
import pytest

from bridgerec.bridge import (CharacteristicEncoder, MetaNetwork,
                              TransferContext, mapping_oriented_loss,
                              task_oriented_loss, train_common_bridge)
from bridgerec.checkpoint import load_tensors, save_tensors
from bridgerec.data import make_split, verify_split
from bridgerec.models import DomainModel, TrainConfig, loss_and_grads
from bridgerec.nn import grad_check, prefix_params
from bridgerec.pipeline import (AmazonTask, ExperimentPlan, SyntheticSpec,
                                SyntheticTask, generate_synthetic, run_cold,
                                run_warm)
from reference import attention_scores, encode_characteristic, generate_bridge

# the personalization world the headline criteria run on
PERSONALIZED = SyntheticSpec(n_users_src=260, n_users_tgt=260, n_overlap=200,
                             n_items_src=150, n_items_tgt=150, k_true=6,
                             ratings_per_user=20, noise_sd=0.1,
                             bridge_family="per_user_linear")


def _plan(spec, method, seed=0, beta=0.2, finetune_epochs=100):
    return ExperimentPlan(task=SyntheticTask(spec), method=method, k=spec.k_true,
                          beta=beta, seed=seed,
                          pretrain=TrainConfig(lr=0.01, epochs=60),
                          bridge=TrainConfig(lr=0.01, epochs=40),
                          finetune=TrainConfig(lr=0.01, epochs=finetune_epochs))


def _verdict(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    k = 4
    rng = np.random.default_rng(0)

    # (a) pre-train loss of every scoring head
    for head in ("mf", "gmf", "two_tower"):
        model = DomainModel(3, 5, k, head, rng=np.random.default_rng(4))
        u = np.array([0, 1, 2, 0])
        i = np.array([1, 2, 3, 4])
        r = rng.uniform(0, 5, 4)
        err = grad_check(lambda p: loss_and_grads(model, u, i, r)[0],
                         lambda p: loss_and_grads(model, u, i, r)[1],
                         model.params(), eps=1e-5)
        assert err < 1e-4, f"{head} pre-train gradients: {err}"

    ctx = TransferContext(
        user_reprs=rng.normal(size=(3, k)),
        item_reprs=rng.normal(size=(6, k)),
        sequences={0: np.array([0, 1, 2]), 1: np.array([3, 4]),
                   2: np.array([5, 0, 1, 3])},
        tgt_scoring=rng.normal(size=(6, k)),
        tgt_user_reprs=rng.normal(size=(3, k)))

    # (b) embedding-matching loss, both the common matrix and the generated form
    W = rng.normal(size=(k, k))
    err = grad_check(
        lambda p: mapping_oriented_loss(p["W"], ctx.user_reprs, ctx.tgt_user_reprs)[0],
        lambda p: mapping_oriented_loss(p["W"], ctx.user_reprs, ctx.tgt_user_reprs)[1],
        {"W": W}, eps=1e-5)
    assert err < 1e-4, f"common-bridge gradients: {err}"

    # (c) full rating-task loss through generator, encoder and softmax (3 users)
    enc = CharacteristicEncoder(k, rng=np.random.default_rng(1))
    meta = MetaNetwork(k, rng=np.random.default_rng(2))
    su = np.array([0, 0, 1, 1, 2, 2, 2])
    it = np.array([0, 3, 1, 4, 2, 5, 0])
    r = rng.uniform(0, 5, len(su))
    params = prefix_params("enc.", enc.params()) | prefix_params("meta.", meta.params())
    err = grad_check(lambda p: task_oriented_loss(enc, meta, ctx, su, it, r)[0],
                     lambda p: task_oriented_loss(enc, meta, ctx, su, it, r)[1],
                     params, eps=1e-5)
    assert err < 1e-4, f"task-loss gradients: {err}"

    seq_embs = [ctx.item_reprs[ctx.sequences[i]] for i in range(3)]
    err = grad_check(
        lambda p: mapping_oriented_loss((enc, meta), ctx.user_reprs,
                                        ctx.tgt_user_reprs, seq_embs)[0],
        lambda p: mapping_oriented_loss((enc, meta), ctx.user_reprs,
                                        ctx.tgt_user_reprs, seq_embs)[1],
        params, eps=1e-5)
    assert err < 1e-4, f"generated-bridge mapping gradients: {err}"

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    _verdict(1, "gradient correctness")


def test_criterion_2_attention_invariants():
    rng = np.random.default_rng(3)
    enc = CharacteristicEncoder(6, rng=np.random.default_rng(4))
    for trial in range(20):
        V = rng.normal(size=(rng.integers(1, 12), 6))
        w = attention_scores(enc, V)
        assert abs(w.sum() - 1.0) < 1e-12
        p = encode_characteristic(enc, V)
        perm = rng.permutation(len(V))
        np.testing.assert_allclose(encode_characteristic(enc, V[perm]), p, atol=1e-12)
    v = rng.normal(size=6)
    np.testing.assert_array_equal(encode_characteristic(enc, v[None, :]), v)
    _verdict(2, "attention invariants")


def test_criterion_3_bridge_linearity_and_serialization(tmp_path):
    rng = np.random.default_rng(5)
    k = 6
    meta = MetaNetwork(k, rng=np.random.default_rng(6))
    p = rng.normal(size=k)
    W = generate_bridge(meta, p)
    assert W.shape == (k, k)
    np.testing.assert_array_equal(W.reshape(-1), meta.net.forward(p))  # row-major

    u, v = rng.normal(size=k), rng.normal(size=k)
    np.testing.assert_array_equal(W @ (2.0 * u), 2.0 * (W @ u))
    for a, b in ((1.0, -1.0), (0.25, 3.5), (-2.0, 0.125)):
        np.testing.assert_allclose(W @ (a * u + b * v), a * (W @ u) + b * (W @ v),
                                   atol=1e-12)

    save_tensors(tmp_path / "bridge", "common_bridge", {"W": W})
    loaded, _ = load_tensors(tmp_path / "bridge", "common_bridge")
    assert loaded["W"].tobytes() == W.tobytes()
    _verdict(3, "bridge linearity and serialization")


def test_criterion_4_shared_linear_map_recovery():
    start = time.monotonic()
    spec = SyntheticSpec(n_users_src=260, n_users_tgt=260, n_overlap=200,
                         n_items_src=150, n_items_tgt=150, k_true=6,
                         ratings_per_user=20, noise_sd=0.0,
                         bridge_family="shared_linear")
    src, tgt, truth = generate_synthetic(spec, seed=3)
    A = truth.shared_bridge
    pairs_src = np.stack([truth.src_user_factors[src.users.index(u)]
                          for u in truth.overlap_ids])
    pairs_tgt = np.stack([truth.tgt_user_factors[tgt.users.index(u)]
                          for u in truth.overlap_ids])
    W, _ = train_common_bridge(pairs_src, pairs_tgt,
                               TrainConfig(lr=0.01, epochs=4000), seed=0)
    # independent closed-form least-squares oracle
    lstsq = np.linalg.lstsq(pairs_src, pairs_tgt, rcond=None)[0].T
    assert np.linalg.norm(lstsq - A) < 1e-9
    assert np.linalg.norm(W - A) < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"recovery took {elapsed:.1f}s"
    _verdict(4, "shared linear map recovery")


def test_criterion_5_personalization_separation():
    start = time.monotonic()
    means = {}
    for method in ("tgt", "emcdr", "ptupcdr"):
        maes = [run_cold(_plan(PERSONALIZED, method, seed=s)).report.mae
                for s in (0, 1, 2)]
        means[method] = float(np.mean(maes))
    assert means["ptupcdr"] < 0.8 * means["emcdr"], means
    assert means["emcdr"] < means["tgt"], means
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"separation suite took {elapsed:.1f}s"
    print(f"\n  cold MAE over 3 seeds: ptupcdr={means['ptupcdr']:.4f} "
          f"emcdr={means['emcdr']:.4f} tgt={means['tgt']:.4f}")
    _verdict(5, "personalization separation")


def test_criterion_6_sample_count_accounting():
    plan = _plan(PERSONALIZED, "ptupcdr", seed=1)
    cold = run_cold(plan)
    n_train = len(cold.split.train_overlap_users)
    m = PERSONALIZED.ratings_per_user
    train_users = [cold.tgt.users.index(u) for u in cold.split.train_overlap_users]
    train_rows = cold.tgt.user_idx[cold.split.target_train_indices]
    distinct = int(np.isin(train_rows, train_users).sum())
    assert distinct == m * n_train
    record = cold.report.traces["bridge"]
    assert record.examples == distinct  # each distinct example drawn once per epoch
    assert record.examples * len(record.losses) == m * n_train * plan.bridge.epochs  # consumed

    ablation = run_cold(_plan(PERSONALIZED, "ptupcdr_mapping_ablation", seed=1))
    map_record = ablation.report.traces["bridge"]
    assert map_record.examples == n_train
    assert map_record.examples * len(map_record.losses) == n_train * ablation.plan.bridge.epochs
    print(f"\n  task-oriented examples: {m * n_train}, mapping-oriented: {n_train}")
    _verdict(6, "sample-count accounting")


def test_criterion_7_protocol_hygiene():
    src, tgt, _ = generate_synthetic(PERSONALIZED, seed=2)
    plan = make_split(src, tgt, beta=0.2, seed=11)
    verify_split(plan, src, tgt)

    train_rows = set(plan.target_train_indices.tolist())
    for u in plan.test_users:
        held = set(plan.cold[u].tolist()) | set(plan.warm[u].tolist())
        assert not (held & train_rows)
        if len(plan.warm[u]):
            assert tgt.timestamp[plan.cold[u]].max() <= tgt.timestamp[plan.warm[u]].min()

    again = make_split(src, tgt, beta=0.2, seed=11)
    assert plan.to_json().encode() == again.to_json().encode()
    _verdict(7, "protocol hygiene")


def test_criterion_8_warm_start_shape():
    spec = SyntheticSpec(n_users_src=260, n_users_tgt=260, n_overlap=200,
                         n_items_src=150, n_items_tgt=150, k_true=6,
                         ratings_per_user=20, noise_sd=0.0,
                         bridge_family="per_user_linear")
    warm_mae = {}
    for method in ("tgt", "cmf", "emcdr", "ptupcdr"):
        plan = _plan(spec, method, seed=0)
        cold = run_cold(plan)
        warm = run_warm(plan, cold)
        assert warm.mae <= cold.report.mae, (method, cold.report.mae, warm.mae)
        warm_mae[method] = warm.mae
    assert warm_mae["ptupcdr"] <= warm_mae["tgt"]
    _verdict(8, "warm-start shape")


AMAZON_SRC = os.environ.get("BRIDGEREC_AMAZON_SRC")
AMAZON_TGT = os.environ.get("BRIDGEREC_AMAZON_TGT")


@pytest.mark.skipif(not (AMAZON_SRC and AMAZON_TGT),
                    reason="long-running corpus reproduction; set BRIDGEREC_AMAZON_SRC "
                           "and BRIDGEREC_AMAZON_TGT to the movie/music rating logs")
def test_amazon_task1_optional_long():
    # published reference points for the movie->music task at beta=20%:
    # ptupcdr 1.1504, emcdr 1.2350 (five-run means)
    task = AmazonTask(AMAZON_SRC, AMAZON_TGT, name="task1")
    results = {}
    for method in ("emcdr", "ptupcdr"):
        maes = []
        for seed in range(5):
            plan = ExperimentPlan(task=task, method=method, beta=0.2, seed=seed, k=10,
                                  pretrain=TrainConfig(lr=0.01, epochs=10),
                                  bridge=TrainConfig(lr=0.01, epochs=10),
                                  finetune=TrainConfig(lr=0.01, epochs=20))
            maes.append(run_cold(plan).report.mae)
        results[method] = float(np.mean(maes))
    assert abs(results["ptupcdr"] - 1.1504) / 1.1504 < 0.15
    assert results["ptupcdr"] < results["emcdr"]
    _verdict(9, "corpus-scale reproduction")
