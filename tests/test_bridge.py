import re

import numpy as np
import pytest

from bridgerec.bridge import (CharacteristicEncoder, ColdSourceUserError,
                              MetaNetwork, TransferContext, load_bridge_nets,
                              mapping_oriented_loss, save_bridge_nets,
                              task_oriented_loss, train_common_bridge,
                              train_meta, train_meta_mapping, transform_user)
from bridgerec.checkpoint import load_tensors, save_tensors
from bridgerec.models import TrainConfig
from bridgerec.nn import grad_check, prefix_params, softmax
from conftest import edit_checkpoint
from reference import (apply_bridge, attention_scores, encode_characteristic,
                       generate_bridge)


def _enc(k=4, seed=1, **kw):
    return CharacteristicEncoder(k, rng=np.random.default_rng(seed), **kw)


def _meta(k=4, seed=2, **kw):
    return MetaNetwork(k, rng=np.random.default_rng(seed), **kw)


def _ctx(k=4, n_users=3, n_items=6, seed=7, without=()):
    """A three-user context; the users in ``without`` have no source sequence."""
    rng = np.random.default_rng(seed)
    sequences = {0: np.array([0, 1, 2]), 1: np.array([3, 4]), 2: np.array([5, 0, 1, 3])}
    return TransferContext(
        user_reprs=rng.normal(size=(n_users, k)),
        item_reprs=rng.normal(size=(n_items, k)),
        sequences={u: seq for u, seq in sequences.items() if u not in without},
        tgt_scoring=rng.normal(size=(n_items, k)),
        tgt_user_reprs=rng.normal(size=(n_users, k)))


# ---------------------------------------------------------------------------
# attention pooling

def test_attention_singleton_weight_is_one():
    enc = _enc()
    np.testing.assert_array_equal(attention_scores(enc, np.ones((1, 4))), [1.0])


def test_attention_identical_items_split_evenly():
    enc = _enc()
    v = np.random.default_rng(0).normal(size=4)
    np.testing.assert_allclose(attention_scores(enc, np.stack([v, v])), [0.5, 0.5],
                               atol=1e-15)


def test_attention_matches_straight_line_oracle():
    enc = _enc(seed=3)
    V = np.random.default_rng(4).normal(size=(3, 4))
    raw = [float(enc.net.forward(v)[0]) for v in V]  # per-item score
    np.testing.assert_allclose(attention_scores(enc, V), softmax(raw), atol=1e-12)


def test_attention_weights_sum_to_one():
    enc = _enc(seed=5)
    V = np.random.default_rng(6).normal(size=(9, 4))
    w = attention_scores(enc, V)
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_attention_empty_sequence_is_an_error():
    with pytest.raises(ColdSourceUserError):
        attention_scores(_enc(), np.zeros((0, 4)))


def test_attention_truncates_to_most_recent():
    enc = _enc(max_seq_len=3)
    V = np.random.default_rng(8).normal(size=(5, 4))
    w = attention_scores(enc, V)
    assert len(w) == 3
    np.testing.assert_allclose(w, attention_scores(_enc(max_seq_len=None), V[-3:]),
                               atol=1e-15)


def test_encode_singleton_returns_item_exactly():
    enc = _enc()
    v = np.random.default_rng(9).normal(size=4)
    np.testing.assert_array_equal(encode_characteristic(enc, v[None, :]), v)


def test_encode_uniform_weights_average_items():
    enc = _enc(k=2)
    for p in enc.params().values():
        p[...] = 0.0  # zero net scores every item equally
    out = encode_characteristic(enc, np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)


def test_encode_matches_weighted_sum_oracle():
    enc = _enc(seed=10)
    V = np.random.default_rng(11).normal(size=(5, 4))
    w = attention_scores(enc, V)
    expected = sum(w[i] * V[i] for i in range(5))
    np.testing.assert_allclose(encode_characteristic(enc, V), expected, atol=1e-12)


def test_encode_is_permutation_invariant():
    enc = _enc(seed=12)
    V = np.random.default_rng(13).normal(size=(6, 4))
    p = encode_characteristic(enc, V)
    rng = np.random.default_rng(14)
    for _ in range(5):
        perm = rng.permutation(6)
        np.testing.assert_allclose(encode_characteristic(enc, V[perm]), p, atol=1e-12)
        np.testing.assert_allclose(attention_scores(enc, V[perm]),
                                   attention_scores(enc, V)[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# bridge generation and application

def test_generate_bridge_zero_net_gives_zero_matrix():
    meta = _meta(k=3)
    for p in meta.params().values():
        p[...] = 0.0
    np.testing.assert_array_equal(generate_bridge(meta, np.ones(3)), np.zeros((3, 3)))


def test_generate_bridge_reshape_is_row_major():
    meta = _meta(k=2)
    for p in meta.params().values():
        p[...] = 0.0
    meta.net.b2[...] = [1.0, 2.0, 3.0, 4.0]
    np.testing.assert_array_equal(generate_bridge(meta, np.zeros(2)),
                                  [[1.0, 2.0], [3.0, 4.0]])


def test_generate_bridge_identity_construction():
    meta = _meta(k=2)
    for p in meta.params().values():
        p[...] = 0.0
    meta.net.b2[...] = [1.0, 0.0, 0.0, 1.0]
    W = generate_bridge(meta, np.array([0.3, -0.4]))
    np.testing.assert_array_equal(W, np.eye(2))


def test_generate_bridge_matches_forward_oracle():
    meta = _meta(k=4, seed=20)
    p = np.random.default_rng(21).normal(size=4)
    np.testing.assert_array_equal(generate_bridge(meta, p),
                                  meta.net.forward(p).reshape(4, 4))


def test_generate_bridge_dimension_check():
    with pytest.raises(ValueError):
        generate_bridge(_meta(k=4), np.zeros(3))


def test_apply_bridge_identity_zero_permutation():
    u = np.array([3.0, 7.0])
    np.testing.assert_array_equal(apply_bridge(np.eye(2), u), u)
    np.testing.assert_array_equal(apply_bridge(np.zeros((2, 2)), u), [0.0, 0.0])
    np.testing.assert_array_equal(apply_bridge(np.array([[0.0, 1.0], [1.0, 0.0]]), u),
                                  [7.0, 3.0])


def test_apply_bridge_is_linear():
    rng = np.random.default_rng(22)
    W = rng.normal(size=(5, 5))
    u, v = rng.normal(size=5), rng.normal(size=5)
    # power-of-two homogeneity is exact in floating point
    np.testing.assert_array_equal(apply_bridge(W, 2.0 * u), 2.0 * apply_bridge(W, u))
    # general linear combinations to machine tolerance
    for a, b in ((1.0, 1.0), (0.3, -2.5), (-1.7, 0.01)):
        np.testing.assert_allclose(apply_bridge(W, a * u + b * v),
                                   a * apply_bridge(W, u) + b * apply_bridge(W, v),
                                   atol=1e-12)


def test_apply_bridge_shape_errors():
    with pytest.raises(ValueError):
        apply_bridge(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        apply_bridge(np.zeros((3, 3)), np.zeros(2))


# ---------------------------------------------------------------------------
# task-oriented loss

def _identity_bridge_nets(k):
    enc = CharacteristicEncoder(k, rng=np.random.default_rng(0))
    meta = MetaNetwork(k, rng=np.random.default_rng(0))
    for p in meta.params().values():
        p[...] = 0.0
    meta.net.b2[...] = np.eye(k).reshape(-1)
    return enc, meta


def test_task_loss_single_sample_is_squared_error():
    k = 3
    enc, meta = _identity_bridge_nets(k)  # every bridge is the identity
    ctx = _ctx(k=k)
    u, j = 0, 2
    pred = float(ctx.tgt_scoring[j] @ ctx.user_reprs[u])
    r = pred + 1.5
    loss, _, skipped = task_oriented_loss(enc, meta, ctx, np.array([u]),
                                          np.array([j]), np.array([r]))
    assert skipped == 0
    np.testing.assert_allclose(loss, 1.5 ** 2, rtol=1e-12)


def test_task_loss_zero_when_bridge_reproduces_ratings():
    k = 3
    enc, meta = _identity_bridge_nets(k)
    ctx = _ctx(k=k)
    users = np.array([0, 1, 2])
    items = np.array([1, 3, 5])
    ratings = np.array([float(ctx.tgt_scoring[j] @ ctx.user_reprs[u])
                        for u, j in zip(users, items)])
    loss, _, _ = task_oriented_loss(enc, meta, ctx, users, items, ratings)
    assert loss < 1e-24


def test_task_loss_skips_users_without_source_history():
    enc, meta = _enc(), _meta()
    ctx = _ctx(without=(1,))
    loss, _, skipped = task_oriented_loss(enc, meta, ctx, np.array([0, 1]),
                                          np.array([0, 1]), np.array([1.0, 2.0]))
    assert skipped == 1
    with pytest.raises(ValueError):
        ctx2 = _ctx(without=(0, 1, 2))
        task_oriented_loss(enc, meta, ctx2, np.array([0]), np.array([0]),
                           np.array([1.0]))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_task_loss_gradients_pass_grad_check(activation):
    k = 4
    enc = CharacteristicEncoder(k, activation=activation, rng=np.random.default_rng(1))
    meta = MetaNetwork(k, activation=activation, rng=np.random.default_rng(2))
    ctx = _ctx(k=k)
    rng = np.random.default_rng(3)
    su = np.array([0, 0, 1, 1, 2, 2, 2])
    it = np.array([0, 3, 1, 4, 2, 5, 0])
    r = rng.uniform(0, 5, len(su))
    params = prefix_params("enc.", enc.params()) | prefix_params("meta.", meta.params())
    err = grad_check(lambda p: task_oriented_loss(enc, meta, ctx, su, it, r)[0],
                     lambda p: task_oriented_loss(enc, meta, ctx, su, it, r)[1],
                     params, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# mapping-oriented loss

def test_mapping_loss_zero_for_identity_and_equal_embeddings():
    U = np.random.default_rng(30).normal(size=(4, 3))
    loss, grads = mapping_oriented_loss(np.eye(3), U, U)
    assert loss == 0.0
    np.testing.assert_array_equal(grads["W"], np.zeros((3, 3)))


def test_mapping_loss_is_squared_norm():
    u = np.zeros((1, 4))
    t = -np.array([[3.0, 4.0, 0.0, 0.0]])
    loss, _ = mapping_oriented_loss(np.eye(4), u, t)
    assert loss == 25.0


def test_mapping_loss_common_gradient_checks():
    rng = np.random.default_rng(31)
    U, T = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    W = rng.normal(size=(3, 3))
    params = {"W": W}
    err = grad_check(lambda p: mapping_oriented_loss(p["W"], U, T)[0],
                     lambda p: mapping_oriented_loss(p["W"], U, T)[1],
                     params, eps=1e-5)
    assert err < 1e-6


def test_mapping_loss_through_nets_gradient_checks():
    k = 4
    enc, meta = _enc(seed=32), _meta(seed=33)
    ctx = _ctx(k=k)
    seq_embs = [ctx.item_reprs[ctx.sequences[i]] for i in range(3)]
    params = prefix_params("enc.", enc.params()) | prefix_params("meta.", meta.params())
    fn = lambda p: mapping_oriented_loss((enc, meta), ctx.user_reprs,
                                         ctx.tgt_user_reprs, seq_embs)
    err = grad_check(lambda p: fn(p)[0], lambda p: fn(p)[1], params, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# bridge training

def test_common_bridge_recovers_planted_map():
    rng = np.random.default_rng(40)
    k, n = 4, 60
    A = rng.normal(size=(k, k))
    U = rng.normal(size=(n, k))
    T = U @ A.T
    W, record = train_common_bridge(U, T, TrainConfig(lr=0.01, epochs=3000), seed=0)
    lstsq = np.linalg.lstsq(U, T, rcond=None)[0].T  # closed-form oracle
    np.testing.assert_allclose(lstsq, A, atol=1e-10)
    assert np.linalg.norm(W - A) < 1e-3
    assert record.examples == n


def test_common_bridge_requires_supervision():
    with pytest.raises(ValueError, match="no supervision"):
        train_common_bridge(np.zeros((0, 3)), np.zeros((0, 3)),
                            TrainConfig(lr=0.01, epochs=1))


def test_common_bridge_single_user_reaches_zero_loss():
    rng = np.random.default_rng(41)
    u = rng.normal(size=(1, 2))
    t = rng.normal(size=(1, 2))
    W, record = train_common_bridge(u, t, TrainConfig(lr=0.02, epochs=2000), seed=0)
    assert record.losses[-1] < 1e-10
    np.testing.assert_allclose(W @ u[0], t[0], atol=1e-5)


def test_train_meta_is_deterministic_and_counts_samples():
    k = 3
    n_users, ratings_per_user = 10, 5
    rng = np.random.default_rng(42)
    ctx = TransferContext(
        user_reprs=rng.normal(size=(n_users, k)),
        item_reprs=rng.normal(size=(20, k)),
        sequences={u: rng.integers(0, 20, size=4) for u in range(n_users)},
        tgt_scoring=rng.normal(size=(15, k)),
        tgt_user_reprs=rng.normal(size=(n_users, k)))
    su = np.repeat(np.arange(n_users), ratings_per_user)
    it = rng.integers(0, 15, size=len(su))
    r = rng.uniform(0, 5, size=len(su))

    results = []
    for _ in range(2):
        enc = CharacteristicEncoder(k, rng=np.random.default_rng(1))
        meta = MetaNetwork(k, rng=np.random.default_rng(2))
        record = train_meta(enc, meta, ctx, su, it, r,
                            TrainConfig(lr=0.01, epochs=3), seed=5)
        results.append((enc.net.W1.copy(), meta.net.W2.copy(), record))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])

    record = results[0][2]
    assert record.examples == n_users * ratings_per_user  # 50
    # the ablation objective sees one example per user instead
    enc = CharacteristicEncoder(k, rng=np.random.default_rng(1))
    meta = MetaNetwork(k, rng=np.random.default_rng(2))
    map_record = train_meta_mapping(enc, meta, ctx, np.arange(n_users),
                                    np.arange(n_users),
                                    TrainConfig(lr=0.01, epochs=3), seed=5)
    assert map_record.examples == n_users  # 10


def test_train_meta_warns_once_about_skipped_samples(caplog):
    ctx = _ctx(k=3, without=(1,))
    su = np.array([0, 1, 2, 1, 0, 2, 1, 2])
    it = np.arange(len(su)) % 6
    record = train_meta(_enc(k=3), _meta(k=3), ctx, su, it, np.full(len(su), 2.0),
                        TrainConfig(lr=0.01, epochs=3, batch_size=len(su)), seed=0)
    epochs = len(record.losses)
    assert record.skipped * epochs == 3 * 3
    assert record.examples * epochs + record.skipped * epochs == 3 * len(su)
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "9 samples" in warnings[0].getMessage()


@pytest.mark.parametrize("seed", range(5))
def test_train_meta_survives_batches_without_source_history(seed):
    # four of six samples belong to user 1, so every epoch of 2-sample batches
    # has a batch made only of user 1
    ctx = _ctx(k=3, without=(1,))
    su = np.array([0, 1, 1, 2, 1, 1])
    record = train_meta(_enc(k=3), _meta(k=3), ctx, su, np.arange(len(su)), np.full(len(su), 2.0),
                        TrainConfig(lr=0.01, epochs=3, batch_size=2), seed=seed)
    assert len(record.losses) == 3
    assert record.skipped * len(record.losses) == 4 * 3
    assert record.examples * len(record.losses) == 2 * 3


def test_train_meta_rejects_empty_supervision():
    enc, meta = _enc(k=3), _meta(k=3)
    ctx = _ctx(k=3)
    with pytest.raises(ValueError):
        train_meta(enc, meta, ctx, np.zeros(0, int), np.zeros(0, int), np.zeros(0),
                   TrainConfig(lr=0.01, epochs=1))


def test_identical_histories_get_identical_bridges():
    k = 3
    enc, meta = _enc(k=k, seed=50), _meta(k=k, seed=51)
    rng = np.random.default_rng(52)
    ctx = TransferContext(
        user_reprs=np.tile(rng.normal(size=k), (2, 1)),
        item_reprs=rng.normal(size=(6, k)),
        sequences={0: np.array([1, 3, 4]), 1: np.array([1, 3, 4])},
        tgt_scoring=rng.normal(size=(6, k)),
        tgt_user_reprs=rng.normal(size=(2, k)))
    np.testing.assert_array_equal(transform_user(enc, meta, ctx, 0),
                                  transform_user(enc, meta, ctx, 1))


def test_bridge_nets_checkpoint_round_trip(tmp_path):
    enc, meta = _enc(seed=60), _meta(seed=61)
    save_bridge_nets(tmp_path / "nets", enc, meta)
    enc2, meta2 = load_bridge_nets(tmp_path / "nets")
    p = np.random.default_rng(62).normal(size=4)
    np.testing.assert_array_equal(generate_bridge(meta2, p), generate_bridge(meta, p))
    V = np.random.default_rng(63).normal(size=(3, 4))
    np.testing.assert_array_equal(attention_scores(enc2, V), attention_scores(enc, V))


@pytest.mark.parametrize("name", ["enc.b1", "meta.W2"])
@pytest.mark.parametrize("case", ["name", "shape", "scalar"])
def test_load_bridge_nets_rejects_a_wrong_name_or_shape(tmp_path, name, case):
    save_bridge_nets(tmp_path / "nets", _enc(seed=60), _meta(seed=61))
    edit_checkpoint(tmp_path / "nets", name, case)
    with pytest.raises(ValueError, match="checkpoint at"):
        load_bridge_nets(tmp_path / "nets")


@pytest.mark.parametrize("k", [4.0, "4", 0, True, None])
def test_load_bridge_nets_rejects_a_k_that_is_not_an_int_of_at_least_one(tmp_path, k):
    save_bridge_nets(tmp_path / "nets", _enc(seed=60), _meta(seed=61))
    edit_checkpoint(tmp_path / "nets", "k", "meta_value", k)
    message = f"checkpoint at {tmp_path / 'nets'} has k {k!r}, expected an int >= 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_bridge_nets(tmp_path / "nets")


@pytest.mark.parametrize("max_seq_len", [0, -3, 2.5, 3.0, True])
def test_encoder_rejects_a_sequence_cap_below_one(tmp_path, max_seq_len):
    message = "max_seq_len must be " + ("None or >= 1" if type(max_seq_len) is int else "an int")
    with pytest.raises(ValueError, match=message):
        _enc(max_seq_len=max_seq_len)
    save_bridge_nets(tmp_path / "nets", _enc(seed=60), _meta(seed=61))
    tensors, info = load_tensors(tmp_path / "nets")
    save_tensors(tmp_path / "nets", tensors, {**info, "max_seq_len": max_seq_len})
    with pytest.raises(ValueError, match=message):
        load_bridge_nets(tmp_path / "nets")
