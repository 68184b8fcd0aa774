"""The batched bridge kernel against a per-user reference.

The reference below runs one user at a time with the plain ``softmax`` and
its own truncation, the way the bridge losses were first written. The
batched kernel pads sequences into blocks and sums in a different order, so
results agree to rounding: 1e-12, relative to the largest gradient entry
(a per-entry relative error means nothing for ``enc.b2``, whose true
gradient is 0 and whose computed value is rounding noise on both sides).
"""

import numpy as np
import pytest

from bridgerec.bridge import (BLOCK_USERS, CharacteristicEncoder, ColdSourceUserError,
                              MetaNetwork, Sequences, TransferContext, _attention,
                              attention_table, mapping_oriented_loss, task_oriented_loss,
                              transform_user, transform_users)
from bridgerec.nn import grad_check, prefix_params, softmax
from reference import (attention_scores, padded_attention, padded_attention_table,
                       padded_mapping_loss, padded_task_loss, padded_transform_users)

TOL = 1e-12


# ---------------------------------------------------------------------------
# per-user reference

def _ref_forward(enc, meta, item_embs):
    V = np.atleast_2d(np.asarray(item_embs, dtype=np.float64))
    if enc.max_seq_len is not None and len(V) > enc.max_seq_len:
        V = V[-enc.max_seq_len:]
    raw, cache_h = enc.net.forward_cached(V)
    a = softmax(raw[:, 0])
    w, cache_g = meta.net.forward_cached(a @ V)
    return {"V": V, "a": a, "W": w.reshape(meta.k, meta.k),
            "cache_h": cache_h, "cache_g": cache_g}


def _ref_backward(enc, meta, fwd, dW, grads):
    g_grads, dp = meta.net.backward(fwd["cache_g"], dW.reshape(-1))
    a, V = fwd["a"], fwd["V"]
    da = V @ dp
    h_grads, _ = enc.net.backward(fwd["cache_h"], (a * (da - np.dot(a, da)))[:, None])
    for name, g in (prefix_params("enc.", h_grads) | prefix_params("meta.", g_grads)).items():
        grads[name] += g


def _zero_grads(enc, meta):
    params = prefix_params("enc.", enc.params()) | prefix_params("meta.", meta.params())
    return {n: np.zeros_like(p) for n, p in params.items()}


def ref_task_loss(enc, meta, ctx, src_user, tgt_item, rating):
    usable = np.array([len(ctx.sequences.get(int(u), ())) > 0 for u in src_user])
    src_user, tgt_item, rating = src_user[usable], tgt_item[usable], rating[usable]
    B = len(rating)
    grads = _zero_grads(enc, meta)
    loss = 0.0
    for u in np.unique(src_user):
        take = src_user == u
        fwd = _ref_forward(enc, meta, ctx.item_reprs[ctx.sequences[int(u)]])
        s_u = ctx.user_reprs[int(u)]
        Q = ctx.tgt_scoring[tgt_item[take]]
        err = Q @ (fwd["W"] @ s_u) - rating[take]
        loss += float(err @ err)
        _ref_backward(enc, meta, fwd, np.outer((2.0 / B) * (Q.T @ err), s_u), grads)
    return loss / B, grads, int((~usable).sum())


def ref_mapping_loss(enc, meta, u_src, u_tgt, seq_embs):
    grads = _zero_grads(enc, meta)
    loss = 0.0
    for i in range(len(u_src)):
        fwd = _ref_forward(enc, meta, seq_embs[i])
        e = fwd["W"] @ u_src[i] - u_tgt[i]
        loss += float(e @ e)
        _ref_backward(enc, meta, fwd, np.outer(2.0 * e, u_src[i]), grads)
    return loss, grads


def ref_transform_user(enc, meta, ctx, u):
    return _ref_forward(enc, meta, ctx.item_reprs[ctx.sequences[u]])["W"] @ ctx.user_reprs[u]


# ---------------------------------------------------------------------------
# fixtures

def _nets(activation, max_seq_len, k=4, seed=0):
    enc = CharacteristicEncoder(k, max_seq_len=max_seq_len, activation=activation,
                                rng=np.random.default_rng(seed))
    meta = MetaNetwork(k, activation=activation, rng=np.random.default_rng(seed + 1))
    return enc, meta


def _world(n_users, k=4, n_items=40, cap=5, seed=0):
    """Sequence lengths cycle through 1, cap, above cap and in between;
    every seventh user has no source sequence."""
    rng = np.random.default_rng(seed)
    lengths = [1, cap, cap + 3, 2, 3 * cap]
    sequences = {u: rng.integers(0, n_items, size=lengths[u % len(lengths)])
                 for u in range(n_users) if u % 7 != 6}
    return TransferContext(
        user_reprs=rng.normal(size=(n_users, k)),
        item_reprs=rng.normal(size=(n_items, k)),
        sequences=sequences,
        tgt_scoring=rng.normal(size=(n_items, k)),
        tgt_user_reprs=rng.normal(size=(n_users, k)))


def _assert_grads_close(got, want):
    assert got.keys() == want.keys()
    scale = max(np.max(np.abs(g)) for g in want.values())
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= TOL * scale, name


CASES = [(act, cap) for act in ("relu", "tanh") for cap in (5, None)]


# ---------------------------------------------------------------------------
# equivalence with the reference

@pytest.mark.parametrize("activation,max_seq_len", CASES)
def test_task_loss_matches_per_user_reference(activation, max_seq_len):
    n_users = 2 * BLOCK_USERS + 20  # three blocks, the last one partial
    ctx = _world(n_users)
    enc, meta = _nets(activation, max_seq_len)
    rng = np.random.default_rng(1)
    su = np.concatenate([np.arange(n_users), rng.integers(0, n_users, size=300)])  # repeats
    rng.shuffle(su)
    it = rng.integers(0, 40, size=len(su))
    r = rng.uniform(0, 5, size=len(su))
    loss, grads, skipped = task_oriented_loss(enc, meta, ctx, su, it, r)
    want_loss, want_grads, want_skipped = ref_task_loss(enc, meta, ctx, su, it, r)
    assert len(np.unique(su[[int(u) in ctx.sequences for u in su]])) > BLOCK_USERS
    assert skipped == want_skipped > 0
    assert abs(loss - want_loss) <= TOL * want_loss
    _assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("activation,max_seq_len", CASES)
def test_mapping_loss_matches_per_user_reference(activation, max_seq_len):
    ctx = _world(BLOCK_USERS + 30)
    users = np.array(sorted(ctx.sequences))
    users = np.concatenate([users, users[:5]])  # a user may appear twice in a batch
    enc, meta = _nets(activation, max_seq_len)
    seq_embs = [ctx.item_reprs[ctx.sequences[int(u)]] for u in users]
    args = (ctx.user_reprs[users], ctx.tgt_user_reprs[users], seq_embs)
    loss, grads = mapping_oriented_loss((enc, meta), *args)
    want_loss, want_grads = ref_mapping_loss(enc, meta, *args)
    assert abs(loss - want_loss) <= TOL * want_loss
    _assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("activation,max_seq_len", CASES)
def test_transform_user_matches_per_user_reference(activation, max_seq_len):
    ctx = _world(BLOCK_USERS + 30)
    enc, meta = _nets(activation, max_seq_len)
    users = np.array(sorted(ctx.sequences))
    users = np.random.default_rng(2).permutation(np.concatenate([users, users[:5]]))
    batched = transform_users(enc, meta, ctx, users)  # two blocks, repeated users
    assert batched.shape == (len(users), meta.k)
    for u, got in zip(users.tolist(), batched):
        want = ref_transform_user(enc, meta, ctx, u)
        tol = TOL * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol
        assert np.max(np.abs(transform_user(enc, meta, ctx, u) - want)) <= tol
    with pytest.raises(ColdSourceUserError):
        transform_users(enc, meta, ctx, [0, 6])  # user 6 has no sequence


@pytest.mark.parametrize("max_seq_len", [5, None])
def test_attention_table_rows_equal_per_user_attention_scores(max_seq_len):
    ctx = _world(20)
    enc, _ = _nets("relu", max_seq_len)
    users = list(range(20))  # includes users with no sequence, which are left out
    user_col, item_col, weight_col = attention_table(enc, ctx, users)
    expected = []
    for u in users:
        seq = ctx.sequences.get(u)
        if seq is None:
            continue
        if max_seq_len is not None:
            seq = seq[-max_seq_len:]
        w = attention_scores(enc, ctx.item_reprs[seq])
        np.testing.assert_allclose(w, softmax(enc.net.forward(ctx.item_reprs[seq])[:, 0]),
                                   rtol=0, atol=TOL)
        expected.extend((u, int(i), float(x)) for i, x in zip(seq, w))
    assert list(zip(user_col.tolist(), item_col.tolist())) == [e[:2] for e in expected]
    np.testing.assert_allclose(weight_col, [e[2] for e in expected], rtol=0, atol=TOL)
    # no sequence for either user
    assert [len(c) for c in attention_table(enc, ctx, [6, 13])] == [0, 0, 0]


def test_non_finite_attention_scores_raise():
    ctx = _world(4)
    enc, meta = _nets("relu", 5)
    enc.net.b2[...] = np.inf
    with pytest.raises(ValueError, match="finite"):
        transform_user(enc, meta, ctx, 0)


# ---------------------------------------------------------------------------
# bit for bit against the list-padding kernel the flat sequence index replaced

def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_grads(got, want):
    assert got.keys() == want.keys()
    for name in want:
        _same_bytes(got[name], want[name])


FLAT = [(act, cap) for act in ("relu", "tanh") for cap in (None, 1, 3)]


@pytest.mark.parametrize("activation,max_seq_len", FLAT)
def test_flat_index_pads_each_block_as_the_list_kernel_did(activation, max_seq_len):
    ctx = _world(2 * BLOCK_USERS + 20, cap=3)  # lengths 1, 3, 6, 2, 9; every 7th user has none
    enc, _ = _nets(activation, max_seq_len)
    users = np.array(sorted(ctx.sequences))
    for block in (users[:BLOCK_USERS], users[BLOCK_USERS:], users[-3:], users[:1]):
        want = padded_attention(enc, [ctx.sequences[u] for u in block.tolist()], ctx.item_reprs)
        got = _attention(enc, ctx.sequences_of(block))
        embs = [ctx.item_reprs[ctx.sequences[u]] for u in block.tolist()]
        stacked = _attention(enc, Sequences.stack(embs))
        for g, s, w in zip(got[:2], stacked[:2], want[:2]):  # X and the weights
            _same_bytes(g, w)
            _same_bytes(s, w)


@pytest.mark.parametrize("activation,max_seq_len", FLAT)
def test_flat_index_losses_and_inference_equal_the_list_kernel(activation, max_seq_len):
    n_users = 2 * BLOCK_USERS + 20
    ctx = _world(n_users, cap=3)
    enc, meta = _nets(activation, max_seq_len)
    rng = np.random.default_rng(1)
    su = np.concatenate([np.arange(n_users), rng.integers(0, n_users + 5, size=300)])
    rng.shuffle(su)  # repeats, users without a sequence and users past the largest key
    it = rng.integers(0, 40, size=len(su))
    r = rng.uniform(0, 5, size=len(su))
    loss, grads, skipped = task_oriented_loss(enc, meta, ctx, su, it, r)
    want_loss, want_grads, want_skipped = padded_task_loss(enc, meta, ctx, su, it, r)
    assert (loss, skipped) == (want_loss, want_skipped) and skipped > 0
    _same_grads(grads, want_grads)

    users = np.array(sorted(ctx.sequences))
    users = rng.permutation(np.concatenate([users, users[:5]]))
    u_src, u_tgt = ctx.user_reprs[users], ctx.tgt_user_reprs[users]
    seq_embs = [ctx.item_reprs[ctx.sequences[u]] for u in users.tolist()]
    want_loss, want_grads = padded_mapping_loss(enc, meta, u_src, u_tgt, seq_embs)
    for seqs in (seq_embs, ctx.sequences_of(users)):
        loss, grads = mapping_oriented_loss((enc, meta), u_src, u_tgt, seqs)
        assert loss == want_loss
        _same_grads(grads, want_grads)

    _same_bytes(transform_users(enc, meta, ctx, users),
                padded_transform_users(enc, meta, ctx, users))
    for got, want in zip(attention_table(enc, ctx, np.arange(n_users + 5)),
                         padded_attention_table(enc, ctx, range(n_users + 5))):
        _same_bytes(got, want)
    for got, want in zip(attention_table(enc, ctx, []), padded_attention_table(enc, ctx, [])):
        _same_bytes(got, want)


def test_a_user_without_a_sequence_has_the_same_error_as_before():
    ctx = _world(20, cap=3)
    enc, meta = _nets("relu", 3)
    for users in ([0, 6, 13], [3, 40]):  # user 6 has no sequence, 40 is past the largest key
        with pytest.raises(ColdSourceUserError) as want:
            padded_transform_users(enc, meta, ctx, users)
        with pytest.raises(ColdSourceUserError) as got:
            transform_users(enc, meta, ctx, users)
        message = f"user index {users[1]} has no source interactions"
        assert str(got.value) == str(want.value) == message
    with pytest.raises(ColdSourceUserError, match="empty source sequence"):
        mapping_oriented_loss((enc, meta), ctx.user_reprs[:1], ctx.tgt_user_reprs[:1],
                              [np.zeros((0, 4))])


def test_the_sequences_of_a_context_are_read_only():
    ctx = _world(20)
    with pytest.raises(TypeError):
        ctx.sequences[0] = np.array([1])
    with pytest.raises(AttributeError):
        ctx.sequences.pop(0)
    with pytest.raises(AttributeError):
        ctx.sequences = {}


# ---------------------------------------------------------------------------
# gradient checks on the batched losses, mixed sequence lengths

def _check_grads(enc, meta, fn):
    """grad_check every parameter. enc.b2's true gradient is 0, because softmax
    is shift-invariant: its central difference is rounding noise that grows
    with the loss (1.8e-10 at loss 22), which grad_check judges against the
    largest gradient entry."""
    params = prefix_params("enc.", enc.params()) | prefix_params("meta.", meta.params())
    _, grads = fn()
    assert abs(grads["enc.b2"][0]) <= TOL * max(np.max(np.abs(g)) for g in grads.values())
    assert grad_check(lambda p: fn()[0], lambda p: fn()[1], params, eps=1e-5) < 1e-4


@pytest.mark.parametrize("max_seq_len", [5, None])
def test_batched_task_loss_passes_grad_check(max_seq_len):
    ctx = _world(14, k=3)
    enc, meta = _nets("tanh", max_seq_len, k=3, seed=4)
    rng = np.random.default_rng(5)
    su = np.array([0, 1, 1, 2, 3, 4, 5, 8, 9, 9, 12])
    it = rng.integers(0, 40, size=len(su))
    r = rng.uniform(0, 5, size=len(su))
    _check_grads(enc, meta, lambda: task_oriented_loss(enc, meta, ctx, su, it, r)[:2])


@pytest.mark.parametrize("max_seq_len", [5, None])
def test_batched_mapping_loss_passes_grad_check(max_seq_len):
    ctx = _world(14, k=3)
    enc, meta = _nets("tanh", max_seq_len, k=3, seed=6)
    users = np.array([0, 1, 2, 3, 4, 5, 7])
    seq_embs = [ctx.item_reprs[ctx.sequences[int(u)]] for u in users]
    _check_grads(enc, meta, lambda: mapping_oriented_loss(
        (enc, meta), ctx.user_reprs[users], ctx.tgt_user_reprs[users], seq_embs))


@pytest.mark.parametrize("max_seq_len", [5, None])
def test_batched_grad_check_flags_an_enc_b2_gradient_off_by_1e4_of_the_scale(max_seq_len):
    ctx = _world(14, k=3)
    enc, meta = _nets("tanh", max_seq_len, k=3, seed=6)
    users = np.array([0, 1, 2, 3, 4, 5, 7])
    seq_embs = [ctx.item_reprs[ctx.sequences[int(u)]] for u in users]
    params = prefix_params("enc.", enc.params()) | prefix_params("meta.", meta.params())

    def fn():
        return mapping_oriented_loss((enc, meta), ctx.user_reprs[users],
                                     ctx.tgt_user_reprs[users], seq_embs)

    def wrong(p):
        grads = fn()[1]
        grads["enc.b2"] = grads["enc.b2"] + 1e-4 * max(np.max(np.abs(g)) for g in grads.values())
        return grads

    assert grad_check(lambda p: fn()[0], wrong, params, eps=1e-5) > 0.5
