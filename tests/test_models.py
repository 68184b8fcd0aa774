import numpy as np
import pytest

from bridgerec.data import IdMap, dataset_from_columns, filter_to_indices, make_split
from bridgerec.models import (HEADS, DomainModel, TrainConfig, cmf_train, dot_mse,
                              item_scoring_vectors, load_model, loss_and_grads,
                              predict_batch, pretrain, save_model, score,
                              user_representation, user_representations)
from bridgerec.nn import fit, grad_check, table_grad, uniform_init
from bridgerec.pipeline import SyntheticSpec, generate_synthetic
from conftest import edit_checkpoint, make_dataset


def _model(head, n_users=4, n_items=6, k=2, seed=0):
    return DomainModel(n_users, n_items, k, head, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# scoring

def test_mf_score_orthogonal_vectors():
    m = _model("mf")
    m.users[0] = [1.0, 0.0]
    m.items[0] = [0.0, 1.0]
    assert score(m, 0, 0) == 0.0


def test_mf_score_all_ones():
    m = _model("mf", k=3)
    m.users[1] = [1.0, 1.0, 1.0]
    m.items[2] = [1.0, 1.0, 1.0]
    assert score(m, 1, 2) == 3.0


def test_gmf_score_weighted_product():
    m = _model("gmf")
    m.gmf_weights[...] = [2.0, 1.0]
    m.users[0] = [1.0, 2.0]
    m.items[0] = [3.0, 4.0]
    # direct formula: sum_d w_d u_d v_d = 2*1*3 + 1*2*4
    expected = sum(w * u * v for w, u, v in zip([2.0, 1.0], [1.0, 2.0], [3.0, 4.0]))
    assert expected == 14.0
    assert score(m, 0, 0) == expected


def test_score_bilinear_in_user_for_mf():
    m = _model("mf", k=5, seed=3)
    base = score(m, 0, 1)
    m.users[0] *= 2.0  # power-of-two scaling keeps fp exactness
    assert score(m, 0, 1) == 2.0 * base


def test_score_index_out_of_range():
    m = _model("mf")
    with pytest.raises(IndexError):
        score(m, 99, 0)
    with pytest.raises(IndexError):
        score(m, 0, 99)


# ---------------------------------------------------------------------------
# representations

def test_mf_representation_is_the_row():
    m = _model("mf")
    np.testing.assert_array_equal(user_representation(m, 2), m.users[2])


def test_two_tower_identity_nets_give_the_row():
    k = 3
    m = _model("two_tower", k=k)
    m.users[1] = [0.4, 0.7, 0.2]  # positive so relu passes values through
    for net in (m.user_net, m.item_net):
        net.W1[...] = 0.0
        net.W1[:, :k] = np.eye(k)
        net.b1[...] = 0.0
        net.W2[...] = 0.0
        net.W2[:k, :] = np.eye(k)
        net.b2[...] = 0.0
    np.testing.assert_allclose(user_representation(m, 1), m.users[1], atol=0)


def test_two_tower_representation_matches_loop_oracle():
    m = _model("two_tower", k=2, seed=5)
    x = m.users[0]
    net = m.user_net
    hidden = np.maximum(x @ net.W1 + net.b1, 0.0)
    expected = hidden @ net.W2 + net.b2
    np.testing.assert_allclose(user_representation(m, 0), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# gradients

@pytest.mark.parametrize("head", ["mf", "gmf", "two_tower"])
def test_head_gradients_pass_grad_check(head):
    m = DomainModel(3, 5, 4, head, rng=np.random.default_rng(4))
    u = np.array([0, 1, 2, 0])
    i = np.array([1, 2, 3, 4])
    r = np.random.default_rng(0).uniform(0, 5, 4)
    err = grad_check(lambda p: loss_and_grads(m, u, i, r)[0],
                     lambda p: loss_and_grads(m, u, i, r)[1],
                     m.params(), eps=1e-5)
    assert err < 1e-4


@pytest.mark.parametrize("head", HEADS)
def test_every_head_scores_by_one_dot_product(head, planted_rank3):
    # run_cold and run_warm score a test user with exactly this product
    ds = planted_rank3[0]
    m, _ = pretrain(ds, k=3, head=head, config=TrainConfig(lr=0.02, epochs=3), seed=1)
    u, i = ds.user_idx, ds.item_idx
    pred = predict_batch(m, u, i)
    np.testing.assert_allclose(
        np.einsum("bk,bk->b", user_representations(m)[u], item_scoring_vectors(m)[i]),
        pred, rtol=0, atol=1e-12)
    loss, _ = loss_and_grads(m, u, i, ds.rating)
    assert abs(loss - np.mean((pred - ds.rating) ** 2)) <= 1e-12


def test_dot_mse_table_gradients_pass_grad_check():
    # the batch loss of cmf_train and of warm fine-tuning: rows gathered with repeats
    rng = np.random.default_rng(5)
    params = {"users": rng.normal(size=(3, 4)), "items": rng.normal(size=(5, 4))}
    u = np.array([0, 2, 0, 2, 1, 0])
    i = np.array([4, 1, 1, 4, 0, 4])
    r = rng.uniform(0, 5, len(u))

    def grads(p):
        _, dU, dV = dot_mse(p["users"][u], p["items"][i], r)
        return {"users": table_grad(p["users"], u, dU), "items": table_grad(p["items"], i, dV)}

    err = grad_check(lambda p: dot_mse(p["users"][u], p["items"][i], r)[0], grads,
                     params, eps=1e-5)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# pretraining

def test_pretrain_recovers_planted_rank3(planted_rank3):
    ds, _, _ = planted_rank3
    model, record = pretrain(ds, k=3, config=TrainConfig(lr=0.02, epochs=600), seed=0)
    trace = record.losses
    pred = predict_batch(model, ds.user_idx, ds.item_idx)
    rmse = float(np.sqrt(np.mean((pred - ds.rating) ** 2)))
    assert rmse < 0.05
    # loss trace decreases overall; small Adam wiggles tolerated
    assert trace[-1] < 0.1 * trace[0]
    for a, b in zip(trace, trace[1:]):
        assert b <= a * 1.05 + 1e-12


def test_pretrain_fits_single_rating():
    ds = make_dataset([("a", "x", 4.0, 0)])
    model, _ = pretrain(ds, k=1, config=TrainConfig(lr=0.1, epochs=300), seed=0)
    assert abs(score(model, 0, 0) - 4.0) < 0.01


def test_pretrain_same_seed_gives_byte_identical_checkpoints(tmp_path, planted_rank3):
    ds, _, _ = planted_rank3
    cfg = TrainConfig(lr=0.02, epochs=5)
    for run in ("one", "two"):
        model, _ = pretrain(ds, k=3, config=cfg, seed=9)
        save_model(tmp_path / run, model)
    assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_pretrain_rejects_empty_dataset():
    with pytest.raises(ValueError):
        pretrain(dataset_from_columns([], [], [], []), k=2)


@pytest.mark.parametrize("head", ["gmf", "two_tower"])
def test_pretrain_other_heads_learn(head):
    rng = np.random.default_rng(2)
    U = rng.uniform(0.2, 1.0, (15, 3))
    V = rng.uniform(0.2, 1.0, (15, 3))
    ds = make_dataset((f"u{a}", f"i{b}", float(U[a] @ V[b]), a * 15 + b)
                      for a in range(15) for b in range(15))
    model, record = pretrain(ds, k=3, head=head,
                             config=TrainConfig(lr=0.02, epochs=400), seed=1)
    assert record.losses[-1] < 0.05 * record.losses[0]


def test_model_checkpoint_round_trip(tmp_path):
    for head in ("mf", "gmf", "two_tower"):
        m = DomainModel(3, 4, 2, head, rng=np.random.default_rng(8))
        save_model(tmp_path / head, m)
        loaded = load_model(tmp_path / head)
        assert loaded.head == head
        u = np.array([0, 1, 2])
        i = np.array([1, 2, 3])
        np.testing.assert_array_equal(predict_batch(loaded, u, i), predict_batch(m, u, i))


@pytest.mark.parametrize("head, name", [("mf", "users"), ("gmf", "gmf_weights"),
                                        ("two_tower", "item_net.W1")])
@pytest.mark.parametrize("case", ["name", "shape", "scalar"])
def test_load_model_rejects_a_wrong_name_or_shape(tmp_path, head, name, case):
    save_model(tmp_path / "m", DomainModel(3, 4, 2, head, rng=np.random.default_rng(8)))
    edit_checkpoint(tmp_path / "m", name, case)
    with pytest.raises(ValueError, match=name):
        load_model(tmp_path / "m")


# ---------------------------------------------------------------------------
# CMF

def test_cmf_shares_users_across_domains():
    src = make_dataset([("a", "s0", 4, 0), ("b", "s1", 3, 1)])
    tgt = make_dataset([("b", "g0", 2, 0), ("c", "g1", 5, 1)])
    model, _ = cmf_train(src, tgt, k=2, config=TrainConfig(lr=0.02, epochs=2), seed=0)
    assert len(model.user_map) == 3  # a, b, c
    assert model.user_map.index("a") == 0 and "c" in model.user_map.forward


def test_cmf_identical_worlds_transfer_to_cold_users():
    # identity-bridged noiseless world: sharing the user factor is optimal, so
    # a user trained only through source ratings scores target items well
    from bridgerec.pipeline import SyntheticSpec, generate_synthetic
    from bridgerec.data import make_split, filter_to_indices, rows_by_user

    spec = SyntheticSpec(n_users_src=120, n_users_tgt=120, n_overlap=90,
                         n_items_src=80, n_items_tgt=80, k_true=4,
                         ratings_per_user=15, noise_sd=0.0,
                         bridge_family="shared_linear", identity_bridge=True)
    src, tgt, _ = generate_synthetic(spec, seed=0)
    split = make_split(src, tgt, beta=0.2, seed=0)
    tgt_train = filter_to_indices(tgt, split.target_train_indices)
    model, _ = cmf_train(src, tgt_train, k=4, config=TrainConfig(lr=0.01, epochs=80), seed=0)

    def rmse_on(ds, items_table, rows):
        uu = np.asarray([model.user_map.index(ds.users.external(i))
                         for i in ds.user_idx[rows]])
        pred = np.einsum("bk,bk->b", model.users[uu], items_table[ds.item_idx[rows]])
        return float(np.sqrt(np.mean((pred - ds.rating[rows]) ** 2)))

    cold_rows = np.concatenate([split.cold[u] for u in split.test_users])
    cold_rmse = rmse_on(tgt, model.tgt_items, cold_rows)
    src_rows = np.flatnonzero(np.isin(
        src.user_idx, [src.users.index(u) for u in split.test_users]))
    src_rmse = rmse_on(src, model.src_items, src_rows)
    assert cold_rmse < 0.3                   # far below the ~1.0 scale of ratings
    assert abs(cold_rmse - src_rmse) < 0.3   # comparable to the source-side fit


def test_cmf_empty_source_degenerates_to_target_only():
    src = dataset_from_columns([], [], [], [])
    rng = np.random.default_rng(1)
    U = rng.uniform(0.2, 1.0, (10, 2))
    V = rng.uniform(0.2, 1.0, (10, 2))
    tgt = make_dataset((f"u{a}", f"g{b}", float(U[a] @ V[b]), a * 10 + b)
                       for a in range(10) for b in range(10))
    model, record = cmf_train(src, tgt, k=2, config=TrainConfig(lr=0.02, epochs=300), seed=0)
    assert len(model.user_map) == tgt.n_users
    assert record.losses[-1] < 0.05 * record.losses[0]  # plain target-domain factorization


def test_cmf_rejects_two_empty_domains():
    with pytest.raises(ValueError):
        cmf_train(dataset_from_columns([], [], [], []), dataset_from_columns([], [], [], []), k=2)


def test_cmf_rejects_an_item_id_both_domains_share():
    src = make_dataset([("a", "s0", 4, 0), ("b", "x", 3, 1)])
    tgt = make_dataset([("b", "x", 2, 0), ("c", "g1", 5, 1)])
    with pytest.raises(ValueError, match="domains share 1 item ids"):
        cmf_train(src, tgt, k=2)


def _reference_cmf_train(src, tgt, k, config, seed):
    """The per-domain CMF trainer cmf_train replaced: its own pools, three
    tables and a batch function that splits each batch by domain."""
    user_map = IdMap.from_ids(src.users.backward)
    tgt_to_shared = np.asarray([user_map.add(ext) for ext in tgt.users.backward],
                               dtype=np.int64)
    pool_u = np.concatenate([src.user_idx, tgt_to_shared[tgt.user_idx]])
    pool_i = np.concatenate([src.item_idx, tgt.item_idx])
    pool_r = np.concatenate([src.rating, tgt.rating])
    in_tgt = np.concatenate([np.zeros(src.n_ratings, dtype=bool),
                             np.ones(tgt.n_ratings, dtype=bool)])
    rng = np.random.default_rng(seed)
    users = uniform_init(rng, k, (len(user_map), k))
    src_items = uniform_init(rng, k, (src.n_items, k))
    tgt_items = uniform_init(rng, k, (tgt.n_items, k))
    params = {"users": users, "src_items": src_items, "tgt_items": tgt_items}

    def batch_fn(batch):
        u, i, t = pool_u[batch], pool_i[batch], in_tgt[batch]
        V = np.empty((len(batch), k))
        V[~t] = src_items[i[~t]]
        V[t] = tgt_items[i[t]]
        loss, dU, dV = dot_mse(users[u], V, pool_r[batch])
        return loss, {"users": table_grad(users, u, dU),
                      "src_items": table_grad(src_items, i[~t], dV[~t]),
                      "tgt_items": table_grad(tgt_items, i[t], dV[t])}

    record = fit(params, batch_fn, len(pool_r), config, rng, "cmf")
    return user_map, users, src_items, tgt_items, record


def _cmf_world():
    """A source log and the training part of a target log, as run_cold passes them:
    the target id maps still hold the test users and their items."""
    spec = SyntheticSpec(n_users_src=60, n_users_tgt=50, n_overlap=30, n_items_src=25,
                         n_items_tgt=20, k_true=3, ratings_per_user=6)
    src, tgt, _ = generate_synthetic(spec, seed=2)
    split = make_split(src, tgt, beta=0.3, seed=2)
    return src, filter_to_indices(tgt, split.target_train_indices)


@pytest.mark.parametrize("seed, batch_size, empty_source", [
    (0, 64, False), (7, 64, False), (0, 37, False), (3, 16, True),
], ids=["seed0", "seed7", "ragged-batch", "empty-source"])
def test_cmf_train_matches_the_per_domain_trainer_bit_for_bit(seed, batch_size, empty_source):
    src, tgt = _cmf_world()
    if empty_source:
        src = dataset_from_columns([], [], [], [])
    if batch_size == 37:  # the last batch of every epoch is short
        assert (src.n_ratings + tgt.n_ratings) % batch_size
    config = TrainConfig(lr=0.02, epochs=4, batch_size=batch_size)
    model, record = cmf_train(src, tgt, k=3, config=config, seed=seed)
    user_map, users, src_items, tgt_items, want = _reference_cmf_train(src, tgt, 3, config, seed)
    assert model.user_map.backward == user_map.backward
    np.testing.assert_array_equal(model.users, users)
    np.testing.assert_array_equal(model.src_items, src_items)
    np.testing.assert_array_equal(model.tgt_items, tgt_items)
    assert record == want
