"""Per-user reference functions the tests check the library against.

The library generates, applies and scores bridges, and draws synthetic
worlds, for many users at once (``bridge.transform_users``,
``models.predict_batch``, ``pipeline.generate_synthetic``). These one-user
functions state the same operations in their plainest form. The first two
pool a single sequence through the library's own attention kernel,
``bridge._attention``, so tests that call them still exercise it.

The ``padded_*`` functions are the bridge kernel as it was before the flat
sequence index: each block's sequences are gathered into a Python list,
truncated one by one and concatenated into the padded batch. The library's
kernel must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from bridgerec.bridge import (BLOCK_USERS, CharacteristicEncoder, ColdSourceUserError,
                              MetaNetwork, Sequences, _attention, _backward, _namespaced)
from bridgerec.data import dataset_from_codes
from bridgerec.models import DomainModel, predict_batch
from bridgerec.nn import table_grad
from bridgerec.pipeline import PlantedTruth


def softmax(scores) -> np.ndarray:
    """Stable softmax of a non-empty 1-D score vector (max-shifted before exp)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("softmax expects a non-empty 1-D vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax input must be finite")
    z = np.exp(s - np.max(s))
    return z / np.sum(z)


def attention_scores(enc: CharacteristicEncoder, item_embs) -> np.ndarray:
    """Normalized weights over the (truncated) item sequence; positive, sum to 1.

    Each raw score depends only on its own item embedding; normalization is
    per sequence.
    """
    return _attention(enc, Sequences.stack([np.atleast_2d(item_embs)]))[1][0]


def encode_characteristic(enc: CharacteristicEncoder, item_embs) -> np.ndarray:
    """Attention-weighted sum of the item embeddings (lies in their convex hull)."""
    X, a, _ = _attention(enc, Sequences.stack([np.atleast_2d(item_embs)]))
    return a[0] @ X[0]


def generate_bridge(meta: MetaNetwork, p: np.ndarray) -> np.ndarray:
    """Emit one k x k bridge matrix (row-major reshape of the net output)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (meta.k,):
        raise ValueError(f"characteristic vector has shape {p.shape}, expected ({meta.k},)")
    w = meta.net.forward(p)
    return w.reshape(meta.k, meta.k)


def apply_bridge(bridge: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Transform a user representation: plain matrix-vector product, no bias."""
    bridge = np.asarray(bridge, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if bridge.ndim != 2 or bridge.shape[0] != bridge.shape[1]:
        raise ValueError(f"bridge must be square, got shape {bridge.shape}")
    if u.shape != (bridge.shape[1],):
        raise ValueError(f"vector shape {u.shape} does not match bridge {bridge.shape}")
    return bridge @ u


def score(model: DomainModel, user: int, item: int) -> float:
    """Predicted rating of one (user, item) pair."""
    if not (0 <= user < model.n_users and 0 <= item < model.n_items):
        raise IndexError(f"user {user} or item {item} out of range "
                         f"({model.n_users} users, {model.n_items} items)")
    return float(predict_batch(model, np.asarray([user]), np.asarray([item]))[0])


# ---------------------------------------------------------------------------
# the list-padding bridge kernel

def _truncated(enc: CharacteristicEncoder, seq):
    if len(seq) == 0:
        raise ColdSourceUserError("empty source sequence: user is cold in the source domain too")
    return seq if enc.max_seq_len is None else seq[-enc.max_seq_len:]


def padded_attention(enc: CharacteristicEncoder, seqs, table=None):
    """``bridge._attention`` over a list of item-embedding matrices (or, given
    ``table``, arrays of its row indices): (X, weights, encoder cache)."""
    seqs = [_truncated(enc, seq) for seq in seqs]
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    mask = np.arange(lens.max()) < lens[:, None]
    X = np.zeros(mask.shape + (enc.k,))
    X[mask] = np.concatenate(seqs) if table is None else table[np.concatenate(seqs)]
    raw, cache_h = enc.net.forward_cached(X.reshape(-1, enc.k))
    scores = np.where(mask, raw.reshape(mask.shape), -np.inf)
    if not np.all(np.isfinite(scores[mask])):
        raise ValueError("softmax input must be finite")
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    return X, z / z.sum(axis=1, keepdims=True), cache_h


def _padded_forward(enc, meta, seqs, table=None):
    X, a, cache_h = padded_attention(enc, seqs, table)
    w, cache_g = meta.net.forward_cached(np.einsum("nl,nlk->nk", a, X))
    return w.reshape(len(X), meta.k, meta.k), (X, a, cache_h, cache_g)


def _padded_bridge_loss(enc, meta, seqs, u_src, head, table=None):
    grads = {n: np.zeros_like(p) for n, p in _namespaced(enc.params(), meta.params()).items()}
    loss = 0.0
    for start in range(0, len(seqs), BLOCK_USERS):
        block = slice(start, start + BLOCK_USERS)
        W, cache = _padded_forward(enc, meta, seqs[block], table)
        S = u_src[block]
        block_loss, d_uhat = head(block, np.einsum("nij,nj->ni", W, S))
        loss += block_loss
        for name, g in _backward(enc, meta, cache, np.einsum("ni,nj->nij", d_uhat, S)).items():
            grads[name] += g
    return loss, grads


def padded_task_loss(enc, meta, ctx, src_user, tgt_item, rating):
    """``bridge.task_oriented_loss`` on the list-padding kernel."""
    src_user, tgt_item = np.asarray(src_user), np.asarray(tgt_item)
    rating = np.asarray(rating, dtype=np.float64)
    users, inv = np.unique(src_user, return_inverse=True)
    usable = np.array([len(ctx.sequences.get(u, ())) > 0 for u in users.tolist()],
                      dtype=bool)[inv]
    src_user, tgt_item, rating = src_user[usable], tgt_item[usable], rating[usable]
    B = len(rating)
    users, inv = np.unique(src_user, return_inverse=True)
    Q = ctx.tgt_scoring[tgt_item]

    def head(block, u_hat):
        take = (inv >= block.start) & (inv < block.stop)
        rows = inv[take] - block.start
        err = np.einsum("bk,bk->b", Q[take], u_hat[rows]) - rating[take]
        return float(err @ err), table_grad(u_hat, rows, (2.0 / B) * err[:, None] * Q[take])

    seqs = [ctx.sequences[u] for u in users.tolist()]
    loss, grads = _padded_bridge_loss(enc, meta, seqs, ctx.user_reprs[users], head,
                                      ctx.item_reprs)
    return loss / B, grads, int((~usable).sum())


def padded_mapping_loss(enc, meta, u_src, u_tgt, seq_embs):
    """``bridge.mapping_oriented_loss`` of an (encoder, generator) pair on the
    list-padding kernel."""
    def head(block, u_hat):
        err = u_hat - u_tgt[block]
        return float(np.sum(err * err)), 2.0 * err

    return _padded_bridge_loss(enc, meta, seq_embs, u_src, head)


def padded_transform_users(enc, meta, ctx, src_users):
    """``bridge.transform_users`` on the list-padding kernel."""
    src_users = np.asarray(src_users, dtype=np.int64)
    seqs = [ctx.sequences.get(u, ()) for u in src_users.tolist()]
    for u, seq in zip(src_users, seqs):
        if len(seq) == 0:
            raise ColdSourceUserError(f"user index {u} has no source interactions")
    out = np.empty((len(seqs), meta.k))
    for start in range(0, len(seqs), BLOCK_USERS):
        block = slice(start, start + BLOCK_USERS)
        W, _ = _padded_forward(enc, meta, seqs[block], ctx.item_reprs)
        out[block] = (W @ ctx.user_reprs[src_users[block], :, None])[..., 0]
    return out


def padded_attention_table(enc, ctx, src_users):
    """``bridge.attention_table`` on the list-padding kernel."""
    users = [int(u) for u in src_users if len(ctx.sequences.get(int(u), ())) > 0]
    seqs = [_truncated(enc, ctx.sequences[u]) for u in users]
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    weights = [np.empty(0)]
    for start in range(0, len(users), BLOCK_USERS):
        block = slice(start, start + BLOCK_USERS)
        _, a, _ = padded_attention(enc, seqs[block], ctx.item_reprs)
        weights.append(a[np.arange(a.shape[1]) < lens[block, None]])
    return (np.repeat(np.asarray(users, dtype=np.int64), lens),
            np.concatenate([np.empty(0, np.int64), *seqs]), np.concatenate(weights))


def generate_synthetic(spec, seed: int = 0):
    """``pipeline.generate_synthetic`` one user at a time: each factor drawn and scaled
    alone, and each user's items drawn through ``softmax`` and ``rng.choice``."""
    rng = np.random.default_rng(seed)
    k = spec.k_true
    scale = np.sqrt(5.0 / k) * 0.95
    centers = rng.dirichlet(np.full(k, 0.4), size=spec.n_clusters)
    centers /= centers.max(axis=1, keepdims=True)

    def draw_factor(cluster):
        return scale * (0.8 * centers[cluster] + 0.2 * rng.uniform(0.0, 1.0, k))

    if spec.bridge_family == "shared_linear":
        if spec.identity_bridge:
            shared = np.eye(k)
        else:
            perm = rng.permutation(k)
            shared = np.zeros((k, k))
            shared[np.arange(k), perm] = rng.uniform(0.5, 1.0, k)
        diags = None
    else:
        shared = None
        diags = rng.uniform(0.3, 1.0, (spec.n_clusters, k))

    src_users, tgt_users = {}, {}  # ext id -> factor, per domain
    overlap_ids = []
    for i in range(spec.n_overlap):
        c = int(rng.integers(spec.n_clusters))
        ext = f"ou{i:05d}"
        u = src_users[ext] = draw_factor(c)
        tgt_users[ext] = shared @ u if spec.bridge_family == "shared_linear" else diags[c] * u
        overlap_ids.append(ext)
    for members, count, prefix in ((src_users, spec.n_users_src, "su"),
                                   (tgt_users, spec.n_users_tgt, "tu")):
        for i in range(count - spec.n_overlap):
            members[f"{prefix}{i:05d}"] = draw_factor(int(rng.integers(spec.n_clusters)))

    src_items, tgt_items = (np.stack([draw_factor(int(c))
                                      for c in rng.integers(spec.n_clusters, size=count)])
                            for count in (spec.n_items_src, spec.n_items_tgt))

    def domain_dataset(prefix, members, factors):
        per = spec.ratings_per_user
        chosen = np.empty((len(members), per), dtype=np.int64)
        rating = np.empty((len(members), per))
        for row, vec in enumerate(members.values()):
            p = softmax(spec.selection_sharpness * (factors @ vec))
            chosen[row] = rng.choice(len(factors), size=per, replace=False, p=p)
            r = factors[chosen[row]] @ vec
            if spec.noise_sd > 0:
                r = r + rng.normal(0.0, spec.noise_sd, per)
            rating[row] = np.clip(r, 0.0, 5.0)
        rated, first = np.unique(chosen, return_index=True)
        rated = rated[np.argsort(first)]
        code = np.empty(len(factors), dtype=np.int64)
        code[rated] = np.arange(len(rated))
        user_ids = {ext: u for u, ext in enumerate(members)}
        item_ids = {f"{prefix}{j:05d}": c for c, j in enumerate(rated.tolist())}
        ds = dataset_from_codes(user_ids, item_ids, np.repeat(np.arange(len(members)), per),
                                code[chosen].ravel(), rating.ravel(),
                                np.tile(np.arange(per), len(members)))
        return ds, np.stack(list(members.values())), factors[rated]

    src, src_user_factors, src_item_factors = domain_dataset("si", src_users, src_items)
    tgt, tgt_user_factors, tgt_item_factors = domain_dataset("ti", tgt_users, tgt_items)
    truth = PlantedTruth(src_user_factors, tgt_user_factors, src_item_factors, tgt_item_factors,
                         overlap_ids, shared)
    return src, tgt, truth
