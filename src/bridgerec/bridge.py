"""Personalized preference transfer across domains.

A user's source-side interaction history is pooled by a small attention net
into a characteristic vector; a second net maps that vector to the k*k
entries of a per-user linear bridge which carries the user's source
representation into the target space. Two objectives are provided: the
rating-task loss (trains the encoder and generator through prediction error)
and the embedding-matching loss (fits transformed vectors to target
embeddings directly, used by the common-bridge baseline and as an ablation).

During bridge training every embedding is frozen; only the encoder and
generator parameters receive gradients.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import checkpoint
from .models import (DomainModel, check_int, item_representations, item_scoring_vectors,
                     user_representations)
from .nn import TwoLayerNet, fit, prefix_params, table_grad, uniform_init

logger = logging.getLogger(__name__)

# Users per padded forward/backward block: large enough to amortize the
# per-call overhead, small enough to keep the (n, L, k) padding off peak memory.
BLOCK_USERS = 64


class ColdSourceUserError(ValueError):
    """User has no source-domain interactions, so no bridge can be generated."""


class CharacteristicEncoder:
    """Attention net (k -> k -> 1) that pools item embeddings into one vector.

    Sequences longer than ``max_seq_len`` keep only the most recent items;
    max_seq_len=None disables the cap.
    """

    def __init__(self, k: int, max_seq_len: int | None = 20, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        check_int("max_seq_len", max_seq_len, allow_none=True)
        if max_seq_len is not None and max_seq_len < 1:
            raise ValueError(f"max_seq_len must be None or >= 1, got {max_seq_len}")
        self.k = k
        self.max_seq_len = max_seq_len
        self.net = TwoLayerNet(k, k, 1, activation, rng)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


class MetaNetwork:
    """Net (k -> 2k -> k*k) whose output is the parameter vector of one bridge."""

    def __init__(self, k: int, activation: str = "relu", rng: np.random.Generator | None = None):
        self.k = k
        self.net = TwoLayerNet(k, 2 * k, k * k, activation, rng)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


@dataclass(frozen=True)
class Sequences:
    """Many users' sequences laid end to end: sequence i is ``rows[ends[i] - lens[i]:ends[i]]``.

    A row is an index into ``table`` or, with no table, an item embedding. Indexing
    with a slice or an index array takes those users' sequences.
    """

    rows: np.ndarray
    ends: np.ndarray
    lens: np.ndarray
    table: np.ndarray | None = None

    @classmethod
    def stack(cls, seqs) -> Sequences:
        """One sequence per item-embedding matrix of ``seqs``."""
        lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        return cls(np.concatenate(seqs) if len(seqs) else np.empty((0, 0)), np.cumsum(lens), lens)

    def __len__(self) -> int:
        return len(self.lens)

    def __getitem__(self, users) -> Sequences:
        return Sequences(self.rows, self.ends[users], self.lens[users], self.table)


def _kept(enc: CharacteristicEncoder, seqs: Sequences):
    """The (n, L) mask of each sequence's most recent ``max_seq_len`` entries (all with no
    cap), L the longest kept length, and the index in ``seqs.rows`` of each masked entry."""
    if not seqs.lens.all():
        raise ColdSourceUserError("empty source sequence: user is cold in the source domain too")
    lens = seqs.lens if enc.max_seq_len is None else np.minimum(seqs.lens, enc.max_seq_len)
    steps = np.arange(lens.max(initial=0))
    mask = steps < lens[:, None]
    return mask, ((seqs.ends - lens)[:, None] + steps)[mask]


def _attention(enc: CharacteristicEncoder, seqs: Sequences):
    """Gather the kept entries of ``seqs`` zero-padded to (n, L, k); return that batch,
    attention weights (n, L) that are 0 on padding and sum to 1 per row, and the
    encoder cache (padded rows get zero gradient through the weights)."""
    mask, rows = _kept(enc, seqs)
    X = np.zeros(mask.shape + (enc.k,))
    X[mask] = seqs.rows[rows] if seqs.table is None else seqs.table[seqs.rows[rows]]
    raw, cache_h = enc.net.forward_cached(X.reshape(-1, enc.k))
    scores = np.where(mask, raw.reshape(mask.shape), -np.inf)
    if not np.all(np.isfinite(scores[mask])):
        raise ValueError("softmax input must be finite")
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    return X, z / z.sum(axis=1, keepdims=True), cache_h


@dataclass(frozen=True)
class TransferContext:
    """Frozen quantities the bridge stage reads.

    user_reprs/item_reprs live in the source model's representation space,
    tgt_scoring holds the vectors target ratings are predicted against, and
    tgt_user_reprs supervise the embedding-matching objective. ``sequences``
    maps source user index to time-ordered source item indices; it is a
    read-only copy, so the flat index the kernel reads (built on first use,
    never for emcdr) always agrees with it.
    """

    user_reprs: np.ndarray
    item_reprs: np.ndarray
    sequences: Mapping[int, np.ndarray]
    tgt_scoring: np.ndarray
    tgt_user_reprs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sequences", MappingProxyType(dict(self.sequences)))

    @cached_property
    def _index(self):
        """Every sequence end to end in user order, and per user index its end and length
        (0 for a user without one); one trailing zero length covers every larger index."""
        users = sorted(self.sequences)
        lens = np.zeros(users[-1] + 2 if users else 1, dtype=np.int64)
        lens[users] = [len(self.sequences[u]) for u in users]
        items = np.concatenate([np.empty(0, np.int64), *(self.sequences[u] for u in users)])
        return items, np.cumsum(lens), lens

    def sequences_of(self, users) -> Sequences:
        """The sequences of ``users``, as indices into ``item_reprs``; a user without one
        has length 0."""
        items, ends, lens = self._index
        users = np.minimum(np.asarray(users, dtype=np.int64), len(lens) - 1)
        return Sequences(items, ends[users], lens[users], self.item_reprs)


def build_context(src_model: DomainModel, tgt_model: DomainModel,
                  sequences: dict[int, np.ndarray]) -> TransferContext:
    return TransferContext(
        user_reprs=user_representations(src_model),
        item_reprs=item_representations(src_model),
        sequences=sequences,
        tgt_scoring=item_scoring_vectors(tgt_model),
        tgt_user_reprs=user_representations(tgt_model),
    )


def _forward(enc: CharacteristicEncoder, meta: MetaNetwork, seqs: Sequences):
    """Bridges (n, k, k) for a batch of sequences as in ``_attention``, and the backward cache."""
    X, a, cache_h = _attention(enc, seqs)
    w, cache_g = meta.net.forward_cached(np.einsum("nl,nlk->nk", a, X))
    return w.reshape(len(X), meta.k, meta.k), (X, a, cache_h, cache_g)


def _backward(enc, meta, cache, dW):
    """Summed "enc.*"/"meta.*" gradients given d(loss)/d(bridges) of shape (n, k, k)."""
    X, a, cache_h, cache_g = cache
    g_grads, dp = meta.net.backward(cache_g, dW.reshape(len(X), -1))
    da = np.einsum("nlk,nk->nl", X, dp)
    draw = a * (da - np.sum(a * da, axis=1, keepdims=True))  # softmax jacobian-vector product
    h_grads, _ = enc.net.backward(cache_h, draw.reshape(-1, 1))
    return _namespaced(h_grads, g_grads)


def _bridge_loss(enc, meta, seqs: Sequences, u_src, head):
    """Sum of ``head(block, u_hat) -> (loss, d(loss)/d(u_hat))`` over user slices of
    BLOCK_USERS, with gradients; u_src[i] goes through the bridge from seqs[i]."""
    grads = {n: np.zeros_like(p) for n, p in _namespaced(enc.params(), meta.params()).items()}
    loss = 0.0
    for start in range(0, len(seqs), BLOCK_USERS):
        block = slice(start, start + BLOCK_USERS)
        W, cache = _forward(enc, meta, seqs[block])
        S = u_src[block]
        block_loss, d_uhat = head(block, np.einsum("nij,nj->ni", W, S))
        loss += block_loss
        for name, g in _backward(enc, meta, cache, np.einsum("ni,nj->nij", d_uhat, S)).items():
            grads[name] += g
    return loss, grads


def _namespaced(enc_side, meta_side):
    """One dict with "enc."/"meta." prefixes; works for params and grads alike."""
    out = prefix_params("enc.", enc_side)
    out.update(prefix_params("meta.", meta_side))
    return out


def task_oriented_loss(enc: CharacteristicEncoder, meta: MetaNetwork,
                       ctx: TransferContext, src_user: np.ndarray,
                       tgt_item: np.ndarray, rating: np.ndarray):
    """Mean squared rating error through the generated bridges, with gradients.

    The prediction for sample (u, j, r) is dot(W_u @ s_u, q_j) where s_u is
    the frozen source representation of u and q_j the frozen target scoring
    vector of j. Returns (loss, grads over "enc.*" and "meta.*", n_skipped);
    samples whose user has no source sequence are skipped and counted.
    """
    src_user = np.asarray(src_user)
    tgt_item = np.asarray(tgt_item)
    rating = np.asarray(rating, dtype=np.float64)
    usable = ctx.sequences_of(src_user).lens > 0
    n_skipped = int((~usable).sum())
    src_user, tgt_item, rating = src_user[usable], tgt_item[usable], rating[usable]
    B = len(rating)
    if B == 0:
        raise ValueError("no usable samples in batch")

    users, inv = np.unique(src_user, return_inverse=True)
    Q = ctx.tgt_scoring[tgt_item]

    def head(block, u_hat):
        take = (inv >= block.start) & (inv < block.stop)
        rows = inv[take] - block.start
        err = np.einsum("bk,bk->b", Q[take], u_hat[rows]) - rating[take]
        return float(err @ err), table_grad(u_hat, rows, (2.0 / B) * err[:, None] * Q[take])

    loss, grads = _bridge_loss(enc, meta, ctx.sequences_of(users), ctx.user_reprs[users], head)
    return loss / B, grads, n_skipped


def mapping_oriented_loss(bridge, u_src: np.ndarray, u_tgt: np.ndarray,
                          seq_embs: list[np.ndarray] | Sequences | None = None):
    """Sum over users of ||bridge(u_src) - u_tgt||^2, with gradients.

    ``bridge`` is either one shared (k, k) matrix or an (encoder, generator)
    pair; the pair needs ``seq_embs``, one item-embedding matrix per row of
    ``u_src`` or their ``Sequences``. Zero iff every transformed vector matches
    its target.
    """
    u_src = np.atleast_2d(np.asarray(u_src, dtype=np.float64))
    u_tgt = np.atleast_2d(np.asarray(u_tgt, dtype=np.float64))
    if u_src.shape != u_tgt.shape:
        raise ValueError(f"source {u_src.shape} and target {u_tgt.shape} shapes differ")

    if isinstance(bridge, np.ndarray):
        diff = u_src @ bridge.T - u_tgt
        loss = float(np.sum(diff * diff))
        return loss, {"W": 2.0 * diff.T @ u_src}

    enc, meta = bridge
    if seq_embs is None or len(seq_embs) != len(u_src):
        raise ValueError("the personalized form needs one item-embedding matrix per user")
    def head(block, u_hat):
        err = u_hat - u_tgt[block]
        return float(np.sum(err * err)), 2.0 * err

    seqs = seq_embs if isinstance(seq_embs, Sequences) else Sequences.stack(seq_embs)
    return _bridge_loss(enc, meta, seqs, u_src, head)


def train_common_bridge(u_src: np.ndarray, u_tgt: np.ndarray,
                        config, seed: int = 0):
    """Fit one shared linear bridge to (source, target) representation pairs.

    Mini-batch Adam on the embedding-matching loss, one example per pair.
    Returns (W, TrainRecord).
    """
    u_src = np.atleast_2d(np.asarray(u_src, dtype=np.float64))
    u_tgt = np.atleast_2d(np.asarray(u_tgt, dtype=np.float64))
    n, k = u_src.shape
    if n == 0:
        raise ValueError("no supervision: zero overlapping users")
    rng = np.random.default_rng(seed)
    W = uniform_init(rng, k, (k, k))
    return W, fit({"W": W}, lambda rows: mapping_oriented_loss(W, u_src[rows], u_tgt[rows]),
                  n, config, rng, "common-bridge training")


def train_meta(enc: CharacteristicEncoder, meta: MetaNetwork, ctx: TransferContext,
               src_user: np.ndarray, tgt_item: np.ndarray, rating: np.ndarray,
               config, seed: int = 0):
    """Train encoder and generator on the rating task (embeddings frozen).

    Mini-batch Adam over individual rating triples of the training overlap
    users. Returns the TrainRecord of ``nn.fit``; triples of users with no
    source sequence are dropped and count as skipped.
    """
    usable = ctx.sequences_of(src_user).lens > 0
    dropped = int((~usable).sum())
    src_user, tgt_item, rating = (np.asarray(a)[usable] for a in (src_user, tgt_item, rating))
    n = len(rating)
    if n == 0:
        raise ValueError("no target-domain ratings of overlap users with source history")
    rng = np.random.default_rng(seed)
    params = _namespaced(enc.params(), meta.params())  # same namespacing as grads

    def batch_fn(rows):
        return task_oriented_loss(enc, meta, ctx, src_user[rows], tgt_item[rows], rating[rows])[:2]

    record = fit(params, batch_fn, n, config, rng, "meta training", skipped=dropped)
    if dropped and record.losses:
        logger.warning("meta training skipped %d samples of users with no source interactions",
                       dropped * len(record.losses))
    return record


def train_meta_mapping(enc: CharacteristicEncoder, meta: MetaNetwork,
                       ctx: TransferContext, src_users: np.ndarray,
                       tgt_users: np.ndarray, config, seed: int = 0):
    """Ablation: train the same encoder and generator by embedding matching.

    ``src_users`` and ``tgt_users`` are aligned index arrays for the same
    overlap users in their respective domains. One supervision example per
    user (their target representation), not per rating. Returns the TrainRecord
    of ``nn.fit``; users with no source sequence are dropped and count as skipped.
    """
    src_users = np.asarray(src_users)
    tgt_users = np.asarray(tgt_users)
    usable = ctx.sequences_of(src_users).lens > 0
    src_users, tgt_users = src_users[usable], tgt_users[usable]
    n = len(src_users)
    if n == 0:
        raise ValueError("no supervision: zero overlapping users with source history")
    rng = np.random.default_rng(seed)
    params = _namespaced(enc.params(), meta.params())

    def batch_fn(take):
        rows = src_users[take]
        return mapping_oriented_loss((enc, meta), ctx.user_reprs[rows],
                                     ctx.tgt_user_reprs[tgt_users[take]],
                                     ctx.sequences_of(rows))

    return fit(params, batch_fn, n, config, rng, "meta mapping training",
               skipped=int((~usable).sum()))


def transform_users(enc: CharacteristicEncoder, meta: MetaNetwork,
                    ctx: TransferContext, src_users) -> np.ndarray:
    """Bridge source representations into the target space; row i is src_users[i].

    Users go through the kernel in blocks of BLOCK_USERS; a user without source
    interactions raises ColdSourceUserError.
    """
    src_users = np.asarray(src_users, dtype=np.int64)
    seqs = ctx.sequences_of(src_users)
    if not seqs.lens.all():
        u = src_users[np.flatnonzero(seqs.lens == 0)[0]]
        raise ColdSourceUserError(f"user index {u} has no source interactions")
    out = np.empty((len(seqs), meta.k))
    for start in range(0, len(seqs), BLOCK_USERS):
        block = slice(start, start + BLOCK_USERS)
        W, _ = _forward(enc, meta, seqs[block])
        # stacked matrix-vector products: row i is exactly W[i] @ s_i
        out[block] = (W @ ctx.user_reprs[src_users[block], :, None])[..., 0]
    return out


def transform_user(enc: CharacteristicEncoder, meta: MetaNetwork,
                   ctx: TransferContext, src_user: int) -> np.ndarray:
    """Bridge one user's source representation into the target space."""
    return transform_users(enc, meta, ctx, [src_user])[0]


def attention_table(enc: CharacteristicEncoder, ctx: TransferContext,
                    src_users) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (user index, item index, weight) for export, one row per item of each
    user's truncated sequence; users without a sequence are left out."""
    src_users = np.asarray(src_users, dtype=np.int64)
    seqs = ctx.sequences_of(src_users)
    has = seqs.lens > 0
    users, seqs = src_users[has], seqs[has]
    mask, rows = _kept(enc, seqs)
    weights = [np.empty(0)]  # an empty first piece keeps the dtype when no user is left
    for start in range(0, len(users), BLOCK_USERS):
        block = slice(start, start + BLOCK_USERS)
        _, a, _ = _attention(enc, seqs[block])
        weights.append(a[mask[block, :a.shape[1]]])  # the block's own mask
    return np.repeat(users, mask.sum(axis=1)), seqs.rows[rows], np.concatenate(weights)


def save_bridge_nets(prefix, enc: CharacteristicEncoder, meta: MetaNetwork,
                     info: dict | None = None) -> None:
    """Save an encoder and generator; ``info`` adds entries to the manifest's meta."""
    info = {**(info or {}), "kind": "bridge_nets", "k": meta.k,
            "max_seq_len": enc.max_seq_len,
            "enc_activation": enc.net.activation,
            "meta_activation": meta.net.activation}
    checkpoint.save_tensors(prefix, _namespaced(enc.params(), meta.params()), info)


def load_bridge_nets(prefix):
    tensors, info = checkpoint.load_tensors(prefix)
    if info.get("kind") != "bridge_nets":
        raise ValueError(f"checkpoint at {prefix} is not a bridge checkpoint")
    k = checkpoint.meta_k(info, prefix)
    enc = CharacteristicEncoder(k, max_seq_len=info.get("max_seq_len"),
                                activation=info.get("enc_activation", "relu"))
    meta = MetaNetwork(k, activation=info.get("meta_activation", "relu"))
    checkpoint.copy_into(_namespaced(enc.params(), meta.params()), tensors, prefix)
    return enc, meta


def save_common_bridge(prefix, W: np.ndarray, info: dict | None = None) -> None:
    """Save one shared bridge; ``info`` adds entries to the manifest's meta."""
    checkpoint.save_tensors(prefix, {"W": W}, {**(info or {}), "kind": "common_bridge",
                                               "k": len(W)})


def load_common_bridge(prefix) -> np.ndarray:
    tensors, info = checkpoint.load_tensors(prefix)
    if info.get("kind") != "common_bridge":
        raise ValueError(f"checkpoint at {prefix} is not a common-bridge checkpoint")
    k = checkpoint.meta_k(info, prefix)
    W = np.empty((k, k))
    checkpoint.copy_into({"W": W}, tensors, prefix)
    return W
