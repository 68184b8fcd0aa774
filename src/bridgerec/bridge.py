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
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .models import (DomainModel, item_representations, item_scoring_vectors,
                     user_representations)
from .nn import TwoLayerNet, fit, prefix_params, softmax, uniform_init

logger = logging.getLogger(__name__)


class ColdSourceUserError(ValueError):
    """User has no source-domain interactions, so no bridge can be generated."""


class CharacteristicEncoder:
    """Attention net (k -> hidden -> 1) that pools item embeddings into one vector.

    Sequences longer than ``max_seq_len`` keep only the most recent items;
    max_seq_len=None disables the cap.
    """

    def __init__(self, k: int, hidden: int | None = None, max_seq_len: int | None = 20,
                 activation: str = "relu", rng: np.random.Generator | None = None):
        self.k = k
        self.max_seq_len = max_seq_len
        self.net = TwoLayerNet(k, hidden or k, 1, activation, rng)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


class MetaNetwork:
    """Net (k -> hidden -> k*k) whose output is the parameter vector of one bridge."""

    def __init__(self, k: int, hidden: int | None = None, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        self.k = k
        self.net = TwoLayerNet(k, hidden or 2 * k, k * k, activation, rng)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


def _truncated(enc: CharacteristicEncoder, item_embs: np.ndarray) -> np.ndarray:
    V = np.atleast_2d(np.asarray(item_embs, dtype=np.float64))
    if V.shape[0] == 0:
        raise ColdSourceUserError("empty source sequence: user is cold in the source domain too")
    if enc.max_seq_len is not None and V.shape[0] > enc.max_seq_len:
        V = V[-enc.max_seq_len:]
    return V


def attention_scores(enc: CharacteristicEncoder, item_embs) -> np.ndarray:
    """Normalized weights over the (truncated) item sequence; positive, sum to 1.

    Each raw score depends only on its own item embedding; normalization is
    per sequence.
    """
    V = _truncated(enc, item_embs)
    raw = enc.net.forward(V)[:, 0]
    return softmax(raw)


def encode_characteristic(enc: CharacteristicEncoder, item_embs) -> np.ndarray:
    """Attention-weighted sum of the item embeddings (lies in their convex hull)."""
    V = _truncated(enc, item_embs)
    return attention_scores(enc, V) @ V


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


@dataclass
class TransferContext:
    """Frozen quantities the bridge stage reads.

    user_reprs/item_reprs live in the source model's representation space,
    tgt_scoring holds the vectors target ratings are predicted against, and
    tgt_user_reprs supervise the embedding-matching objective. ``sequences``
    maps source user index to time-ordered source item indices.
    """

    user_reprs: np.ndarray
    item_reprs: np.ndarray
    sequences: dict[int, np.ndarray]
    tgt_scoring: np.ndarray
    tgt_user_reprs: np.ndarray


def build_context(src_model: DomainModel, tgt_model: DomainModel,
                  sequences: dict[int, np.ndarray]) -> TransferContext:
    return TransferContext(
        user_reprs=user_representations(src_model),
        item_reprs=item_representations(src_model),
        sequences=sequences,
        tgt_scoring=item_scoring_vectors(tgt_model),
        tgt_user_reprs=user_representations(tgt_model),
    )


def _bridge_forward(enc: CharacteristicEncoder, meta: MetaNetwork, item_embs):
    """Forward pass for one user, keeping every intermediate for backprop."""
    V = _truncated(enc, item_embs)
    raw, cache_h = enc.net.forward_cached(V)
    a = softmax(raw[:, 0])
    p = a @ V
    w, cache_g = meta.net.forward_cached(p)
    W = w.reshape(meta.k, meta.k)
    return {"V": V, "a": a, "p": p, "W": W, "cache_h": cache_h, "cache_g": cache_g}


def _bridge_backward(enc, meta, fwd, dW, enc_grads, meta_grads):
    """Accumulate d(loss)/d(theta, phi) for one user given d(loss)/d(bridge)."""
    g_grads, dp = meta.net.backward(fwd["cache_g"], dW.reshape(-1))
    for name, g in g_grads.items():
        meta_grads[name] += g
    a, V = fwd["a"], fwd["V"]
    da = V @ dp
    draw = a * (da - np.dot(a, da))  # softmax jacobian-vector product
    h_grads, _ = enc.net.backward(fwd["cache_h"], draw[:, None])
    for name, g in h_grads.items():
        enc_grads[name] += g


def _zero_grads(enc, meta):
    enc_grads = {n: np.zeros_like(p) for n, p in enc.params().items()}
    meta_grads = {n: np.zeros_like(p) for n, p in meta.params().items()}
    return enc_grads, meta_grads


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
    usable = np.asarray([len(ctx.sequences.get(int(u), ())) > 0 for u in src_user])
    n_skipped = int((~usable).sum())
    if n_skipped:
        src_user, tgt_item, rating = src_user[usable], tgt_item[usable], rating[usable]
    B = len(rating)
    if B == 0:
        raise ValueError("no usable samples in batch")

    enc_grads, meta_grads = _zero_grads(enc, meta)
    loss = 0.0
    for u in np.unique(src_user):
        take = src_user == u
        items = tgt_item[take]
        r = rating[take]
        fwd = _bridge_forward(enc, meta, ctx.item_reprs[ctx.sequences[int(u)]])
        s_u = ctx.user_reprs[int(u)]
        u_hat = fwd["W"] @ s_u
        Q = ctx.tgt_scoring[items]
        err = Q @ u_hat - r
        loss += float(err @ err)
        d_uhat = (2.0 / B) * (Q.T @ err)
        dW = np.outer(d_uhat, s_u)
        _bridge_backward(enc, meta, fwd, dW, enc_grads, meta_grads)
    return loss / B, _namespaced(enc_grads, meta_grads), n_skipped


def mapping_oriented_loss(bridge, u_src: np.ndarray, u_tgt: np.ndarray,
                          seq_embs: list[np.ndarray] | None = None):
    """Sum over users of ||bridge(u_src) - u_tgt||^2, with gradients.

    ``bridge`` is either one shared (k, k) matrix or an (encoder, generator)
    pair; the pair needs ``seq_embs``, one item-embedding matrix per row of
    ``u_src``. Zero iff every transformed vector matches its target.
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
    enc_grads, meta_grads = _zero_grads(enc, meta)
    loss = 0.0
    for i in range(len(u_src)):
        fwd = _bridge_forward(enc, meta, seq_embs[i])
        e = fwd["W"] @ u_src[i] - u_tgt[i]
        loss += float(e @ e)
        _bridge_backward(enc, meta, fwd, np.outer(2.0 * e, u_src[i]), enc_grads, meta_grads)
    return loss, _namespaced(enc_grads, meta_grads)


def train_common_bridge(u_src: np.ndarray, u_tgt: np.ndarray,
                        config, seed: int = 0):
    """Fit one shared linear bridge to (source, target) representation pairs.

    Mini-batch Adam on the embedding-matching loss. Returns (W, trace); the
    trace records the loss per epoch and the supervision counters.
    """
    u_src = np.atleast_2d(np.asarray(u_src, dtype=np.float64))
    u_tgt = np.atleast_2d(np.asarray(u_tgt, dtype=np.float64))
    n, k = u_src.shape
    if n == 0:
        raise ValueError("no supervision: zero overlapping users")
    rng = np.random.default_rng(seed)
    W = uniform_init(rng, k, (k, k))
    losses = fit({"W": W}, lambda rows: mapping_oriented_loss(W, u_src[rows], u_tgt[rows]),
                 n, config, rng, "common-bridge training")
    trace = {"loss": losses, "examples_per_epoch": n, "distinct_examples": n,
             "epochs": len(losses)}
    return W, trace


def train_meta(enc: CharacteristicEncoder, meta: MetaNetwork, ctx: TransferContext,
               src_user: np.ndarray, tgt_item: np.ndarray, rating: np.ndarray,
               config, seed: int = 0):
    """Train encoder and generator on the rating task (embeddings frozen).

    Mini-batch Adam over individual rating triples of the training overlap
    users. Returns a trace with per-epoch losses and consumption counters.
    """
    n = len(rating)
    if n == 0:
        raise ValueError("no target-domain ratings of overlap users to train on")
    rng = np.random.default_rng(seed)
    params = _namespaced(enc.params(), meta.params())  # same namespacing as grads
    counts = {"consumed": 0, "skipped_samples": 0}

    def batch_fn(rows):
        loss, grads, n_skip = task_oriented_loss(
            enc, meta, ctx, src_user[rows], tgt_item[rows], rating[rows])
        counts["consumed"] += len(rows) - n_skip
        counts["skipped_samples"] += n_skip
        return loss, grads

    losses = fit(params, batch_fn, n, config, rng, "meta training")
    if counts["skipped_samples"]:
        logger.warning("meta training skipped %d samples of users with no source interactions",
                       counts["skipped_samples"])
    return {"loss": losses, "examples_per_epoch": n, "distinct_examples": n,
            "epochs": len(losses), **counts}


def train_meta_mapping(enc: CharacteristicEncoder, meta: MetaNetwork,
                       ctx: TransferContext, src_users: np.ndarray,
                       tgt_users: np.ndarray, config, seed: int = 0):
    """Ablation: train the same encoder and generator by embedding matching.

    ``src_users`` and ``tgt_users`` are aligned index arrays for the same
    overlap users in their respective domains. One supervision example per
    user (their target representation), not per rating.
    """
    src_users = np.asarray(src_users)
    tgt_users = np.asarray(tgt_users)
    usable = np.asarray([len(ctx.sequences.get(int(u), ())) > 0 for u in src_users])
    skipped = int((~usable).sum())
    src_users, tgt_users = src_users[usable], tgt_users[usable]
    n = len(src_users)
    if n == 0:
        raise ValueError("no supervision: zero overlapping users with source history")
    rng = np.random.default_rng(seed)
    params = _namespaced(enc.params(), meta.params())

    def batch_fn(take):
        rows = src_users[take]
        seq_embs = [ctx.item_reprs[ctx.sequences[int(u)]] for u in rows]
        return mapping_oriented_loss((enc, meta), ctx.user_reprs[rows],
                                     ctx.tgt_user_reprs[tgt_users[take]], seq_embs)

    losses = fit(params, batch_fn, n, config, rng, "meta mapping training")
    return {"loss": losses, "examples_per_epoch": n, "distinct_examples": n,
            "epochs": len(losses), "skipped_users": skipped}


def transform_user(enc: CharacteristicEncoder, meta: MetaNetwork,
                   ctx: TransferContext, src_user: int) -> np.ndarray:
    """Bridge one user's source representation into the target space."""
    seq = ctx.sequences.get(int(src_user))
    if seq is None or len(seq) == 0:
        raise ColdSourceUserError(f"user index {src_user} has no source interactions")
    p = encode_characteristic(enc, ctx.item_reprs[seq])
    W = generate_bridge(meta, p)
    return apply_bridge(W, ctx.user_reprs[int(src_user)])


def attention_table(enc: CharacteristicEncoder, ctx: TransferContext,
                    src_users) -> list[tuple[int, int, float]]:
    """(user, item, weight) rows for export; items are the truncated sequence."""
    rows = []
    for u in src_users:
        seq = ctx.sequences.get(int(u))
        if seq is None or len(seq) == 0:
            continue
        if enc.max_seq_len is not None and len(seq) > enc.max_seq_len:
            seq = seq[-enc.max_seq_len:]
        weights = attention_scores(enc, ctx.item_reprs[seq])
        rows.extend((int(u), int(i), float(w)) for i, w in zip(seq, weights))
    return rows


def save_bridge_nets(prefix, enc: CharacteristicEncoder, meta: MetaNetwork) -> None:
    tensors = prefix_params("enc.", enc.params())
    tensors.update(prefix_params("meta.", meta.params()))
    info = {"kind": "bridge_nets", "k": meta.k,
            "max_seq_len": enc.max_seq_len,
            "enc_activation": enc.net.activation,
            "meta_activation": meta.net.activation}
    checkpoint.save_tensors(prefix, tensors, info)


def load_bridge_nets(prefix):
    tensors, info = checkpoint.load_tensors(prefix)
    if info.get("kind") != "bridge_nets":
        raise ValueError(f"checkpoint at {prefix} is not a bridge checkpoint")
    k = info["k"]
    enc = CharacteristicEncoder(k, hidden=tensors["enc.b1"].shape[0],
                                max_seq_len=info.get("max_seq_len"),
                                activation=info.get("enc_activation", "relu"))
    meta = MetaNetwork(k, hidden=tensors["meta.b1"].shape[0],
                       activation=info.get("meta_activation", "relu"))
    enc.net.set_params({n.split(".", 1)[1]: t for n, t in tensors.items() if n.startswith("enc.")})
    meta.net.set_params({n.split(".", 1)[1]: t for n, t in tensors.items() if n.startswith("meta.")})
    return enc, meta
