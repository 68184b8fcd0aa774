"""Per-user reference functions the tests check the library against.

The library generates, applies and scores bridges for many users at once
(``bridge.transform_users``, ``models.predict_batch``). These one-user
functions state the same operations in their plainest form. The first two
pool a single sequence through the library's own attention kernel,
``bridge._attention``, so tests that call them still exercise it.
"""

from __future__ import annotations

import numpy as np

from bridgerec.bridge import CharacteristicEncoder, MetaNetwork, _attention
from bridgerec.models import DomainModel, predict_batch


def attention_scores(enc: CharacteristicEncoder, item_embs) -> np.ndarray:
    """Normalized weights over the (truncated) item sequence; positive, sum to 1.

    Each raw score depends only on its own item embedding; normalization is
    per sequence.
    """
    return _attention(enc, [np.atleast_2d(item_embs)])[1][0]


def encode_characteristic(enc: CharacteristicEncoder, item_embs) -> np.ndarray:
    """Attention-weighted sum of the item embeddings (lies in their convex hull)."""
    X, a, _ = _attention(enc, [np.atleast_2d(item_embs)])
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
