"""Per-domain latent-factor models (MF, GMF, two-tower) and their training loops.

All heads are trained on mean squared rating error with mini-batch Adam.
Gradients are hand-derived; ``loss_and_grads`` exposes exactly what the
training loop uses so it can be checked against finite differences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .data import DomainDataset, IdMap, check_disjoint_items
from .nn import RowGrad, TwoLayerNet, fit, prefix_params, uniform_init

logger = logging.getLogger(__name__)

HEADS = ("mf", "gmf", "two_tower")


def check_int(name: str, value, allow_none: bool = False) -> None:
    """Raise ValueError unless ``value`` is an int (a bool is not), or None when allowed."""
    if type(value) is not int and not (allow_none and value is None):
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass
class TrainConfig:
    """Hyperparameters for one optimization stage."""

    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 512
    patience: int | None = None

    def __post_init__(self):
        for name in ("epochs", "batch_size", "patience"):
            check_int(name, getattr(self, name), allow_none=name == "patience")
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be None or >= 0, got {self.patience}")


class DomainModel:
    """Embedding tables plus a scoring head for one domain.

    Each head joins a user side and an item side by one dot product: "mf" (the
    rows), "gmf" (item rows times a weight vector), "two_tower" (k -> 2k -> k nets).
    """

    def __init__(self, n_users: int, n_items: int, k: int, head: str = "mf",
                 activation: str = "relu", rng: np.random.Generator | None = None):
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}, expected one of {HEADS}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.k = k
        self.head = head
        self.users = uniform_init(rng, k, (n_users, k))
        self.items = uniform_init(rng, k, (n_items, k))
        self.gmf_weights = uniform_init(rng, k, (k,)) if head == "gmf" else None
        if head == "two_tower":
            self.user_net = TwoLayerNet(k, 2 * k, k, activation, rng)
            self.item_net = TwoLayerNet(k, 2 * k, k, activation, rng)
        else:
            self.user_net = None
            self.item_net = None

    @property
    def n_users(self) -> int:
        return self.users.shape[0]

    @property
    def n_items(self) -> int:
        return self.items.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        p = {"users": self.users, "items": self.items}
        if self.head == "gmf":
            p["gmf_weights"] = self.gmf_weights
        elif self.head == "two_tower":
            p.update(prefix_params("user_net.", self.user_net.params()))
            p.update(prefix_params("item_net.", self.item_net.params()))
        return p


def _tower(net: TwoLayerNet, X: np.ndarray, prefix: str):
    Y, cache = net.forward_cached(X)

    def back(dY):
        grads, dX = net.backward(cache, dY)
        return dX, prefix_params(prefix, grads)

    return Y, back


def _user_side(model: DomainModel, U: np.ndarray):
    """User vectors of the gathered embedding rows ``U``, and a closure mapping
    their gradient to (gradient of ``U``, head-parameter gradients)."""
    if model.head == "two_tower":
        return _tower(model.user_net, U, "user_net.")
    return U, lambda dU: (dU, {})


def _item_side(model: DomainModel, V: np.ndarray):
    """Item vectors of the gathered embedding rows ``V``, scored against user
    vectors by one dot product, and their backward closure as in ``_user_side``."""
    if model.head == "two_tower":
        return _tower(model.item_net, V, "item_net.")
    if model.head == "gmf":
        w = model.gmf_weights
        return V * w, lambda dQ: (dQ * w, {"gmf_weights": np.einsum("bk,bk->k", dQ, V)})
    return V, lambda dV: (dV, {})


def predict_batch(model: DomainModel, user_idx: np.ndarray, item_idx: np.ndarray) -> np.ndarray:
    """Predicted ratings for aligned user/item index arrays."""
    A = _user_side(model, model.users[user_idx])[0]
    B = _item_side(model, model.items[item_idx])[0]
    return np.einsum("bk,bk->b", A, B)


def user_representation(model: DomainModel, user: int) -> np.ndarray:
    """The vector a bridge transforms: the embedding row, or the user-tower output."""
    if not 0 <= user < model.n_users:
        raise IndexError(f"user {user} out of range ({model.n_users} users)")
    return _user_side(model, model.users[[user]])[0][0]


def user_representations(model: DomainModel) -> np.ndarray:
    return np.array(_user_side(model, model.users)[0])


def item_representations(model: DomainModel) -> np.ndarray:
    """Item vectors in the same space user representations score against."""
    if model.head == "two_tower":
        return model.item_net.forward(model.items)
    return model.items.copy()


def item_scoring_vectors(model: DomainModel) -> np.ndarray:
    """Frozen per-item vectors q such that a rating is dot(user_repr, q)."""
    return np.array(_item_side(model, model.items)[0])


def dot_mse(U: np.ndarray, V: np.ndarray, ratings: np.ndarray):
    """Mean squared error of the row-wise dot products U[b] . V[b] against
    ``ratings``, and its gradient w.r.t. each dot product: returns
    (loss, d_pred). The side gradients are ``d_pred[:, None] * V`` for U and
    ``d_pred[:, None] * U`` for V; a caller forms only those it uses."""
    err = np.einsum("bk,bk->b", U, V) - ratings
    # np.mean's sum and division, without its dispatch
    return float(np.add.reduce(err * err)) / len(err), 2.0 * err / len(ratings)


def loss_and_grads(model: DomainModel, user_idx: np.ndarray, item_idx: np.ndarray,
                   ratings: np.ndarray):
    """Mean squared error of a batch and its gradients w.r.t. all parameters.

    This is the exact computation one training step performs. Embedding
    gradients come back as ``RowGrad``s over the batch's rows; ``np.asarray``
    gives their dense tables.
    """
    A, user_back = _user_side(model, np.take(model.users, user_idx, axis=0))
    B, item_back = _item_side(model, np.take(model.items, item_idx, axis=0))
    loss, d_pred = dot_mse(A, B, ratings)
    d_pred = d_pred[:, None]
    dU, grads = user_back(d_pred * B)
    dV, item_grads = item_back(d_pred * A)
    grads.update(item_grads)
    grads["users"] = RowGrad(model.users.shape, user_idx, dU)
    grads["items"] = RowGrad(model.items.shape, item_idx, dV)
    return loss, grads


def pretrain(dataset: DomainDataset, k: int, head: str = "mf",
             config: TrainConfig | None = None, seed: int = 0, activation: str = "relu"):
    """Fit a DomainModel to a rating log by mini-batch Adam on squared error.

    Returns (model, the TrainRecord of ``nn.fit``). Same seed and data
    reproduce the model bit for bit.
    """
    if dataset.n_ratings == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    config = config or TrainConfig()
    rng = np.random.default_rng(seed)
    model = DomainModel(dataset.n_users, dataset.n_items, k, head, activation, rng)
    params = model.params()

    def batch_fn(batch):
        return loss_and_grads(model, dataset.user_idx[batch], dataset.item_idx[batch],
                              dataset.rating[batch])

    record = fit(params, batch_fn, dataset.n_ratings, config, rng, "pretrain")
    if record.losses:
        logger.info("pretrained %s head on %d ratings: loss %.4f -> %.4f",
                    head, dataset.n_ratings, record.losses[0], record.losses[-1])
    return model, record


@dataclass
class CmfModel:
    """Shared user factors across both domains with per-domain item tables."""

    user_map: IdMap
    users: np.ndarray
    src_items: np.ndarray
    tgt_items: np.ndarray
    k: int


def cmf_train(src: DomainDataset, tgt: DomainDataset, k: int,
              config: TrainConfig | None = None, seed: int = 0):
    """Pre-train one "mf" model on the joined source+target rating logs.

    Users are keyed by external id (source order first, then target-only
    users); the item table holds the source items, then the target items, and
    ``src_items``/``tgt_items`` are views of its two parts. Scoring is plain
    dot product. Returns (CmfModel, TrainRecord).
    """
    check_disjoint_items(src, tgt)
    # seeded from the source users, so source user i keeps index i
    user_map = IdMap.from_ids(src.users.backward)
    tgt_to_shared = np.asarray([user_map.add(ext) for ext in tgt.users.backward], dtype=np.int64)
    joined = DomainDataset(
        users=user_map,
        items=IdMap.from_ids(src.items.backward + tgt.items.backward),
        user_idx=np.concatenate([src.user_idx, tgt_to_shared[tgt.user_idx]]),
        item_idx=np.concatenate([src.item_idx, src.n_items + tgt.item_idx]),
        rating=np.concatenate([src.rating, tgt.rating]),
        timestamp=np.concatenate([src.timestamp, tgt.timestamp]))
    model, record = pretrain(joined, k, "mf", config, seed)
    return CmfModel(user_map=user_map, users=model.users, src_items=model.items[:src.n_items],
                    tgt_items=model.items[src.n_items:], k=k), record


def save_model(prefix, model: DomainModel, info: dict | None = None) -> None:
    """Save a model; ``info`` adds entries to the manifest's meta."""
    meta = {**(info or {}), "head": model.head, "k": model.k}
    if model.head == "two_tower":
        meta["activation"] = model.user_net.activation
    checkpoint.save_tensors(prefix, "domain_model", dict(model.params()), meta)


def load_model(prefix) -> tuple[DomainModel, dict]:
    """The model ``save_model`` wrote at ``prefix``, and the manifest's meta."""
    tensors, meta = checkpoint.load_tensors(prefix, "domain_model")
    n_users, n_items = (len(np.atleast_1d(tensors.get(n, ()))) for n in ("users", "items"))
    model = DomainModel(n_users, n_items, checkpoint.meta_k(meta, prefix), meta["head"],
                        activation=meta.get("activation", "relu"))
    checkpoint.copy_into(model.params(), tensors, prefix)
    return model, meta
