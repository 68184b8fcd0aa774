"""Minimal dense numeric kernel: two-layer nets, softmax, Adam, the shared
training loop and grad checking.

Everything is float64 numpy. Backward passes are hand-derived and verified
against central differences by ``grad_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")


def softmax(scores) -> np.ndarray:
    """Stable softmax of a non-empty 1-D score vector (max-shifted before exp)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("softmax expects a non-empty 1-D vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax input must be finite")
    z = np.exp(s - np.max(s))
    return z / np.sum(z)


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], the package-wide init rule."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def prefix_params(prefix: str, params: dict) -> dict:
    return {prefix + name: arr for name, arr in params.items()}


def table_grad(table: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dense gradient of ``table`` given gradients ``rows`` of the gathered rows
    ``table[idx]``: repeated indices sum, rows outside ``idx`` stay zero."""
    grad = np.zeros_like(table)
    np.add.at(grad, idx, rows)
    return grad


class TwoLayerNet:
    """Feed-forward net  x -> act(x @ W1 + b1) @ W2 + b2.

    W1 is (in_dim, hidden_dim), W2 is (hidden_dim, out_dim). A single vector
    or a row-stacked batch goes through the same code path. ``params`` returns
    live array references so an optimizer can update the net in place.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 activation: str = "relu", rng: np.random.Generator | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim
        self.activation = activation
        self.W1 = uniform_init(rng, in_dim, (in_dim, hidden_dim))
        self.b1 = uniform_init(rng, in_dim, (hidden_dim,))
        self.W2 = uniform_init(rng, hidden_dim, (hidden_dim, out_dim))
        self.b2 = uniform_init(rng, hidden_dim, (out_dim,))

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def _act(self, z):
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return np.tanh(z)

    def _act_grad(self, z, h):
        if self.activation == "relu":
            return (z > 0.0).astype(np.float64)
        return 1.0 - h * h

    def forward(self, x) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x):
        """Forward pass keeping intermediates needed by ``backward``."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.in_dim:
            raise ValueError(f"input has dim {X.shape[1]}, net expects {self.in_dim}")
        Z1 = X @ self.W1 + self.b1
        H = self._act(Z1)
        Y = H @ self.W2 + self.b2
        cache = (X, Z1, H, single)
        return (Y[0] if single else Y), cache

    def backward(self, cache, dout):
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns (param_grads, dx) where dx matches the shape of the original input.
        """
        X, Z1, H, single = cache
        dY = np.atleast_2d(np.asarray(dout, dtype=np.float64))
        dW2 = H.T @ dY
        db2 = dY.sum(axis=0)
        dH = dY @ self.W2.T
        dZ1 = dH * self._act_grad(Z1, H)
        dW1 = X.T @ dZ1
        db1 = dZ1.sum(axis=0)
        dX = dZ1 @ self.W1.T
        grads = {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}
        return grads, (dX[0] if single else dX)


class Adam:
    """Bias-corrected Adam applied in place to a live parameter dict.

    Moment shapes mirror the tracked parameters; ``t`` counts the steps taken.
    ``step`` takes gradients for any subset of the tracked parameters;
    untracked names or mismatched shapes are an error. Two scratch arrays per
    parameter hold the step's temporaries, so a step allocates no array the
    size of a parameter.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        self.scratch = {name: (np.empty_like(p), np.empty_like(p)) for name, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        unknown = set(grads) - set(self.m)
        if unknown:
            raise ValueError(f"gradients for untracked parameters: {sorted(unknown)}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            p = self.params[name]
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} "
                                 f"for {name!r}")
            m = self.m[name]
            v = self.v[name]
            s, d = self.scratch[name]
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=s)
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=s), out=s)
            np.multiply(self.lr, np.divide(m, c1, out=s), out=s)
            np.add(np.sqrt(np.divide(v, c2, out=d), out=d), self.eps, out=d)
            p -= np.divide(s, d, out=s)


@dataclass
class TrainRecord:
    """What one ``fit`` run did: the mean batch loss of each epoch, the examples
    drawn per epoch and ``skipped``, the examples per epoch the caller dropped."""

    losses: list[float]
    examples: int
    skipped: int = 0


def fit(params: dict[str, np.ndarray], batch_fn, n: int, config,
        rng: np.random.Generator, what: str, skipped: int = 0) -> TrainRecord:
    """Mini-batch Adam over ``n`` examples; returns their TrainRecord.

    Each epoch draws one permutation of range(n) from ``rng`` and hands it to
    ``batch_fn(rows) -> (loss, grads)`` in slices of ``config.batch_size``.
    A non-finite loss is an error. With ``config.patience`` set, training
    stops once more than ``patience`` epochs in a row fail to improve on the
    best epoch loss.
    """
    opt = Adam(params, lr=config.lr)
    trace = []
    best = np.inf
    stale = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            loss, grads = batch_fn(perm[start:start + config.batch_size])
            if not np.isfinite(loss):
                raise RuntimeError(f"{what} diverged at epoch {epoch}: loss={loss}")
            opt.step(grads)
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        trace.append(mean_loss)
        if config.patience is not None:
            if mean_loss < best - 1e-12:
                best = mean_loss
                stale = 0
            else:
                stale += 1
                if stale > config.patience:
                    break
    return TrainRecord(trace, n, skipped)


def grad_check(loss_fn, grad_fn, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate: |analytic - numeric| / max(floor, |analytic| + |numeric|),
    where floor is 1e-6 of the largest analytic entry (and at least 1e-8). A
    coordinate whose true gradient is 0 is so judged against the gradient
    scale, not against the rounding noise of its central difference, which
    grows with the loss. Parameters are perturbed in place and restored, so
    ``loss_fn`` may close over the same arrays.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    analytic = grad_fn(params)
    scale = max((float(np.max(np.abs(g), initial=0.0)) for g in analytic.values()), default=0.0)
    floor = max(1e-8, 1e-6 * scale)
    worst = 0.0
    for name in sorted(analytic):
        p = params[name]
        g = np.asarray(analytic[name], dtype=np.float64)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + eps
            lp = float(loss_fn(params))
            p[idx] = orig - eps
            lm = float(loss_fn(params))
            p[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ValueError(f"non-finite loss while perturbing {name}{list(idx)}")
            numeric = (lp - lm) / (2.0 * eps)
            a = float(g[idx])
            rel = abs(a - numeric) / max(floor, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst
