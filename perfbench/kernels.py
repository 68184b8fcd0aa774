"""Kernel microbenchmarks at fixed shapes.

Each kernel is timed per call (median over repeated calls). Operation counts
and bytes are computed from the shapes, not measured: a multiply-add counts
as two flops, and bytes are the float64 elements each call must read or
write at least once (gathered rows, dense gradient tables, parameters and
their gradient accumulators). Lower-order terms are left out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import bridgerec as br
from bridgerec.bridge import TransferContext
from bridgerec.models import DomainModel

K = 10
N_USERS, N_ITEMS, BATCH = 6000, 2000, 512          # factor-table kernels
SEQ_USERS, SEQ_ITEMS, SEQ_LEN, ROWS_PER_USER = 500, 300, 20, 4   # bridge kernels
MAPPING_USERS = 128
F8 = 8


def _per_call(fn, budget_s: float = 0.25, min_calls: int = 5) -> float:
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _bridge_params() -> int:
    enc = K * K + K + K + 1                 # k -> k -> 1
    meta = K * 2 * K + 2 * K + 2 * K * K * K + K * K   # k -> 2k -> k*k
    return enc + meta


def _bridge_forward_flops(seq_len: int) -> int:
    enc = 2 * seq_len * K * (K + 1)         # attention net over the sequence
    pool = 2 * seq_len * K
    meta = 2 * K * 2 * K + 2 * 2 * K * K * K
    return enc + pool + meta + 2 * K * K    # + applying the bridge


def _bridge_user_bytes(seq_len: int) -> int:
    # gathered item vectors, parameters read, gradient accumulators read+written
    return F8 * (seq_len * K + 3 * _bridge_params())


def kernel_metrics(seed: int = 0) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    users = rng.integers(N_USERS, size=BATCH)
    items = rng.integers(N_ITEMS, size=BATCH)
    ratings = rng.uniform(0.0, 5.0, BATCH)
    head_flops = {"mf": 6 * BATCH * K, "gmf": 11 * BATCH * K,
                  "two_tower": 48 * BATCH * K * K + 6 * BATCH * K}
    for head, flops in head_flops.items():
        model = DomainModel(N_USERS, N_ITEMS, K, head, rng=np.random.default_rng(seed))
        t = _per_call(lambda: br.models.loss_and_grads(model, users, items, ratings))
        prefix = f"kernel.models.loss_and_grads.{head}"
        out[f"{prefix}.us"] = t * 1e6
        out[f"{prefix}.flop_computed"] = flops
        out[f"{prefix}.bytes_computed"] = F8 * ((N_USERS + N_ITEMS) * K + 4 * BATCH * K)

    model = DomainModel(N_USERS, N_ITEMS, K, "mf", rng=np.random.default_rng(seed))
    params = model.params()
    opt = br.Adam(params, lr=0.01)
    grads = {n: rng.normal(size=p.shape) * 1e-3 for n, p in params.items()}
    elems = sum(p.size for p in params.values())
    out["kernel.nn.Adam.step.us"] = _per_call(lambda: opt.step(grads)) * 1e6
    out["kernel.nn.Adam.step.flop_computed"] = 13 * elems
    out["kernel.nn.Adam.step.bytes_computed"] = F8 * 7 * elems   # read g,p,m,v; write p,m,v

    ctx = TransferContext(
        user_reprs=rng.uniform(0, 1, (SEQ_USERS, K)),
        item_reprs=rng.uniform(0, 1, (SEQ_ITEMS, K)),
        sequences={u: rng.choice(SEQ_ITEMS, SEQ_LEN, replace=False) for u in range(SEQ_USERS)},
        tgt_scoring=rng.uniform(0, 1, (SEQ_ITEMS, K)),
        tgt_user_reprs=rng.uniform(0, 1, (SEQ_USERS, K)))
    net_rng = np.random.default_rng(seed)
    enc = br.CharacteristicEncoder(K, rng=net_rng)
    meta = br.MetaNetwork(K, rng=net_rng)
    n_unique = BATCH // ROWS_PER_USER
    src_user = np.repeat(rng.choice(SEQ_USERS, n_unique, replace=False), ROWS_PER_USER)
    tgt_item = rng.integers(SEQ_ITEMS, size=BATCH)
    rating = rng.uniform(0.0, 5.0, BATCH)
    fwd = _bridge_forward_flops(SEQ_LEN)
    t = _per_call(lambda: br.task_oriented_loss(enc, meta, ctx, src_user, tgt_item, rating))
    out["kernel.bridge.task_oriented_loss.us"] = t * 1e6
    out["kernel.bridge.task_oriented_loss.flop_computed"] = (
        n_unique * (3 * fwd + K * K) + BATCH * 4 * K)
    out["kernel.bridge.task_oriented_loss.bytes_computed"] = (
        n_unique * _bridge_user_bytes(SEQ_LEN) + F8 * BATCH * K)

    rows = rng.choice(SEQ_USERS, MAPPING_USERS, replace=False)
    seq_embs = [ctx.item_reprs[ctx.sequences[int(u)]] for u in rows]
    t = _per_call(lambda: br.mapping_oriented_loss(
        (enc, meta), ctx.user_reprs[rows], ctx.tgt_user_reprs[rows], seq_embs))
    out["kernel.bridge.mapping_oriented_loss.us"] = t * 1e6
    out["kernel.bridge.mapping_oriented_loss.flop_computed"] = (
        MAPPING_USERS * (3 * fwd + K * K + 3 * K))
    out["kernel.bridge.mapping_oriented_loss.bytes_computed"] = (
        MAPPING_USERS * (_bridge_user_bytes(SEQ_LEN) + F8 * 2 * K))

    t = _per_call(lambda: br.transform_user(enc, meta, ctx, 0))
    out["kernel.bridge.transform_user.us"] = t * 1e6
    out["kernel.bridge.transform_user.flop_computed"] = fwd
    out["kernel.bridge.transform_user.bytes_computed"] = F8 * (
        SEQ_LEN * K + _bridge_params() + K)
    return out
