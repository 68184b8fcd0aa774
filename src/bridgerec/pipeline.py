"""End-to-end experiment orchestration.

A plan fully determines a run: pre-train both domains, run the chosen
transfer method, evaluate on the cold set, then fine-tune on the cold set and
evaluate on the warm set. A synthetic world generator with planted factors
and planted bridges serves as the ground-truth oracle for the method
comparisons, and a suite runner aggregates many plans into one report table.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import logging
import time
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bridge import (CharacteristicEncoder, MetaNetwork, attention_table, build_context,
                     train_common_bridge, train_meta, train_meta_mapping,
                     transform_users)
from .data import (RATING_MAX, RATING_MIN, DomainDataset, SplitPlan, build_sequences,
                   dataset_from_columns, filter_to_indices, load_domain, make_split)
from .models import HEADS as BASE_MODELS
from .models import (TrainConfig, cmf_train, dot_mse, item_scoring_vectors, pretrain,
                     user_representation)
from .nn import ACTIVATIONS, fit, softmax, table_grad

logger = logging.getLogger(__name__)

LR_GRID = (0.001, 0.005, 0.01, 0.02, 0.1)
METHODS = ("tgt", "cmf", "emcdr", "ptupcdr", "ptupcdr_mapping_ablation")
BRIDGE_NET_METHODS = ("ptupcdr", "ptupcdr_mapping_ablation")
BRIDGE_FAMILIES = ("shared_linear", "per_user_linear")

SUITE_COLUMNS = ("task", "beta", "method", "stage", "seed",
                 "mae", "rmse", "n_eval", "runtime_s")


# ---------------------------------------------------------------------------
# plans

@dataclass
class AmazonTask:
    """Two rating-log files (csv or json-lines) forming one transfer task."""

    src_path: str
    tgt_path: str
    fmt: str | None = None
    name: str = ""

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return f"{Path(self.src_path).stem}->{Path(self.tgt_path).stem}"


@dataclass
class SyntheticSpec:
    """Parameters of a generated two-domain world with known ground truth."""

    n_users_src: int = 300
    n_users_tgt: int = 300
    n_overlap: int = 200
    n_items_src: int = 150
    n_items_tgt: int = 150
    k_true: int = 6
    ratings_per_user: int = 20
    noise_sd: float = 0.1
    bridge_family: str = "per_user_linear"
    n_clusters: int = 4
    selection_sharpness: float = 3.0
    identity_bridge: bool = False

    def __post_init__(self):
        if self.bridge_family not in BRIDGE_FAMILIES:
            raise ValueError(f"bridge_family must be one of {BRIDGE_FAMILIES}")
        if self.n_overlap < 0:
            raise ValueError(f"n_overlap must be >= 0, got {self.n_overlap}")
        if self.n_overlap > min(self.n_users_src, self.n_users_tgt):
            raise ValueError("n_overlap exceeds a domain's user count")
        if self.ratings_per_user > min(self.n_items_src, self.n_items_tgt):
            raise ValueError("ratings_per_user exceeds the item count")
        if self.ratings_per_user < 1 or self.k_true < 1 or self.n_clusters < 1:
            raise ValueError("ratings_per_user, k_true and n_clusters must be >= 1")
        if not (0 <= self.noise_sd < np.inf and 0 <= self.selection_sharpness < np.inf):
            raise ValueError("noise_sd and selection_sharpness must be finite and >= 0")


@dataclass
class SyntheticTask:
    spec: SyntheticSpec

    @property
    def label(self) -> str:
        return "synthetic"


@dataclass
class ExperimentPlan:
    """Everything that determines a run; same plan gives identical results."""

    task: AmazonTask | SyntheticTask
    method: str
    base_model: str = "mf"
    beta: float = 0.2
    seed: int = 0
    k: int = 10
    activation: str = "relu"
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(lr=0.01, epochs=10))
    bridge: TrainConfig = field(default_factory=lambda: TrainConfig(lr=0.01, epochs=10))
    finetune: TrainConfig = field(default_factory=lambda: TrainConfig(lr=0.01, epochs=100))
    max_seq_len: int | None = 20
    finetune_items: bool = False
    allow_off_grid_lr: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.base_model not in BASE_MODELS:
            raise ValueError(f"base_model must be one of {BASE_MODELS}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_seq_len is not None and self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be None or >= 1, got {self.max_seq_len}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if not self.allow_off_grid_lr:
            for stage, cfg in (("pretrain", self.pretrain), ("bridge", self.bridge),
                               ("finetune", self.finetune)):
                if cfg.lr not in LR_GRID:
                    raise ValueError(
                        f"{stage} lr {cfg.lr} is off the grid {LR_GRID}; "
                        "set allow_off_grid_lr=True to override")

    @property
    def builds_net(self) -> bool:
        """Whether ``activation`` reaches a net: bridge nets, or two_tower towers (not in cmf)."""
        return (self.method in BRIDGE_NET_METHODS
                or (self.base_model == "two_tower" and self.method != "cmf"))


def _stage_seeds(seed: int) -> dict[str, int]:
    vals = np.random.SeedSequence(seed).generate_state(6)
    names = ("data", "src", "tgt", "bridge", "nets", "finetune")
    return {n: int(v) for n, v in zip(names, vals)}


# ---------------------------------------------------------------------------
# synthetic oracle

@dataclass
class PlantedTruth:
    """Ground-truth factors and bridges behind a synthetic world."""

    src_user_factors: np.ndarray
    tgt_user_factors: np.ndarray
    src_item_factors: np.ndarray
    tgt_item_factors: np.ndarray
    overlap_ids: list[str]
    shared_bridge: np.ndarray | None = None


def _pick_items(rng, factors, user_vec, count, sharpness):
    scores = factors @ user_vec
    p = softmax(sharpness * scores)
    return rng.choice(len(factors), size=count, replace=False, p=p)


def generate_synthetic(spec: SyntheticSpec, seed: int = 0):
    """Build two domains whose overlap users are linked by planted bridges.

    User and item factors are non-negative with scale chosen so every exact
    rating lies in [0, 5]. Users and items belong to preference archetypes;
    each user rates items drawn with probability increasing in the planted
    score, so a user's history is informative about their archetype. Overlap
    users' target factors are ``B_u @ src_factor`` with B either one shared
    matrix or a per-archetype diagonal. Returns (src, tgt, PlantedTruth).
    """
    rng = np.random.default_rng(seed)
    k = spec.k_true
    scale = np.sqrt(5.0 / k) * 0.95

    # sparse archetype directions keep clusters distinguishable
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

    users = {}   # ext id -> (cluster, src_factor or None, tgt_factor or None)
    overlap_ids = []
    for i in range(spec.n_overlap):
        c = int(rng.integers(spec.n_clusters))
        u = draw_factor(c)
        if spec.bridge_family == "shared_linear":
            ut = shared @ u
        else:
            ut = diags[c] * u
        ext = f"ou{i:05d}"
        users[ext] = (c, u, ut)
        overlap_ids.append(ext)
    for i in range(spec.n_users_src - spec.n_overlap):
        c = int(rng.integers(spec.n_clusters))
        users[f"su{i:05d}"] = (c, draw_factor(c), None)
    for i in range(spec.n_users_tgt - spec.n_overlap):
        c = int(rng.integers(spec.n_clusters))
        users[f"tu{i:05d}"] = (c, None, draw_factor(c))

    item_factors = {}
    for prefix, count in (("si", spec.n_items_src), ("ti", spec.n_items_tgt)):
        clusters = rng.integers(spec.n_clusters, size=count)
        item_factors[prefix] = np.stack([draw_factor(int(c)) for c in clusters])

    def domain_dataset(prefix, side):
        factors = item_factors[prefix]
        names = [f"{prefix}{j:05d}" for j in range(len(factors))]
        columns = user_col, item_col, rating_col, time_col = [], [], [], []
        for ext, (c, us, ut) in users.items():
            vec = us if side == "src" else ut
            if vec is None:
                continue
            chosen = _pick_items(rng, factors, vec, spec.ratings_per_user,
                                 spec.selection_sharpness)
            r = factors[chosen] @ vec
            if spec.noise_sd > 0:
                r = r + rng.normal(0.0, spec.noise_sd, len(chosen))
            r = np.clip(r, 0.0, 5.0)
            user_col.extend([ext] * len(chosen))
            item_col.extend([names[j] for j in chosen.tolist()])
            rating_col.extend(r.tolist())
            time_col.extend(range(len(chosen)))
        return dataset_from_columns(*columns)

    src = domain_dataset("si", "src")
    tgt = domain_dataset("ti", "tgt")

    def aligned(ds, table, side):
        if table == "users":
            vecs = [users[e][1 if side == "src" else 2] for e in ds.users.backward]
            return np.stack(vecs)
        idx = [int(e[2:]) for e in ds.items.backward]
        return item_factors["si" if side == "src" else "ti"][idx]

    truth = PlantedTruth(
        src_user_factors=aligned(src, "users", "src"),
        tgt_user_factors=aligned(tgt, "users", "tgt"),
        src_item_factors=aligned(src, "items", "src"),
        tgt_item_factors=aligned(tgt, "items", "tgt"),
        overlap_ids=overlap_ids,
        shared_bridge=shared,
    )
    return src, tgt, truth


# ---------------------------------------------------------------------------
# metrics

def compute_metrics(ratings, predictions):
    """(MAE, RMSE) of aligned rating/prediction arrays; empty input is an error."""
    r = np.asarray(ratings, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if r.size == 0:
        raise ValueError("no prediction pairs to score")
    if r.shape != p.shape:
        raise ValueError(f"shape mismatch: {r.shape} vs {p.shape}")
    err = p - r
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


@dataclass
class MetricsReport:
    stage: str
    mae: float
    rmse: float
    n_eval: int
    counters: dict = field(default_factory=dict)
    # the TrainRecord of each stage this report trained, by stage name; kept out of report rows
    traces: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cold stage

@dataclass
class ColdRun:
    """Report plus everything the warm stage and exporters need.

    Row i of ``init`` is the initial target representation of
    ``split.test_users[i]``.
    """

    plan: ExperimentPlan
    report: MetricsReport
    src: DomainDataset
    tgt: DomainDataset
    split: SplitPlan
    scoring: np.ndarray
    init: np.ndarray
    artifacts: dict = field(default_factory=dict)


def _resolve_data(plan: ExperimentPlan, data_seed: int):
    if isinstance(plan.task, SyntheticTask):
        return generate_synthetic(plan.task.spec, data_seed)[:2]
    return (load_domain(plan.task.src_path, plan.task.fmt),
            load_domain(plan.task.tgt_path, plan.task.fmt))


def _evaluate(plan: ExperimentPlan, stage: str, tgt: DomainDataset, rows_per_user,
              scoring: np.ndarray, E: np.ndarray, counters: dict, traces: dict) -> MetricsReport:
    """Score the target rows of user i against E[i], clipped to the rating range."""
    preds = [np.clip(scoring[tgt.item_idx[rows]] @ e, RATING_MIN, RATING_MAX)
             for rows, e in zip(rows_per_user, E)]
    rows = np.concatenate(rows_per_user)
    mae, rmse = compute_metrics(tgt.rating[rows], np.concatenate(preds))
    report = MetricsReport(stage=stage, mae=mae, rmse=rmse, n_eval=len(rows),
                           counters=counters, traces=traces)
    logger.info("%s %s beta=%.2f seed=%d: mae=%.4f rmse=%.4f (n=%d)",
                stage, plan.method, plan.beta, plan.seed, mae, rmse, report.n_eval)
    return report


def _pretrained(shared: dict, side: str, data: DomainDataset, plan: ExperimentPlan,
                seed: int, traces: dict):
    """The ``side`` model from ``shared``, else pre-trained into it; its record into ``traces``."""
    if f"{side}_model" not in shared:
        shared[f"{side}_model"], shared[f"{side}_trace"] = pretrain(
            data, plan.k, plan.base_model, plan.pretrain, seed, plan.activation)
    if f"{side}_trace" in shared:
        traces[side] = shared[f"{side}_trace"]
    return shared[f"{side}_model"]


def run_cold(plan: ExperimentPlan, pretrained: dict | None = None) -> ColdRun:
    """Pre-train, run the plan's transfer method, and evaluate on cold sets.

    Each test user's initial target representation (random for tgt, shared
    for cmf, bridged otherwise) is scored against every rating in their cold
    set; predictions are clipped to [RATING_MIN, RATING_MAX].

    ``pretrained`` holds what plans that differ only in ``method`` share: the
    domains and split ("src", "tgt", "split", "tgt_train"), "tgt_model" and
    "src_model" (with their TrainRecords "tgt_trace" and "src_trace", which a
    loaded checkpoint lacks). run_cold reuses what the dict holds and adds what
    it builds; it never modifies an entry.
    """
    seeds = _stage_seeds(plan.seed)
    shared = {} if pretrained is None else pretrained
    if "split" not in shared:
        src, tgt = _resolve_data(plan, seeds["data"])
        split = make_split(src, tgt, plan.beta, plan.seed)
        if len(split.users_without_warm) == len(split.test_users):
            raise ValueError(f"none of the {len(split.test_users)} test users has a warm "
                             "rating, so the warm stage would have nothing to score")
        shared.update(src=src, tgt=tgt, split=split,
                      tgt_train=filter_to_indices(tgt, split.target_train_indices))
    src, tgt, split, tgt_train = (shared[key] for key in ("src", "tgt", "split", "tgt_train"))

    artifacts: dict = {}
    traces: dict = {}
    counters = {"unseen_item_predictions": 0, "skipped_meta_samples": 0}

    if plan.method == "cmf":
        cmf, traces["cmf"] = cmf_train(src, tgt_train, plan.k, plan.pretrain, seed=seeds["tgt"])
        scoring = cmf.tgt_items
        init = cmf.users[[cmf.user_map.index(u) for u in split.test_users]]
    else:
        tgt_model = _pretrained(shared, "tgt", tgt_train, plan, seeds["tgt"], traces)
        artifacts["tgt_model"] = tgt_model
        scoring = item_scoring_vectors(tgt_model)

        if plan.method == "tgt":
            # one tower pass per user: a batched pass rounds two_tower outputs differently
            init = np.array([user_representation(tgt_model, tgt.users.index(u))
                             for u in split.test_users])
        else:
            src_model = _pretrained(shared, "src", src, plan, seeds["src"], traces)
            artifacts["src_model"] = src_model
            ctx = build_context(src_model, tgt_model, build_sequences(src))
            artifacts["ctx"] = ctx
            train_src = np.array([src.users.index(u) for u in split.train_overlap_users],
                                 dtype=np.int64)
            train_tgt = np.array([tgt.users.index(u) for u in split.train_overlap_users],
                                 dtype=np.int64)
            test_src = [src.users.index(u) for u in split.test_users]

            if plan.method == "emcdr":
                W, traces["bridge"] = train_common_bridge(ctx.user_reprs[train_src],
                                                          ctx.tgt_user_reprs[train_tgt],
                                                          plan.bridge, seed=seeds["bridge"])
                artifacts["common_bridge"] = W
                # stacked matrix-vector products: row i is exactly W @ s_i
                init = (W @ ctx.user_reprs[test_src, :, None])[..., 0]
            else:
                rng = np.random.default_rng(seeds["nets"])
                enc = CharacteristicEncoder(plan.k, max_seq_len=plan.max_seq_len,
                                            activation=plan.activation, rng=rng)
                meta = MetaNetwork(plan.k, activation=plan.activation, rng=rng)
                if plan.method == "ptupcdr":
                    # target rows of the train overlap users, grouped in split order
                    # and kept in file order within a user; other users sort last
                    position = np.full(tgt.n_users, len(train_tgt))
                    position[train_tgt] = np.arange(len(train_tgt))
                    pos = position[tgt_train.user_idx]
                    rows = np.argsort(pos, kind="stable")
                    rows = rows[pos[rows] < len(train_tgt)]
                    record = traces["bridge"] = train_meta(
                        enc, meta, ctx, train_src[pos[rows]], tgt_train.item_idx[rows],
                        tgt_train.rating[rows], plan.bridge, seed=seeds["bridge"])
                    counters["skipped_meta_samples"] = record.skipped * len(record.losses)
                else:  # ptupcdr_mapping_ablation
                    traces["bridge"] = train_meta_mapping(enc, meta, ctx, train_src, train_tgt,
                                                          plan.bridge, seed=seeds["bridge"])
                artifacts["enc"] = enc
                artifacts["meta"] = meta
                init = transform_users(enc, meta, ctx, test_src)

    cold_rows = [split.cold[u] for u in split.test_users]
    trained_items = np.unique(tgt_train.item_idx)
    counters["unseen_item_predictions"] = int(np.sum(
        ~np.isin(tgt.item_idx[np.concatenate(cold_rows)], trained_items)))
    report = _evaluate(plan, "cold", tgt, cold_rows, scoring, init, counters, traces)
    return ColdRun(plan=plan, report=report, src=src, tgt=tgt, split=split,
                   scoring=scoring, init=init, artifacts=artifacts)


# ---------------------------------------------------------------------------
# warm stage

def run_warm(plan: ExperimentPlan, cold: ColdRun | None = None) -> MetricsReport:
    """Fine-tune each test user's representation on their cold set, score the warm set.

    Fine-tuning is joint mini-batch Adam over all test users' cold ratings;
    item vectors stay frozen unless ``plan.finetune_items`` is set. With zero
    fine-tune epochs the warm-set predictions equal the cold-stage ones. The
    returned report's ``traces`` holds the "finetune" TrainRecord; ``cold`` is
    left as it was.
    """
    if cold is None:
        cold = run_cold(plan)
    split = cold.split
    E = cold.init.copy()
    Q = cold.scoring.copy() if plan.finetune_items else cold.scoring

    cold_rows = [split.cold[u] for u in split.test_users]
    pool_u = np.repeat(np.arange(len(cold_rows)), [len(rows) for rows in cold_rows])
    pool = np.concatenate(cold_rows)
    pool_i, pool_r = cold.tgt.item_idx[pool], cold.tgt.rating[pool]

    params = {"E": E}
    if plan.finetune_items:
        params["Q"] = Q

    def batch_fn(rows):
        uu, ii = pool_u[rows], pool_i[rows]
        loss, dE, dQ = dot_mse(E[uu], Q[ii], pool_r[rows])
        grads = {"E": table_grad(E, uu, dE)}
        if plan.finetune_items:
            grads["Q"] = table_grad(Q, ii, dQ)
        return loss, grads

    traces = {"finetune": fit(params, batch_fn, len(pool_r), plan.finetune,
                              np.random.default_rng(_stage_seeds(plan.seed)["finetune"]),
                              "warm fine-tuning")}
    return _evaluate(plan, "warm", cold.tgt, [split.warm[u] for u in split.test_users],
                     Q, E, {"users_empty_warm": len(split.users_without_warm)}, traces)


def run_plan(plan: ExperimentPlan, pretrained: dict | None = None):
    """Cold stage then warm stage; returns (ColdRun, seconds), (warm report, seconds)."""
    t0 = time.monotonic()
    cold = run_cold(plan, pretrained=pretrained)
    t1 = time.monotonic()
    warm = run_warm(plan, cold)
    t2 = time.monotonic()
    return (cold, t1 - t0), (warm, t2 - t1)


# ---------------------------------------------------------------------------
# suites

def _report_row(plan: ExperimentPlan, report: MetricsReport, seconds: float,
                record_runtime: bool) -> dict:
    return {"task": plan.task.label, "beta": plan.beta, "method": plan.method,
            "stage": report.stage, "seed": plan.seed, "mae": report.mae,
            "rmse": report.rmse, "n_eval": report.n_eval,
            "runtime_s": round(seconds, 3) if record_runtime else 0.0}


def _failed_row(plan: ExperimentPlan, error: str) -> dict:
    return {"task": plan.task.label, "beta": plan.beta, "method": plan.method,
            "stage": "failed", "seed": plan.seed, "mae": None, "rmse": None,
            "n_eval": None, "runtime_s": 0.0, "error": error}


def _plan_rows(plan: ExperimentPlan, record_runtime: bool, attention_path: Path | None = None,
               pretrained: dict | None = None):
    try:
        (cold, t_cold), (warm, t_warm) = run_plan(plan, pretrained)
    except Exception as exc:  # suite keeps going; the row records the failure
        logger.exception("plan failed: %s %s beta=%s seed=%s",
                         plan.task.label, plan.method, plan.beta, plan.seed)
        return [_failed_row(plan, str(exc))]
    if attention_path is not None:
        write_attention_csv(cold, attention_path)
    return [_report_row(plan, cold.report, t_cold, record_runtime),
            _report_row(plan, warm, t_warm, record_runtime)]


def _pool_rows(jobs, workers: int) -> list:
    """Rows of each ``_plan_rows`` argument tuple, one future each in a process
    pool; None for a job lost because a worker died (``BrokenProcessPool``, a
    ``BrokenExecutor``: catching the base keeps multiprocessing out of import)."""
    futures = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for job in jobs:
            try:
                futures.append(pool.submit(_plan_rows, *job))
            except concurrent.futures.BrokenExecutor:
                futures.append(None)
    chunks = []
    for future in futures:
        try:
            chunks.append(None if future is None else future.result())
        except concurrent.futures.BrokenExecutor:
            chunks.append(None)
    return chunks


def run_suite(plans, parallelism: int = 1, record_runtime: bool = True,
              attention_dir: Path | None = None):
    """Run every plan, then append seed-averaged rows per (task, beta, method, stage).

    Run serially, plans that differ only in ``method`` share one load of the
    domains, one split and one pre-trained source and target model, dropped
    once the last of them has run; cmf plans run first in their group. With
    ``parallelism`` > 1 every plan runs alone in a worker process.

    Failed plans produce a single row with stage "failed" and an ``error``
    field; the suite continues. A worker that dies loses every plan its pool
    had not finished, so each of those runs again alone: only a plan that
    kills its own worker fails. Rows come back in deterministic plan order.

    With ``attention_dir``, the first plan of each ptupcdr-family (method,
    beta) writes its cold run's attention weights to
    ``attention_<method>_beta<beta>.csv`` there.
    """
    if not plans:
        raise ValueError("need at least one plan")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    attention = {}
    if attention_dir is not None:
        for i, plan in enumerate(plans):
            if plan.method in BRIDGE_NET_METHODS:
                attention.setdefault((plan.method, plan.beta), i)
    paths = {i: Path(attention_dir) / f"attention_{method}_beta{beta:g}.csv"
             for (method, beta), i in attention.items()}
    jobs = [(plan, record_runtime, paths.get(i)) for i, plan in enumerate(plans)]

    if parallelism > 1:
        chunks = _pool_rows(jobs, parallelism)
        for i, plan in enumerate(plans):
            if chunks[i] is None:
                chunks[i] = _pool_rows([jobs[i]], 1)[0]
            if chunks[i] is None:
                logger.error("plan failed: %s %s beta=%s seed=%s: its worker process died",
                             plan.task.label, plan.method, plan.beta, plan.seed)
                chunks[i] = [_failed_row(plan, "the worker process running the plan died")]
    else:
        chunks = [None] * len(plans)
        shares: dict[tuple, list[int]] = {}  # plan indices by every field but method
        for i, plan in enumerate(plans):
            shares.setdefault(astuple(replace(plan, method=METHODS[0])), []).append(i)
        for group in shares.values():
            shared: dict = {}
            # cmf trains no base model: run it before any is pre-trained, so that
            # no shared model is alive while cmf's larger tables train
            for i in sorted(group, key=lambda i: plans[i].method != "cmf"):
                chunks[i] = _plan_rows(*jobs[i], shared)
    rows = [r for chunk in chunks for r in chunk]

    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["stage"] == "failed":
            continue
        groups.setdefault((r["task"], r["beta"], r["method"], r["stage"]), []).append(r)
    for key, members in groups.items():
        if len(members) < 2:
            continue
        rows.append({"task": key[0], "beta": key[1], "method": key[2], "stage": key[3],
                     "seed": "mean",
                     "mae": float(np.mean([m["mae"] for m in members])),
                     "rmse": float(np.mean([m["rmse"] for m in members])),
                     "n_eval": float(np.mean([m["n_eval"] for m in members])),
                     "runtime_s": float(np.mean([m["runtime_s"] for m in members]))})
    return rows


def _format_cell(col, value):
    if value is None:
        return ""
    if col in ("mae", "rmse"):
        return f"{value:.6f}"
    if col == "runtime_s":
        return f"{value:.3f}"
    if col in ("beta", "n_eval"):
        return f"{value:g}" if isinstance(value, float) else str(value)
    return str(value)


def write_attention_csv(cold: ColdRun, path) -> None:
    """Attention weights of each test user's source history: user, item, weight."""
    src_idx = [cold.src.users.index(u) for u in cold.split.test_users]
    rows = attention_table(cold.artifacts["enc"], cold.artifacts["ctx"], src_idx)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["user", "item", "weight"])
        for u, i, w in rows:
            writer.writerow([cold.src.users.external(u), cold.src.items.external(i),
                             f"{w:.8f}"])
    logger.info("wrote %s (%d rows)", path, len(rows))


def write_suite_csv(rows, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SUITE_COLUMNS)
        for r in rows:
            writer.writerow([_format_cell(c, r.get(c)) for c in SUITE_COLUMNS])


def write_suite_json(rows, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")


def sweep_plans(base: ExperimentPlan, methods=None, betas=None, seeds=None):
    """Cross product of method/beta/seed variations of a base plan; None keeps the base's."""
    for name, values in (("methods", methods), ("betas", betas), ("seeds", seeds)):
        if values is not None and len(values) == 0:
            raise ValueError(f"{name} must be None or a non-empty list")
    return [replace(base, method=m, beta=b, seed=s) for m in methods or [base.method]
            for b in betas or [base.beta] for s in seeds or [base.seed]]
