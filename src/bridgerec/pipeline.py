"""End-to-end experiment orchestration.

A plan fully determines a run: pre-train both domains, run the chosen
transfer method, evaluate on the cold set, then fine-tune on the cold set and
evaluate on the warm set. A synthetic world generator with planted factors
and planted bridges serves as the ground-truth oracle for the method
comparisons, and a suite runner aggregates many plans into one report table.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import time
from dataclasses import asdict, astuple, dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import checkpoint
from .bridge import (BLOCK_USERS, CharacteristicEncoder, MetaNetwork, attention_table,
                     build_context, load_bridge_nets, load_common_bridge, save_bridge_nets,
                     save_common_bridge, train_common_bridge, train_meta, train_meta_mapping,
                     transform_users)
from .data import (CHUNK_ROWS, FORMATS, RATING_MAX, RATING_MIN, DomainDataset, SplitPlan,
                   build_sequences, dataset_from_codes, filter_to_indices, load_dataset,
                   load_domain, log_source, make_split, save_dataset, write_csv)
from .models import HEADS as BASE_MODELS
from .models import (TrainConfig, check_int, cmf_train, dot_mse, item_scoring_vectors,
                     load_model, pretrain, save_model, user_representation)
from .nn import ACTIVATIONS, RowGrad, fit

logger = logging.getLogger(__name__)

LR_GRID = (0.001, 0.005, 0.01, 0.02, 0.1)
BRIDGE_NET_METHODS = ("ptupcdr", "ptupcdr_mapping_ablation")
# the method-dependent plan fields each method reads; cmf trains its own mf model
METHOD_FIELDS = {"tgt": frozenset({"base_model"}), "cmf": frozenset(),
                 "emcdr": frozenset({"base_model", "bridge"}),
                 **dict.fromkeys(BRIDGE_NET_METHODS,
                                 frozenset({"base_model", "bridge", "max_seq_len", "activation"}))}
METHODS = tuple(METHOD_FIELDS)
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

    def __post_init__(self):
        if self.fmt is not None and self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS} or null, got {self.fmt!r}")

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
        for name in ("n_users_src", "n_users_tgt", "n_overlap", "n_items_src", "n_items_tgt",
                     "k_true", "ratings_per_user", "n_clusters"):
            check_int(name, getattr(self, name))
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
        for name in ("k", "seed", "max_seq_len"):
            check_int(name, getattr(self, name), allow_none=name == "max_seq_len")
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
    def reads(self) -> frozenset:
        """Its method's ``METHOD_FIELDS``, and ``activation`` for a two_tower base model."""
        fields = METHOD_FIELDS[self.method]
        two_tower = "base_model" in fields and self.base_model == "two_tower"
        return fields | {"activation"} if two_tower else fields


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


def _draw_without_replacement(rng, p, count) -> list[int]:
    """``rng.choice(len(p), count, replace=False, p=p).tolist()``, from the same random numbers.

    numpy's weighted draw round for round: each round draws one uniform per item still
    missing, inverts the cdf of ``p`` with the found items zeroed, and keeps the first
    occurrence of each new item. ``choice``'s copy and checks of ``p`` are skipped, so ``p``
    must be non-negative and sum to 1, and the found items are zeroed in it in place.
    """
    if np.count_nonzero(p > 0) < count:
        raise ValueError(f"p has fewer than {count} non-zero entries")
    found = {}
    while len(found) < count:
        x = rng.random(count - len(found))
        if found:
            p[list(found)] = 0.0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found |= dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
    return list(found)


def _draw_ratings(rng, spec, ids, vecs, factors):
    """Each user's rated items, drawn with probability softmax(selection_sharpness * score)
    and without replacement, and their noisy ratings clipped to [0, 5].

    ``ids`` and the rows of ``vecs`` are the users and their factors. The arithmetic runs
    on blocks of ``BLOCK_USERS`` users in one reused buffer, while the random draws stay per
    user in order: a user's items, then their noise. Returns ``(chosen, rating)``, each
    with one row per user.
    """
    per, n = spec.ratings_per_user, len(ids)
    chosen = np.empty((n, per), dtype=np.int64)
    rating = np.empty((n, per))
    noise = np.zeros((n, per))
    buf = np.empty((min(n, BLOCK_USERS), len(factors)))
    for lo in range(0, n, BLOCK_USERS):
        hi = min(lo + BLOCK_USERS, n)
        p = buf[:hi - lo]
        for vec, row in zip(vecs[lo:hi], p):
            np.matmul(factors, vec, out=row)  # one gemv a user: a GEMM rounds differently
        # an overflowing sharpness leaves NaN rows, which the draw rejects below
        with np.errstate(over="ignore", invalid="ignore"):
            p *= spec.selection_sharpness
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
        for u, row in enumerate(p, lo):
            try:
                chosen[u] = _draw_without_replacement(rng, row, per)
            except ValueError:
                raise ValueError(
                    f"selection_sharpness {spec.selection_sharpness} leaves user "
                    f"{ids[u]} fewer than ratings_per_user={per} items to draw from"
                ) from None
            if spec.noise_sd > 0:
                noise[u] = rng.normal(0.0, spec.noise_sd, per)
        # a stacked product runs the same gemv per user as factors[chosen[u]] @ vecs[u]
        rating[lo:hi] = (factors[chosen[lo:hi]] @ vecs[lo:hi, :, None])[..., 0]
    return chosen, np.clip(rating + noise, 0.0, 5.0)


def generate_synthetic(spec: SyntheticSpec, seed: int = 0):
    """Build two domains whose overlap users are linked by planted bridges.

    User and item factors are non-negative with scale chosen so every exact
    rating lies in [0, 5]. Users and items belong to preference archetypes;
    each user rates items drawn with probability increasing in the planted
    score, so a user's history is informative about their archetype. The items
    are drawn with numpy's weighted-without-replacement algorithm, implemented
    here (``_draw_without_replacement``) so that users are scored in blocks
    while the random draws stay per user; a world is byte-identical to one
    drawn with ``Generator.choice``. Overlap users' target factors are
    ``B_u @ src_factor`` with B either one shared matrix or a per-archetype
    diagonal. Returns (src, tgt, PlantedTruth).
    """
    rng = np.random.default_rng(seed)
    k = spec.k_true
    scale = np.sqrt(5.0 / k) * 0.95

    # sparse archetype directions keep clusters distinguishable
    centers = rng.dirichlet(np.full(k, 0.4), size=spec.n_clusters)
    centers /= centers.max(axis=1, keepdims=True)

    def factors(clusters, jitter):
        return scale * (0.8 * centers[clusters] + 0.2 * jitter)

    def draw_users(count):
        """The archetypes and factors of ``count`` users, each drawing its archetype first."""
        clusters, jitter = np.empty(count, dtype=np.int64), np.empty((count, k))
        for i in range(count):
            clusters[i] = rng.integers(spec.n_clusters)
            jitter[i] = rng.uniform(0.0, 1.0, k)
        return clusters, factors(clusters, jitter)

    def draw_items(count):
        clusters = rng.integers(spec.n_clusters, size=count)
        return factors(clusters, np.array([rng.uniform(0.0, 1.0, k) for _ in clusters]))

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

    clusters, overlap = draw_users(spec.n_overlap)
    if shared is None:
        tgt_overlap = diags[clusters] * overlap
    else:  # each row of shared has one non-zero entry, so every summation order is exact
        tgt_overlap = overlap @ shared.T
    overlap_ids = [f"ou{i:05d}" for i in range(spec.n_overlap)]
    n_src, n_tgt = spec.n_users_src - spec.n_overlap, spec.n_users_tgt - spec.n_overlap
    src_ids = overlap_ids + [f"su{i:05d}" for i in range(n_src)]
    src_users = np.concatenate([overlap, draw_users(n_src)[1]])
    tgt_ids = overlap_ids + [f"tu{i:05d}" for i in range(n_tgt)]
    tgt_users = np.concatenate([tgt_overlap, draw_users(n_tgt)[1]])
    src_items, tgt_items = draw_items(spec.n_items_src), draw_items(spec.n_items_tgt)

    def domain_dataset(prefix, ids, users, factors):
        """The domain's dataset, and its item factors in dataset index order."""
        per = spec.ratings_per_user
        chosen, rating = _draw_ratings(rng, spec, ids, users, factors)
        # each rated item is named once; codes follow first-seen order, as in a log
        rated, first = np.unique(chosen, return_index=True)
        rated = rated[np.argsort(first)]
        code = np.empty(len(factors), dtype=np.int64)
        code[rated] = np.arange(len(rated))
        user_ids = {ext: u for u, ext in enumerate(ids)}
        item_ids = {f"{prefix}{j:05d}": c for c, j in enumerate(rated.tolist())}
        ds = dataset_from_codes(user_ids, item_ids, np.repeat(np.arange(len(ids)), per),
                                code[chosen].ravel(), rating.ravel(),
                                np.tile(np.arange(per), len(ids)))
        return ds, factors[rated]

    src, src_item_factors = domain_dataset("si", src_ids, src_users, src_items)
    tgt, tgt_item_factors = domain_dataset("ti", tgt_ids, tgt_users, tgt_items)
    truth = PlantedTruth(src_users, tgt_users, src_item_factors, tgt_item_factors,
                         overlap_ids, shared)
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


def _domain_source(plan: ExperimentPlan, side: str) -> dict:
    """What identifies the ``side`` ("src" or "tgt") dataset of ``plan``: its log's
    sha256 and resolved format, or the synthetic spec and the data seed."""
    task = plan.task
    if isinstance(task, SyntheticTask):
        return {"spec": asdict(task.spec), "data_seed": _stage_seeds(plan.seed)["data"]}
    return log_source(task.src_path if side == "src" else task.tgt_path, task.fmt)


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


def _train_transfer(plan: ExperimentPlan, shared: dict, ctx, seeds: dict, traces: dict,
                    counters: dict):
    """Train the plan's bridge stage on the train overlap users: emcdr's shared bridge W,
    or a ptupcdr-family (encoder, generator) pair."""
    src, tgt, split, tgt_train = (shared[key] for key in ("src", "tgt", "split", "tgt_train"))
    train_src = np.array([src.users.index(u) for u in split.train_overlap_users], dtype=np.int64)
    train_tgt = np.array([tgt.users.index(u) for u in split.train_overlap_users], dtype=np.int64)
    if plan.method == "emcdr":
        W, traces["bridge"] = train_common_bridge(ctx.user_reprs[train_src],
                                                  ctx.tgt_user_reprs[train_tgt],
                                                  plan.bridge, seed=seeds["bridge"])
        return W
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
    return enc, meta


def _transfer(plan: ExperimentPlan, shared: dict, seeds: dict, traces: dict, counters: dict):
    """The plan's transfer method: (scoring table, ``ColdRun.init``, artifacts). cmf trains
    one mf model on both domains; tgt scores with the target model alone; emcdr learns one
    bridge for all users; the ptupcdr family generates each user's bridge from their
    source history. ``METHOD_FIELDS`` names the plan fields each method reads. A bridge
    method takes ``shared["transfer"]`` when it is there, else trains it."""
    src, tgt, split, tgt_train = (shared[key] for key in ("src", "tgt", "split", "tgt_train"))
    if plan.method == "cmf":
        cmf, traces["cmf"] = cmf_train(src, tgt_train, plan.k, plan.pretrain, seed=seeds["tgt"])
        return cmf.tgt_items, cmf.users[[cmf.user_map.index(u) for u in split.test_users]], {}
    tgt_model = _pretrained(shared, "tgt", tgt_train, plan, seeds["tgt"], traces)
    scoring = item_scoring_vectors(tgt_model)
    if plan.method == "tgt":
        # one tower pass per user: a batched pass rounds two_tower outputs differently
        return scoring, np.array([user_representation(tgt_model, tgt.users.index(u))
                                  for u in split.test_users]), {"tgt_model": tgt_model}
    src_model = _pretrained(shared, "src", src, plan, seeds["src"], traces)
    ctx = build_context(src_model, tgt_model, build_sequences(src))
    artifacts = {"tgt_model": tgt_model, "src_model": src_model, "ctx": ctx}
    transfer = (shared["transfer"] if "transfer" in shared
                else _train_transfer(plan, shared, ctx, seeds, traces, counters))
    test_src = [src.users.index(u) for u in split.test_users]
    if plan.method == "emcdr":
        # stacked matrix-vector products: row i is exactly W @ s_i
        return (scoring, (transfer @ ctx.user_reprs[test_src, :, None])[..., 0],
                {**artifacts, "common_bridge": transfer})
    enc, meta = transfer
    return (scoring, transform_users(enc, meta, ctx, test_src),
            {**artifacts, "enc": enc, "meta": meta})


def run_cold(plan: ExperimentPlan, pretrained: dict | None = None) -> ColdRun:
    """Load and split the data, run ``_transfer``, and score each test user's cold set.

    ``pretrained`` holds what plans that differ only in ``method`` share: "src", "tgt",
    "split", "tgt_train", "src_model" and "tgt_model", and the models' TrainRecords
    "src_trace" and "tgt_trace" (``load_checkpoints`` gives no split and no records).
    run_cold reuses what the dict holds and adds what it builds; it modifies no entry.
    One key is the plan's own, not shared: "transfer", the bridge-stage result
    ``load_transfer`` read from checkpoints (emcdr's W or a ptupcdr-family (encoder,
    generator)). With it the bridge stage trains nothing, so the report has no "bridge"
    trace and counts no skipped meta samples; run_cold never adds it.
    """
    seeds = _stage_seeds(plan.seed)
    shared = {} if pretrained is None else pretrained
    if "src" not in shared:
        shared["src"], shared["tgt"] = _resolve_data(plan, seeds["data"])
    src, tgt = shared["src"], shared["tgt"]
    if "split" not in shared:
        split = make_split(src, tgt, plan.beta, plan.seed)
        if len(split.users_without_warm) == len(split.test_users):
            raise ValueError(f"none of the {len(split.test_users)} test users has a warm "
                             "rating, so the warm stage would have nothing to score")
        shared.update(split=split, tgt_train=filter_to_indices(tgt, split.target_train_indices))
    split, tgt_train = shared["split"], shared["tgt_train"]

    traces: dict = {}
    counters = {"unseen_item_predictions": 0, "skipped_meta_samples": 0}
    scoring, init, artifacts = _transfer(plan, shared, seeds, traces, counters)

    cold_rows = [split.cold[u] for u in split.test_users]
    trained_items = np.unique(tgt_train.item_idx)
    counters["unseen_item_predictions"] = int(np.sum(
        ~np.isin(tgt.item_idx[np.concatenate(cold_rows)], trained_items)))
    report = _evaluate(plan, "cold", tgt, cold_rows, scoring, init, counters, traces)
    return ColdRun(plan=plan, report=report, src=src, tgt=tgt, split=split,
                   scoring=scoring, init=init, artifacts=artifacts)


def _transfer_record(plan: ExperimentPlan, src_model, tgt_model) -> dict:
    """What a bridge stage's result depends on, as a checkpoint manifest holds it: the plan
    fields it read and a sha256 of the two models it bridges."""
    digest = hashlib.sha256()
    for model in (src_model, tgt_model):
        for name, p in sorted(model.params().items()):
            digest.update(f"{name}{p.shape}".encode())
            digest.update(p.tobytes())
    return {"method": plan.method, "base_model": plan.base_model, "k": plan.k,
            "beta": plan.beta, "seed": plan.seed, "activation": plan.activation,
            "max_seq_len": plan.max_seq_len, "bridge": asdict(plan.bridge),
            "models": digest.hexdigest()}


def save_checkpoints(cold: ColdRun, ckpt_dir: Path) -> None:
    """Save the cold run's models and bridge. With both domain models, the methods
    stage meta_only reads, also save both domains; each domain's meta holds where it
    came from and the plan's beta and seed, which fix the split. A bridge's meta holds,
    under "trained_with", ``_transfer_record``, which ``load_transfer`` checks."""
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    artifacts, plan = cold.artifacts, cold.plan
    if "src_model" in artifacts:
        for side in ("src", "tgt"):
            save_dataset(ckpt_dir / f"{side}_domain", getattr(cold, side),
                         {"source": _domain_source(plan, side), "beta": plan.beta,
                          "seed": plan.seed})
        save_model(ckpt_dir / "src_model", artifacts["src_model"])
        record = {"trained_with": _transfer_record(plan, artifacts["src_model"],
                                                   artifacts["tgt_model"])}
    if "tgt_model" in artifacts:
        save_model(ckpt_dir / "tgt_model", artifacts["tgt_model"])
    if "common_bridge" in artifacts:
        save_common_bridge(ckpt_dir / "common_bridge", artifacts["common_bridge"], record)
    if "enc" in artifacts:
        save_bridge_nets(ckpt_dir / "bridge_nets", artifacts["enc"], artifacts["meta"], record)


def load_checkpoints(plan: ExperimentPlan, ckpt_dir) -> dict:
    """``run_cold``'s ``pretrained`` dict ("src_model", "tgt_model", "src", "tgt") read
    from the files ``save_checkpoints`` wrote; a checkpoint that is missing, unreadable,
    saved for another plan, or a model whose tables do not fit its domain's users and
    items is a ValueError naming it."""
    loaded = {}
    for name in ("src_model", "tgt_model", "src_domain", "tgt_domain"):
        side, kind = name.split("_")
        try:
            if kind == "model":
                loaded[name] = model = load_model(Path(ckpt_dir) / name)
            else:
                loaded[side], meta = load_dataset(Path(ckpt_dir) / name)
        except FileNotFoundError as exc:
            raise ValueError(f"missing checkpoint artifact for {name}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"checkpoint manifest for {name} lacks the key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{name} checkpoint in {ckpt_dir} is unreadable: {exc}") from None
        if kind == "model":
            if (model.head, model.k) != (plan.base_model, plan.k):
                raise ValueError(f"{name} checkpoint has base_model {model.head!r} and k "
                                 f"{model.k}, but the config asks for base_model "
                                 f"{plan.base_model!r} and k {plan.k}")
        # the split, and so which target ratings trained tgt_model, follows from beta and seed
        elif (meta.get("beta"), meta.get("seed")) != (plan.beta, plan.seed):
            raise ValueError(f"checkpoints in {ckpt_dir} were saved at beta {meta.get('beta')} "
                             f"and seed {meta.get('seed')}, but the config asks for beta "
                             f"{plan.beta} and seed {plan.seed}")
        elif meta.get("source") != _domain_source(plan, side):
            raise ValueError(f"{name} checkpoint in {ckpt_dir} was saved from other data "
                             f"than the config's {side} domain")
        else:  # pretrain sizes a model from its data, and tgt_train shares tgt's id maps
            model, ds = loaded[f"{side}_model"], loaded[side]
            if (model.n_users, model.n_items) != (ds.n_users, ds.n_items):
                raise ValueError(f"{side}_model checkpoint in {ckpt_dir} has {model.n_users} "
                                 f"users and {model.n_items} items, but {name} has "
                                 f"{ds.n_users} users and {ds.n_items} items")
    return loaded


def load_transfer(plan: ExperimentPlan, ckpt_dir, loaded: dict) -> dict:
    """``{"transfer": ...}`` for ``run_cold``: the bridge ``save_checkpoints`` wrote in
    ``ckpt_dir``, when its "trained_with" equals ``_transfer_record`` of ``plan`` and the
    models of ``loaded`` (what ``load_checkpoints`` returned). A bridge that is missing,
    unreadable or saved before the record, or for another plan or other models, gives
    {}, and ``run_cold`` trains it again."""
    emcdr = plan.method == "emcdr"
    prefix = Path(ckpt_dir) / ("common_bridge" if emcdr else "bridge_nets")
    record = _transfer_record(plan, loaded["src_model"], loaded["tgt_model"])
    try:
        if checkpoint.load_meta(prefix).get("trained_with") != record:
            return {}
        return {"transfer": load_common_bridge(prefix) if emcdr else load_bridge_nets(prefix)}
    except FileNotFoundError:
        return {}
    except (KeyError, ValueError) as exc:
        logger.warning("the bridge checkpoint at %s is unreadable, so the bridge stage "
                       "trains again: %s", prefix, exc)
        return {}


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
        Eb, Qb = np.take(E, uu, axis=0), np.take(Q, ii, axis=0)
        loss, d_pred = dot_mse(Eb, Qb, pool_r[rows])
        d_pred = d_pred[:, None]
        grads = {"E": RowGrad(E.shape, uu, d_pred * Qb)}
        if plan.finetune_items:
            grads["Q"] = RowGrad(Q.shape, ii, d_pred * Eb)
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

def report_row(plan: ExperimentPlan, report: MetricsReport, seconds: float,
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
        if attention_path is not None:
            write_attention_csv(cold, attention_path)
    except Exception as exc:  # suite keeps going; the row records the failure
        logger.exception("plan failed: %s %s beta=%s seed=%s",
                         plan.task.label, plan.method, plan.beta, plan.seed)
        return [_failed_row(plan, str(exc))]
    return [report_row(plan, cold.report, t_cold, record_runtime),
            report_row(plan, warm, t_warm, record_runtime)]


def _group_rows(jobs) -> list:
    """Rows of each ``_plan_rows`` argument tuple of one group, in job order, run
    with one shared dict of domains, split and pre-trained models. cmf trains no
    base model: it runs first, so that no shared model is alive while its larger
    tables train."""
    shared: dict = {}
    chunks = [None] * len(jobs)
    for i in sorted(range(len(jobs)), key=lambda i: jobs[i][0].method != "cmf"):
        chunks[i] = _plan_rows(*jobs[i], shared)
    return chunks


def _pool_rows(groups, workers: int) -> list:
    """``_group_rows`` of each group, one future each in a process pool of at
    most ``workers`` workers; each job of a group lost because a worker died
    gets None (``BrokenProcessPool``, a ``BrokenExecutor``: catching the base
    keeps multiprocessing out of import)."""
    futures = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
        for jobs in groups:
            try:
                futures.append(pool.submit(_group_rows, jobs))
            except concurrent.futures.BrokenExecutor:
                futures.append(None)
    results = []
    for jobs, future in zip(groups, futures):
        try:
            results.append(future.result() if future is not None else [None] * len(jobs))
        except concurrent.futures.BrokenExecutor:
            results.append([None] * len(jobs))
    return results


def run_suite(plans, parallelism: int = 1, record_runtime: bool = True,
              attention_dir: Path | None = None):
    """Run every plan, then append seed-averaged rows per (task, beta, method, stage).

    Plans that differ only in ``method`` form a group, the unit of work: they
    share one load of the domains, one split and one pre-trained source and
    target model (``_group_rows``). With ``parallelism`` 1 the groups run in
    this process, otherwise up to ``parallelism`` at once in worker processes.

    Failed plans produce a single row with stage "failed" and an ``error``
    field; the suite continues. A worker that dies loses every group its pool
    had not finished, so each plan of those groups runs again alone in a
    worker of its own: only a plan that kills its own worker fails. Rows come
    back in deterministic plan order.

    With ``attention_dir``, the first plan of each ptupcdr-family (method,
    beta) writes its cold run's attention weights to
    ``attention_<method>_beta<beta>.csv`` there; an export that fails is
    that plan's failed row.
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
    paths = {i: Path(attention_dir) / f"attention_{method}_beta{_format_cell('beta', beta)}.csv"
             for (method, beta), i in attention.items()}
    jobs = [(plan, record_runtime, paths.get(i)) for i, plan in enumerate(plans)]
    shares: dict[tuple, list[int]] = {}  # plan indices by every field but method
    for i, plan in enumerate(plans):
        shares.setdefault(astuple(replace(plan, method=METHODS[0])), []).append(i)
    group_jobs = [[jobs[i] for i in members] for members in shares.values()]
    results = ([_group_rows(group) for group in group_jobs] if parallelism == 1
               else _pool_rows(group_jobs, parallelism))
    chunks = dict(zip((i for members in shares.values() for i in members),
                      (chunk for result in results for chunk in result)))
    for i, plan in enumerate(plans):
        if chunks[i] is None:  # its worker died: run the plan again alone
            (chunks[i],) = _pool_rows([[jobs[i]]], 1)[0]
        if chunks[i] is None:
            logger.error("plan failed: %s %s beta=%s seed=%s: its worker process died",
                         plan.task.label, plan.method, plan.beta, plan.seed)
            chunks[i] = [_failed_row(plan, "the worker process running the plan died")]
    rows = [r for i in range(len(plans)) for r in chunks[i]]

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
        return f"{value:.15g}" if isinstance(value, float) else str(value)
    return str(value)


def write_attention_csv(cold: ColdRun, path) -> None:
    """Attention weights of each test user's source history: user, item, weight."""
    src_idx = [cold.src.users.index(u) for u in cold.split.test_users]
    users, items, weights = attention_table(cold.artifacts["enc"], cold.artifacts["ctx"], src_idx)
    user_ids, item_ids = cold.src.users.backward, cold.src.items.backward
    blocks = (slice(start, start + CHUNK_ROWS) for start in range(0, len(users), CHUNK_ROWS))
    # one block of rows is alive as Python objects at a time
    write_csv(path, ["user", "item", "weight"], chain.from_iterable(
        zip(map(user_ids.__getitem__, users[b].tolist()),
            map(item_ids.__getitem__, items[b].tolist()),
            map("{:.8f}".format, weights[b].tolist())) for b in blocks))
    logger.info("wrote %s (%d rows)", path, len(users))


def write_embeddings_csv(cold: ColdRun, path) -> None:
    """Test users' initial and train overlap users' target vectors: user, kind, d0..."""
    vectors = [("transformed", zip(cold.split.test_users, cold.init))]
    tgt_model = cold.artifacts.get("tgt_model")
    if tgt_model is not None:
        vectors.append(("target", ((u, user_representation(tgt_model, cold.tgt.users.index(u)))
                                   for u in cold.split.train_overlap_users)))
    write_csv(path, ["user", "kind"] + [f"d{i}" for i in range(cold.plan.k)],
              ([u, kind] + [f"{x:.8f}" for x in vec]
               for kind, pairs in vectors for u, vec in pairs))
    logger.info("wrote %s", path)


def write_suite_csv(rows, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, SUITE_COLUMNS,
              ([_format_cell(c, r.get(c)) for c in SUITE_COLUMNS] for r in rows))


def write_suite_json(rows, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def sweep_plans(base: ExperimentPlan, methods=None, betas=None, seeds=None):
    """Cross product of method/beta/seed variations of a base plan; None keeps the base's,
    and a list that repeats a value is an error (the plans would run twice)."""
    for name, values in (("methods", methods), ("betas", betas), ("seeds", seeds)):
        if values is not None and len(values) == 0:
            raise ValueError(f"{name} must be None or a non-empty list")
        if values is not None and len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat a value, got {values}")
    return [replace(base, method=m, beta=b, seed=s) for m in methods or [base.method]
            for b in betas or [base.beta] for s in seeds or [base.seed]]
