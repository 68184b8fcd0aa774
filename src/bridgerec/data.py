"""Rating-log ingestion, dense id spaces, overlapping users, cold/warm splits.

Loading and splitting are pure functions of their inputs; a SplitPlan is
immutable once built and serializes to canonical json (same beta and seed
give byte-identical files).
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

RATING_MIN = 0.0
RATING_MAX = 5.0

CSV_FIELDS = ("user", "item", "rating", "timestamp")
# Amazon review export schema
JSONL_FIELDS = {"user": "reviewerID", "item": "asin",
                "rating": "overall", "timestamp": "unixReviewTime"}


class MalformedRowError(ValueError):
    """A row that cannot be parsed; the message names the offending line."""


class IdMap:
    """Bijection between external string ids and dense indices from 0."""

    __slots__ = ("forward", "backward")

    def __init__(self):
        self.forward: dict[str, int] = {}
        self.backward: list[str] = []

    @classmethod
    def from_ids(cls, ids) -> "IdMap":
        m = cls()
        for ext in ids:
            m.add(ext)
        return m

    def add(self, ext: str) -> int:
        idx = self.forward.get(ext)
        if idx is None:
            idx = len(self.backward)
            self.forward[ext] = idx
            self.backward.append(ext)
        return idx

    def index(self, ext: str) -> int:
        return self.forward[ext]

    def external(self, idx: int) -> str:
        return self.backward[idx]

    def __len__(self) -> int:
        return len(self.backward)

    def __contains__(self, ext) -> bool:
        return ext in self.forward


@dataclass
class DomainDataset:
    """One domain's interactions with dense, contiguous user/item indices."""

    users: IdMap
    items: IdMap
    user_idx: np.ndarray
    item_idx: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray
    rejected_out_of_range: int = 0

    @property
    def n_ratings(self) -> int:
        return int(self.user_idx.shape[0])

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)


def dataset_from_columns(users, items, ratings, timestamps, rejected: int = 0) -> DomainDataset:
    """Build a dataset from four equal-length columns, assigning ids in first-seen order."""
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    user_idx = [user_ids.setdefault(u, len(user_ids)) for u in users]
    item_idx = [item_ids.setdefault(i, len(item_ids)) for i in items]
    return DomainDataset(
        users=IdMap.from_ids(user_ids),
        items=IdMap.from_ids(item_ids),
        user_idx=np.asarray(user_idx, dtype=np.int64),
        item_idx=np.asarray(item_idx, dtype=np.int64),
        rating=np.asarray(ratings, dtype=np.float64),
        timestamp=np.asarray(timestamps, dtype=np.int64),
        rejected_out_of_range=rejected,
    )


def _parse_fields(user, item, rating, timestamp, line_no: int):
    if user is None or item is None or rating is None or timestamp is None:
        raise MalformedRowError(f"line {line_no}: missing field")
    user = str(user)
    item = str(item)
    if not user or not item:
        raise MalformedRowError(f"line {line_no}: empty user or item id")
    if isinstance(rating, bool) or isinstance(timestamp, bool):
        raise MalformedRowError(f"line {line_no}: boolean rating or timestamp")
    try:
        r = float(rating)
        ts = int(timestamp)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRowError(f"line {line_no}: {exc}") from None
    if not math.isfinite(r):
        raise MalformedRowError(f"line {line_no}: non-finite rating")
    if ts < 0:
        raise MalformedRowError(f"line {line_no}: negative timestamp {ts}")
    return user, item, r, ts


def _iter_csv(path: Path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            return  # zero-byte file: empty dataset
        # a repeated column name keeps its last position, as in csv.DictReader
        col = {name: pos for pos, name in enumerate(header)}
        missing = [c for c in CSV_FIELDS if c not in col]
        if missing:
            raise MalformedRowError(f"line 1: header missing columns {missing}")
        u, i, r, t = (col[c] for c in CSV_FIELDS)
        width = max(u, i, r, t) + 1
        for row in reader:
            if not row:
                continue  # blank row
            if len(row) < width:  # short row: its last fields are missing
                row += [None] * (width - len(row))
            yield _parse_fields(row[u], row[i], row[r], row[t], reader.line_num)


def _iter_jsonl(path: Path):
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRowError(f"line {line_no}: {exc}") from None
            if not isinstance(rec, dict):
                raise MalformedRowError(f"line {line_no}: expected a JSON object")
            yield _parse_fields(rec.get(JSONL_FIELDS["user"]), rec.get(JSONL_FIELDS["item"]),
                                rec.get(JSONL_FIELDS["rating"]), rec.get(JSONL_FIELDS["timestamp"]),
                                line_no)


def load_domain(path, fmt: str | None = None) -> DomainDataset:
    """Load one domain's rating log into a DomainDataset.

    ``fmt`` is "csv" (header user,item,rating,timestamp) or "jsonl"
    (reviewerID/asin/overall/unixReviewTime records, one per line); when None
    it is inferred from the file suffix. Malformed rows raise
    MalformedRowError naming the line; ratings outside [0, 5] are dropped and
    counted in ``rejected_out_of_range``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".json") else "csv"
    if fmt in ("json-lines", "json_lines"):
        fmt = "jsonl"
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'jsonl'")

    columns = users, items, ratings, timestamps = [], [], [], []
    rejected = 0
    for user, item, r, ts in _iter_csv(path) if fmt == "csv" else _iter_jsonl(path):
        if RATING_MIN <= r <= RATING_MAX:
            users.append(user)
            items.append(item)
            ratings.append(r)
            timestamps.append(ts)
        else:
            rejected += 1
    ds = dataset_from_columns(*columns, rejected)
    logger.info("loaded %s: %d ratings, %d users, %d items (%d out-of-range rows rejected)",
                path.name, ds.n_ratings, ds.n_users, ds.n_items, rejected)
    return ds


def filter_to_indices(ds: DomainDataset, indices: np.ndarray) -> DomainDataset:
    """Dataset restricted to the given rating rows; id maps are shared, not rebuilt."""
    idx = np.asarray(indices, dtype=np.int64)
    return DomainDataset(
        users=ds.users,
        items=ds.items,
        user_idx=ds.user_idx[idx],
        item_idx=ds.item_idx[idx],
        rating=ds.rating[idx],
        timestamp=ds.timestamp[idx],
    )


def rows_by_user(ds: DomainDataset) -> dict[int, np.ndarray]:
    """Rating-row indices grouped by user, each group in original file order."""
    order = np.argsort(ds.user_idx, kind="stable")
    groups: dict[int, np.ndarray] = {}
    if order.size == 0:
        return groups
    sorted_users = ds.user_idx[order]
    boundaries = np.flatnonzero(np.diff(sorted_users)) + 1
    for chunk in np.split(order, boundaries):
        groups[int(ds.user_idx[chunk[0]])] = chunk
    return groups


def build_sequences(ds: DomainDataset) -> dict[int, np.ndarray]:
    """Per-user item indices ordered by timestamp (file order breaks ties)."""
    seqs = {}
    for user, rows in rows_by_user(ds).items():
        order = np.argsort(ds.timestamp[rows], kind="stable")
        seqs[user] = ds.item_idx[rows[order]]
    return seqs


def overlap_users(src: DomainDataset, tgt: DomainDataset) -> set[str]:
    """External ids of users present in both domains."""
    return set(src.users.forward) & set(tgt.users.forward)


def check_disjoint_items(src: DomainDataset, tgt: DomainDataset) -> None:
    """Raise ValueError if the two domains share an item id."""
    shared_items = set(src.items.forward) & set(tgt.items.forward)
    if shared_items:
        raise ValueError(f"domains share {len(shared_items)} item ids; item spaces must be disjoint")


@dataclass
class SplitPlan:
    """Cold/warm evaluation split over the overlapping users.

    ``cold`` and ``warm`` map each test user's external id to target-domain
    rating-row indices; every cold timestamp precedes every warm timestamp and
    the two halves differ in size by at most one (cold takes the extra).
    ``target_train_indices`` are the target rating rows of non-test users, the
    only target data visible before the warm stage.
    """

    beta: float
    seed: int
    test_users: list[str]
    train_overlap_users: list[str]
    cold: dict[str, np.ndarray]
    warm: dict[str, np.ndarray]
    users_without_warm: list[str]
    target_train_indices: np.ndarray = field(repr=False)

    def to_json(self) -> str:
        payload = {
            "beta": self.beta,
            "seed": self.seed,
            "test_users": list(self.test_users),
            "train_overlap_users": list(self.train_overlap_users),
            "cold": {u: [int(i) for i in rows] for u, rows in sorted(self.cold.items())},
            "warm": {u: [int(i) for i in rows] for u, rows in sorted(self.warm.items())},
            "users_without_warm": list(self.users_without_warm),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str, tgt: DomainDataset) -> "SplitPlan":
        payload = json.loads(text)
        cold = {u: np.asarray(rows, dtype=np.int64) for u, rows in payload["cold"].items()}
        warm = {u: np.asarray(rows, dtype=np.int64) for u, rows in payload["warm"].items()}
        test = list(payload["test_users"])
        test_idx = np.asarray([tgt.users.index(u) for u in test], dtype=np.int64)
        train_rows = np.flatnonzero(~np.isin(tgt.user_idx, test_idx))
        return cls(beta=payload["beta"], seed=payload["seed"], test_users=test,
                   train_overlap_users=list(payload["train_overlap_users"]),
                   cold=cold, warm=warm,
                   users_without_warm=list(payload["users_without_warm"]),
                   target_train_indices=train_rows)


def make_split(src: DomainDataset, tgt: DomainDataset, beta: float, seed: int) -> SplitPlan:
    """Choose cold-start test users and split their target ratings 1:1 by time.

    A seeded draw marks round(beta * |overlap|) overlapping users as test
    users. Each test user's target ratings are ordered by timestamp (stable on
    ties) and halved: the earlier ceil(n/2) rows form the cold set, the rest
    the warm set. All target ratings of test users leave the training pool.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    check_disjoint_items(src, tgt)
    overlap = sorted(overlap_users(src, tgt))
    if len(overlap) < 2:
        raise ValueError(f"need at least 2 overlapping users, found {len(overlap)}")

    n_test = int(np.floor(beta * len(overlap) + 0.5))
    if n_test == 0:
        raise ValueError(f"beta {beta} selects no test user from {len(overlap)} overlapping users")
    rng = np.random.default_rng(seed)
    test = sorted(rng.choice(np.asarray(overlap, dtype=object), size=n_test, replace=False))
    test_set = set(test)
    train = [u for u in overlap if u not in test_set]

    groups = rows_by_user(tgt)
    cold: dict[str, np.ndarray] = {}
    warm: dict[str, np.ndarray] = {}
    without_warm = []
    for u in test:
        rows = groups[tgt.users.index(u)]
        rows = rows[np.argsort(tgt.timestamp[rows], kind="stable")]
        n_cold = (len(rows) + 1) // 2
        cold[u] = rows[:n_cold]
        warm[u] = rows[n_cold:]
        if len(warm[u]) == 0:
            without_warm.append(u)

    test_idx = np.asarray([tgt.users.index(u) for u in test], dtype=np.int64)
    train_rows = np.flatnonzero(~np.isin(tgt.user_idx, test_idx))
    return SplitPlan(beta=beta, seed=seed, test_users=list(test),
                     train_overlap_users=train, cold=cold, warm=warm,
                     users_without_warm=without_warm,
                     target_train_indices=train_rows)


def verify_split(plan: SplitPlan, src: DomainDataset, tgt: DomainDataset) -> None:
    """Raise if the plan violates any protocol invariant (leakage guard)."""
    overlap = overlap_users(src, tgt)
    test_set = set(plan.test_users)
    train_set = set(plan.train_overlap_users)
    if test_set & train_set:
        raise AssertionError("test and train overlap users intersect")
    if test_set | train_set != overlap:
        raise AssertionError("test + train users do not cover the overlap")
    train_rows = set(plan.target_train_indices.tolist())
    for u in plan.test_users:
        c, w = plan.cold[u], plan.warm[u]
        if abs(len(c) - len(w)) > 1:
            raise AssertionError(f"cold/warm sizes differ by more than 1 for {u}")
        if len(w) and tgt.timestamp[c].max() > tgt.timestamp[w].min():
            raise AssertionError(f"cold ratings of {u} do not precede warm ratings")
        held_out = set(c.tolist()) | set(w.tolist())
        if held_out & train_rows:
            raise AssertionError(f"held-out ratings of {u} leak into the training pool")
    held_users = tgt.user_idx[plan.target_train_indices]
    test_idx = {tgt.users.index(u) for u in plan.test_users}
    if test_idx & set(held_users.tolist()):
        raise AssertionError("training pool contains ratings of test users")
