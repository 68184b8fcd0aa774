"""Rating-log ingestion, dense id spaces, overlapping users, cold/warm splits.

Loading and splitting are pure functions of their inputs; a SplitPlan is
immutable once built and serializes to canonical json (same beta and seed
give byte-identical files). A log is read in one pass, every line through one
check, and ``rows_by_user`` orders each user's rows by time for both the
sequences and the split. A loaded dataset saves to a checkpoint and loads
back exactly, so a later run need not parse its log again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import compress, islice
from pathlib import Path

import numpy as np

from . import checkpoint

logger = logging.getLogger(__name__)

RATING_MIN = 0.0
RATING_MAX = 5.0
TIMESTAMP_MAX = 2**63 - 1  # timestamps are int64

FORMATS = ("csv", "jsonl", "json-lines", "json_lines")
CSV_FIELDS = ("user", "item", "rating", "timestamp")
# Amazon review export schema
JSONL_FIELDS = {"user": "reviewerID", "item": "asin",
                "rating": "overall", "timestamp": "unixReviewTime"}
# the tensors of a saved dataset, in DomainDataset field order, and their dtypes
DATASET_COLUMNS = ("user_idx", "item_idx", "rating", "timestamp")
DATASET_DTYPES = (np.int64, np.int64, np.float64, np.int64)
# a log becomes columns this many rows at a time, so only one chunk of rows is
# ever held as Python objects
CHUNK_ROWS = 256
_HASH_BLOCK = 1 << 16  # a log is hashed in blocks of this many bytes, never read whole


class MalformedRowError(ValueError):
    """A row that cannot be parsed; the message names the offending line."""


class IdMap:
    """Bijection between external string ids and dense indices from 0."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward: dict[str, int] | None = None):
        """An empty map, or one that takes over ``forward``, whose indices must be
        0, 1, ... in insertion order (as first-seen interning gives)."""
        self.forward: dict[str, int] = {} if forward is None else forward
        self.backward: list[str] = list(self.forward)

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


def dataset_from_codes(user_ids: dict[str, int], item_ids: dict[str, int], user_idx, item_idx,
                       ratings, timestamps, rejected: int = 0) -> DomainDataset:
    """Build a dataset from id dicts in first-seen order (each id -> its index, as
    ``_intern`` fills them) and four equal-length columns; the id maps take the
    dicts over."""
    columns = (np.asarray(c, dtype=d) for c, d in
               zip((user_idx, item_idx, ratings, timestamps), DATASET_DTYPES))
    return DomainDataset(IdMap(user_ids), IdMap(item_ids), *columns,
                         rejected_out_of_range=rejected)


def _intern(ids: dict[str, int], column) -> np.ndarray:
    """Indices of ``column``'s ids; an id not yet in ``ids`` gets the next index."""
    return np.asarray([ids.setdefault(x, len(ids)) for x in column], dtype=np.int64)


def dataset_from_columns(users, items, ratings, timestamps, rejected: int = 0) -> DomainDataset:
    """Build a dataset from four equal-length columns, assigning ids in first-seen order."""
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    return dataset_from_codes(user_ids, item_ids, _intern(user_ids, users),
                              _intern(item_ids, items), ratings, timestamps, rejected)


def _parse_fields(user, item, rating, timestamp, line_no: int):
    if user is None or item is None or rating is None or timestamp is None:
        raise MalformedRowError(f"line {line_no}: missing field")
    # a json-lines id must be a string: str() of anything else (12, 1e2, true) would
    # forge an id ("12", "100.0", "True") that can merge with a real one
    if type(user) is not str or type(item) is not str:
        raise MalformedRowError(f"line {line_no}: user or item id is not a string")
    if not user or not item:
        raise MalformedRowError(f"line {line_no}: empty user or item id")
    if "\x00" in user or "\x00" in item:
        raise MalformedRowError(f"line {line_no}: user or item id holds a NUL character")
    # a json-lines escape can make a lone surrogate, which no UTF-8 output can hold
    if not (user.isascii() and item.isascii()):
        try:
            user.encode("utf-8"), item.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedRowError(f"line {line_no}: user or item id {exc.object!r} "
                                    "is not encodable as UTF-8") from None
    if isinstance(rating, bool) or isinstance(timestamp, bool):
        raise MalformedRowError(f"line {line_no}: boolean rating or timestamp")
    try:
        r = float(rating)
        ts = int(timestamp)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRowError(f"line {line_no}: {exc}") from None
    if type(timestamp) is float and ts != timestamp:  # int() would drop a json 1.5's fraction
        raise MalformedRowError(f"line {line_no}: timestamp {timestamp!r} is not a whole number")
    if not math.isfinite(r):
        raise MalformedRowError(f"line {line_no}: non-finite rating")
    if ts < 0:
        raise MalformedRowError(f"line {line_no}: negative timestamp {ts}")
    if ts > TIMESTAMP_MAX:
        raise MalformedRowError(f"line {line_no}: timestamp {ts} exceeds the int64 range")
    return user, item, r, ts


def _checked_lines(f):
    """The lines of ``f``, opened with errors="surrogateescape"; the first line
    holding a byte that is not UTF-8, or else NUL (which csv.reader itself
    rejects only before Python 3.11), raises MalformedRowError naming it."""
    for line_no, line in enumerate(f, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise MalformedRowError(
                    f"line {line_no}: byte 0x{byte:02x} is not UTF-8") from None
        if "\x00" in line:
            raise MalformedRowError(f"line {line_no}: line contains NUL")
        yield line


def _iter_csv(lines):
    reader = csv.reader(lines)
    try:
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
    except csv.Error as exc:  # a field over the size limit
        raise MalformedRowError(f"line {reader.line_num}: {exc}") from None


def _iter_jsonl(lines):
    for line_no, line in enumerate(lines, start=1):
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


def _coded_chunk(rows, user_ids: dict[str, int], item_ids: dict[str, int]):
    """The next CHUNK_ROWS parsed rows as pieces of the four dataset columns, with
    ids interned into ``user_ids`` and ``item_ids`` and ratings outside [0, 5]
    dropped, and the number dropped; None once ``rows`` is exhausted. Only these
    rows are ever alive as Python objects."""
    chunk = list(islice(rows, CHUNK_ROWS))
    if not chunk:
        return None
    users, items, ratings, timestamps = zip(*chunk)
    rating = np.array(ratings, dtype=np.float64)
    keep = (rating >= RATING_MIN) & (rating <= RATING_MAX)
    kept = keep.tolist()
    pieces = (_intern(user_ids, compress(users, kept)), _intern(item_ids, compress(items, kept)),
              rating[keep], np.array(timestamps, dtype=np.int64)[keep])
    return pieces, len(kept) - int(np.count_nonzero(keep))


def _joined(pieces: list, dtype) -> np.ndarray:
    """The concatenation of ``pieces``, which it empties, so that only one column
    is ever held twice."""
    out = np.concatenate(pieces) if pieces else np.empty(0, dtype)
    pieces.clear()
    return out


def resolve_format(path, fmt: str | None) -> str:
    """``fmt`` as "csv" or "jsonl"; None infers it from the suffix of ``path``."""
    if fmt is None:
        return "jsonl" if Path(path).suffix in (".jsonl", ".json") else "csv"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return "jsonl" if fmt in ("json-lines", "json_lines") else fmt


def log_source(path, fmt: str | None = None) -> dict:
    """What identifies the dataset ``load_domain(path, fmt)`` gives: the sha256 of
    the log's bytes, read in fixed-size blocks, and its resolved format."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_HASH_BLOCK), b""):
            digest.update(block)
    return {"format": resolve_format(path, fmt), "sha256": digest.hexdigest()}


def load_domain(path, fmt: str | None = None) -> DomainDataset:
    """Load one domain's rating log into a DomainDataset.

    ``fmt`` is "csv" (header user,item,rating,timestamp) or "jsonl" (also
    "json-lines" or "json_lines": reviewerID/asin/overall/unixReviewTime
    records, one per line); when None it is inferred from the file suffix.
    The log is read once, as UTF-8, a leading byte-order mark skipped. A line
    that is not UTF-8 or holds a NUL byte, in either format, or a malformed row
    (among them a json-lines id whose escapes give NUL or a character UTF-8
    cannot encode) raises MalformedRowError naming the first such line;
    ratings outside [0, 5] are dropped and counted in ``rejected_out_of_range``.
    Rows become columns CHUNK_ROWS at a time, ids interned in first-seen order
    as they stream.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    fmt = resolve_format(path, fmt)

    parse, newline = (_iter_csv, "") if fmt == "csv" else (_iter_jsonl, None)
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    columns = ([], [], [], [])  # per-chunk pieces of each dataset column
    rejected = 0
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as f:
        rows = parse(_checked_lines(f))
        while (coded := _coded_chunk(rows, user_ids, item_ids)) is not None:
            pieces, dropped = coded
            rejected += dropped
            for column, piece in zip(columns, pieces):
                column.append(piece)
    ds = dataset_from_codes(user_ids, item_ids,
                            *(_joined(c, d) for c, d in zip(columns, DATASET_DTYPES)), rejected)
    logger.info("loaded %s: %d ratings, %d users, %d items (%d out-of-range rows rejected)",
                path.name, ds.n_ratings, ds.n_users, ds.n_items, rejected)
    return ds


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` (an iterable, consumed as it is
    written) to the csv file ``path``, as UTF-8 whatever the locale."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def save_dataset(prefix, ds: DomainDataset, meta: dict | None = None) -> None:
    """Save ``ds`` as a checkpoint: its columns as tensors, and its id lists in index
    order, its rejected-row count and ``meta`` in the manifest."""
    checkpoint.save_tensors(prefix, "domain",
                            {name: getattr(ds, name) for name in DATASET_COLUMNS},
                            {**(meta or {}), "users": ds.users.backward,
                             "items": ds.items.backward,
                             "rejected_out_of_range": ds.rejected_out_of_range})


def load_dataset(prefix) -> tuple[DomainDataset, dict]:
    """The dataset ``save_dataset`` wrote at ``prefix``, and the manifest's meta.

    A missing entry, a repeated id, columns of unequal length or of the wrong
    dtype, or an index outside its id map is a ValueError.
    """
    tensors, meta = checkpoint.load_tensors(prefix, "domain")
    try:
        columns = [tensors[name] for name in DATASET_COLUMNS]
        users, items = IdMap.from_ids(meta["users"]), IdMap.from_ids(meta["items"])
        rejected = meta["rejected_out_of_range"]
    except KeyError as exc:
        raise ValueError(f"domain checkpoint at {prefix} lacks {exc}") from None
    if (len(users), len(items)) != (len(meta["users"]), len(meta["items"])):
        raise ValueError(f"domain checkpoint at {prefix} repeats an id")
    if (len({c.shape for c in columns}) != 1 or columns[0].ndim != 1
            or tuple(c.dtype for c in columns) != DATASET_DTYPES):
        raise ValueError(f"domain checkpoint at {prefix} needs four int64/float64 columns "
                         "of equal length")
    for idx, ids, name in ((columns[0], users, "user"), (columns[1], items, "item")):
        if idx.size and (idx.min() < 0 or idx.max() >= len(ids)):
            raise ValueError(f"domain checkpoint at {prefix} has a {name} index "
                             "outside its id map")
    return DomainDataset(users, items, *columns, rejected_out_of_range=rejected), meta


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
    """Rating-row indices grouped by user (keys in index order), each group
    ordered by timestamp with file order breaking ties."""
    order = np.lexsort((ds.timestamp, ds.user_idx))  # stable: ties keep file order
    if order.size == 0:
        return {}
    users = ds.user_idx[order]
    boundaries = np.flatnonzero(np.diff(users)) + 1
    return dict(zip(users[np.r_[0, boundaries]].tolist(), np.split(order, boundaries)))


def build_sequences(ds: DomainDataset) -> dict[int, np.ndarray]:
    """Per-user item indices in ``rows_by_user`` order: by timestamp, file order
    breaking ties."""
    return {user: ds.item_idx[rows] for user, rows in rows_by_user(ds).items()}


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
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_json(cls, text: str, tgt: DomainDataset) -> "SplitPlan":
        payload = json.loads(text)
        cold = {u: np.asarray(rows, dtype=np.int64) for u, rows in payload["cold"].items()}
        warm = {u: np.asarray(rows, dtype=np.int64) for u, rows in payload["warm"].items()}
        test = list(payload["test_users"])
        return cls(beta=payload["beta"], seed=payload["seed"], test_users=test,
                   train_overlap_users=list(payload["train_overlap_users"]),
                   cold=cold, warm=warm,
                   users_without_warm=list(payload["users_without_warm"]),
                   target_train_indices=_rows_outside(tgt, test))


def _rows_outside(tgt: DomainDataset, users) -> np.ndarray:
    """The rating rows of ``tgt`` whose user is none of ``users``: a split's training rows."""
    return np.flatnonzero(~np.isin(tgt.user_idx, [tgt.users.index(u) for u in users]))


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
        rows = groups[tgt.users.index(u)]  # already in time order
        n_cold = (len(rows) + 1) // 2
        cold[u] = rows[:n_cold]
        warm[u] = rows[n_cold:]
        if len(warm[u]) == 0:
            without_warm.append(u)

    return SplitPlan(beta=beta, seed=seed, test_users=list(test),
                     train_overlap_users=train, cold=cold, warm=warm,
                     users_without_warm=without_warm,
                     target_train_indices=_rows_outside(tgt, test))


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
