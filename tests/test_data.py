import codecs
import csv
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgerec import data
from bridgerec.checkpoint import load_tensors, save_tensors
from bridgerec.data import (CSV_FIELDS, DATASET_COLUMNS, JSONL_FIELDS, RATING_MAX, RATING_MIN,
                            DomainDataset, IdMap, MalformedRowError, build_sequences,
                            dataset_from_columns, filter_to_indices, load_dataset, load_domain,
                            log_source, make_split, overlap_users, rows_by_user, save_dataset,
                            verify_split)
from conftest import make_dataset, traced_peak


# ---------------------------------------------------------------------------
# loading

def test_load_tiny_csv(tiny_csv):
    ds = load_domain(tiny_csv)
    assert ds.n_users == 2 and ds.n_items == 3 and ds.n_ratings == 3
    assert ds.users.backward == ["A", "B"]
    assert ds.items.backward == ["x", "y", "z"]
    np.testing.assert_array_equal(ds.rating, [4.0, 3.5, 2.0])


def test_load_jsonl_amazon_schema(tmp_path):
    path = tmp_path / "reviews.jsonl"
    rows = [{"reviewerID": "A1", "asin": "B001", "overall": 5.0, "unixReviewTime": 1},
            {"reviewerID": "A2", "asin": "B002", "overall": 3.0, "unixReviewTime": 2}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = load_domain(path, "jsonl")
    assert ds.n_users == 2 and ds.n_items == 2 and ds.n_ratings == 2
    assert ds.users.backward == ["A1", "A2"]


def test_load_empty_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    ds = load_domain(path)
    assert ds.n_users == 0 and ds.n_items == 0 and ds.n_ratings == 0
    header_only = tmp_path / "header.csv"
    header_only.write_text("user,item,rating,timestamp\n")
    assert load_domain(header_only).n_ratings == 0


def test_malformed_row_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,item,rating,timestamp\nA,x,4.0,1\nB,y,not_a_number,2\n")
    with pytest.raises(MalformedRowError, match="line 3"):
        load_domain(path)


def test_out_of_range_ratings_rejected_with_count(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("user,item,rating,timestamp\n"
                    "A,x,4.0,1\nB,y,7.5,2\nC,z,-1.0,3\nD,w,0.0,4\n")
    ds = load_domain(path)
    assert ds.n_ratings == 2
    assert ds.rejected_out_of_range == 2


def test_negative_timestamp_is_malformed(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text("user,item,rating,timestamp\nA,x,4.0,-5\n")
    with pytest.raises(MalformedRowError, match="line 2"):
        load_domain(path)


def test_missing_file_and_bad_format(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_domain(tmp_path / "nope.csv")
    (tmp_path / "a.csv").write_text("user,item,rating,timestamp\n")
    with pytest.raises(ValueError):
        load_domain(tmp_path / "a.csv", "parquet")


@pytest.mark.parametrize("line", ["[1, 2]", "3", '"text"', "null"])
def test_jsonl_line_that_is_not_an_object_is_malformed(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"reviewerID": "A1", "asin": "B1", "overall": 4.0, "unixReviewTime": 1}\n'
                    f"\n{line}\n")
    with pytest.raises(MalformedRowError, match=r"^line 3: expected a JSON object$"):
        load_domain(path)


@pytest.mark.parametrize("field, value, error", [
    ("unixReviewTime", "Infinity", "cannot convert float infinity to integer"),
    ("unixReviewTime", "1e400", "cannot convert float infinity to integer"),
    ("overall", str(10**400), "int too large to convert to float"),
])
def test_jsonl_value_out_of_float_range_is_malformed(tmp_path, field, value, error):
    fields = {"reviewerID": '"A1"', "asin": '"B1"', "overall": "4.0", "unixReviewTime": "1",
              field: value}
    path = tmp_path / "big.jsonl"
    path.write_text('{"reviewerID": "A0", "asin": "B0", "overall": 3.0, "unixReviewTime": 1}\n'
                    + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
    with pytest.raises(MalformedRowError, match=f"^line 2: {error}$"):
        load_domain(path)


@pytest.mark.parametrize("field", ["reviewerID", "asin"])
@pytest.mark.parametrize("value", ["12", "1e2", "-4", "3.5", "true", '["A1"]', '{"id": "A1"}'])
def test_jsonl_id_that_is_not_a_json_string_is_malformed(tmp_path, field, value):
    # 12 and "12" would otherwise load as one user, and 1e2 as the user "100.0"
    fields = {"reviewerID": '"12"', "asin": '"B1"', "overall": "4.0", "unixReviewTime": "1",
              field: value}
    path = tmp_path / "ids.jsonl"
    path.write_text('{"reviewerID": "12", "asin": "100.0", "overall": 3.0, "unixReviewTime": 1}\n'
                    + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
    with pytest.raises(MalformedRowError, match="^line 2: user or item id is not a string$"):
        load_domain(path)


@pytest.mark.parametrize("field", ["overall", "unixReviewTime"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_jsonl_boolean_rating_or_timestamp_is_malformed(tmp_path, field, value):
    fields = {"reviewerID": '"A1"', "asin": '"B1"', "overall": "4.0", "unixReviewTime": "1",
              field: value}
    path = tmp_path / "bool.jsonl"
    path.write_text('{"reviewerID": "A0", "asin": "B0", "overall": 3.0, "unixReviewTime": 1}\n'
                    + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
    with pytest.raises(MalformedRowError, match="^line 2: boolean rating or timestamp$"):
        load_domain(path)


def _log_bytes(fmt: str, users) -> bytes:
    """A log with one row per user id; the ids are bytes, so they may hold any byte."""
    if fmt == "csv":
        return b"user,item,rating,timestamp\n" + b"".join(b"%s,x,4.0,1\n" % u for u in users)
    return b"".join(b'{"reviewerID": "%s", "asin": "x", "overall": 4.0, "unixReviewTime": 1}\n'
                    % u for u in users)


@pytest.mark.parametrize("fmt, header_lines", [("csv", 1), ("jsonl", 0)])
@pytest.mark.parametrize("users, bad_row, error", [
    ([b"A", b"B\xff"], 1, "byte 0xff is not UTF-8"),
    ([b"A", b"\xc3", b"C"], 1, "byte 0xc3 is not UTF-8"),  # a cut-off two-byte sequence
    # far past the text layer's first buffer and the loader's first chunk
    ([b"u%d" % j for j in range(3000)] + [b"\x80"], 3000, "byte 0x80 is not UTF-8"),
    # a malformed row ahead of the undecodable one in the same buffer is the first error
    ([b"A", b"", b"B\xff"], 1, "empty user or item id"),
], ids=["bad_byte", "cut_sequence", "past_first_chunk", "malformed_row_first"])
def test_line_that_is_not_utf8_is_malformed(tmp_path, fmt, header_lines, users, bad_row, error):
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(_log_bytes(fmt, users))
    with pytest.raises(MalformedRowError, match=f"^line {bad_row + 1 + header_lines}: {error}$"):
        load_domain(path, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_log_is_read_as_utf8(tmp_path, fmt):
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(_log_bytes(fmt, ["Zoë".encode(), "日本".encode()]))
    assert load_domain(path, fmt).users.backward == ["Zoë", "日本"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("users", [["Zoë".encode(), b"A", b"B"], [b"A", b"B\xff"]],
                         ids=["clean", "bad_byte"])
def test_log_with_a_byte_order_mark_loads_as_without_it(tmp_path, fmt, users):
    # spreadsheet "CSV UTF-8" exports start with EF BB BF; the mark is not part of
    # the first column name or record, on the streaming and the line-by-line pass
    outcomes = []
    for name, mark in (("plain", b""), ("marked", codecs.BOM_UTF8)):
        path = tmp_path / f"{name}.{fmt}"
        path.write_bytes(mark + _log_bytes(fmt, users))
        try:
            outcomes.append(load_domain(path, fmt))
        except MalformedRowError as exc:
            outcomes.append(exc)
    plain, marked = outcomes
    if isinstance(plain, MalformedRowError):
        assert type(marked) is MalformedRowError and str(marked) == str(plain)
    else:
        _assert_same_dataset(marked, plain)
    # the dataset's identity stays the sha256 of the log's raw bytes
    assert log_source(tmp_path / f"plain.{fmt}") != log_source(tmp_path / f"marked.{fmt}")


def test_csv_field_over_the_size_limit_is_malformed(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(_log_bytes("csv", [b"A", b"B" * 200_000]))
    with pytest.raises(MalformedRowError, match=r"^line 3: field larger than field limit"):
        load_domain(path)


@pytest.mark.parametrize("fmt, header_lines", [("csv", 1), ("jsonl", 0)])
@pytest.mark.parametrize("field", ["user", "item"])
def test_id_holding_nul_is_malformed(tmp_path, fmt, header_lines, field):
    rows = [{"user": "A", "item": "x"}, {"user": "B", "item": "y"}]
    rows[1][field] = "u\x00x"
    path = tmp_path / f"log.{fmt}"
    if fmt == "csv":  # the raw byte; before Python 3.11 csv.reader rejects it itself
        path.write_text("user,item,rating,timestamp\n"
                        + "".join(f"{r['user']},{r['item']},4.0,1\n" for r in rows))
    else:  # a json-lines id gets NUL from the escape \u0000
        path.write_text("".join(json.dumps({"reviewerID": r["user"], "asin": r["item"],
                                            "overall": 4.0, "unixReviewTime": 1}) + "\n"
                                for r in rows))
    with pytest.raises(MalformedRowError, match=f"^line {2 + header_lines}: "
                       "(user or item id holds a NUL character|line contains NUL)$"):
        load_domain(path, fmt)


@pytest.mark.parametrize("fmt, column", [("csv", "rating"), ("csv", "note"),
                                         ("jsonl", "overall"), ("jsonl", "summary")],
                         ids=["rating", "note", "jsonl-overall", "jsonl-summary"])
def test_csv_line_holding_nul_is_malformed(tmp_path, fmt, column):
    # the same rule on every Python (csv.reader rejects NUL itself only before 3.11)
    # and in both formats: a raw NUL byte, in a field the loader reads or in one it skips
    if fmt == "csv":
        header, record, values = ("user,item,rating,timestamp,note\n", "u{},x,{},1,{}\n",
                                  {"rating": "4.0", "note": "a"})
    else:
        header, record, values = ("", '{{"reviewerID": "u{}", "asin": "x", "overall": {}, '
                                  '"unixReviewTime": 1, "summary": "{}"}}\n',
                                  {"overall": "4.0", "summary": "a"})
    bad = {**values, column: values[column] + "\x00"}
    text = header + record.format(0, *values.values()) + record.format(1, *bad.values())
    path = tmp_path / f"log.{fmt}"
    path.write_text(text)
    line = 3 if fmt == "csv" else 2
    with pytest.raises(MalformedRowError, match=f"^line {line}: line contains NUL$"):
        load_domain(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_log_with_a_bad_byte_past_the_first_chunk_is_opened_once(tmp_path, monkeypatch, fmt):
    # one pass: the first bad line is named as the stream reaches it, not on a second read
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(_log_bytes(fmt, [b"u%d" % j for j in range(3000)] + [b"\x80"]))
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(data, "open", counting_open, raising=False)
    with pytest.raises(MalformedRowError, match="byte 0x80 is not UTF-8$"):
        load_domain(path, fmt)
    assert opened == [path]


@pytest.mark.parametrize("field", ["reviewerID", "asin"])
@pytest.mark.parametrize("escaped", ["\\ud800", "a\\udfff", "\\udc80b", "\\ude00\\ud83d"])
def test_jsonl_id_that_utf8_cannot_encode_is_malformed(tmp_path, field, escaped):
    # a lone surrogate, which only a JSON escape can make, would fail every UTF-8 output
    good = '{"reviewerID": "A", "asin": "x", "overall": 4.0, "unixReviewTime": 1}\n'
    path = tmp_path / "log.jsonl"
    path.write_text(good + good.replace('"A"' if field == "reviewerID" else '"x"',
                                        f'"{escaped}"'))
    with pytest.raises(MalformedRowError, match="^line 2: user or item id .* is not encodable "
                                                "as UTF-8$"):
        load_domain(path)


def test_jsonl_id_with_an_escaped_surrogate_pair_loads(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"reviewerID": "\\ud83d\\ude00", "asin": "x", "overall": 4.0, '
                    '"unixReviewTime": 1}\n')
    assert load_domain(path).users.backward == ["\U0001f600"]


def test_load_domain_holds_one_chunk_of_rows_as_objects(tmp_path):
    # 40,000 rows over 100 users and 50 items, so the id maps are small and the
    # rows dominate. The columns take 32 B a row; keeping every parsed row as
    # Python objects until the end traced 248 B a row on this log, and a chunk
    # of 16,384 rows would add about 100 more.
    n = 40_000
    rng = np.random.default_rng(0)
    path = tmp_path / "log.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_FIELDS)
        writer.writerows(zip((f"user{u:03d}" for u in rng.integers(100, size=n)),
                             (f"item{i:02d}" for i in rng.integers(50, size=n)),
                             (f"{r:.1f}" for r in rng.uniform(0, 5, n)), range(n)))
    assert load_domain(path).n_ratings == n  # also warms up what a first call allocates
    assert traced_peak(lambda: load_domain(path)) / n <= 124


# ---------------------------------------------------------------------------
# columnar loading against the per-row reference
#
# The reference is the loader load_domain replaced: csv.DictReader, one
# RatingTriple per row and a scalar np.isfinite check. The columnar parser
# must give the same id maps, arrays, rejection count and error messages.

@dataclass(frozen=True)
class RatingTriple:
    user: str
    item: str
    rating: float
    timestamp: int


def _ref_parse_fields(user, item, rating, timestamp, line_no):
    if user is None or item is None or rating is None or timestamp is None:
        raise MalformedRowError(f"line {line_no}: missing field")
    if not (isinstance(user, str) and isinstance(item, str)):
        raise MalformedRowError(f"line {line_no}: user or item id is not a string")
    if not user or not item:
        raise MalformedRowError(f"line {line_no}: empty user or item id")
    if isinstance(rating, bool) or isinstance(timestamp, bool):
        raise MalformedRowError(f"line {line_no}: boolean rating or timestamp")
    try:
        r = float(rating)
        ts = int(timestamp)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRowError(f"line {line_no}: {exc}") from None
    if isinstance(timestamp, float) and not timestamp.is_integer():
        raise MalformedRowError(f"line {line_no}: timestamp {timestamp!r} is not a whole number")
    if not np.isfinite(r):
        raise MalformedRowError(f"line {line_no}: non-finite rating")
    if ts < 0:
        raise MalformedRowError(f"line {line_no}: negative timestamp {ts}")
    if ts > 2**63 - 1:
        raise MalformedRowError(f"line {line_no}: timestamp {ts} exceeds the int64 range")
    return RatingTriple(user, item, r, ts)


def _ref_iter_csv(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            return
        missing = [c for c in CSV_FIELDS if c not in reader.fieldnames]
        if missing:
            raise MalformedRowError(f"line 1: header missing columns {missing}")
        for row in reader:
            yield _ref_parse_fields(row.get("user"), row.get("item"),
                                    row.get("rating"), row.get("timestamp"),
                                    reader.line_num)


def _ref_iter_jsonl(path):
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRowError(f"line {line_no}: {exc}") from None
            yield _ref_parse_fields(*(rec.get(JSONL_FIELDS[c]) for c in CSV_FIELDS), line_no)


def ref_load_domain(path, fmt):
    rows = _ref_iter_csv(path) if fmt == "csv" else _ref_iter_jsonl(path)
    users, items = IdMap(), IdMap()
    u, i, r, t = [], [], [], []
    rejected = 0
    for tr in rows:
        if not RATING_MIN <= tr.rating <= RATING_MAX:
            rejected += 1
            continue
        u.append(users.add(tr.user))
        i.append(items.add(tr.item))
        r.append(tr.rating)
        t.append(tr.timestamp)
    return DomainDataset(users=users, items=items,
                         user_idx=np.asarray(u, dtype=np.int64),
                         item_idx=np.asarray(i, dtype=np.int64),
                         rating=np.asarray(r, dtype=np.float64),
                         timestamp=np.asarray(t, dtype=np.int64),
                         rejected_out_of_range=rejected)


def _load_both(text: str, fmt: str):
    """(columnar result, reference result), each a DomainDataset or the exception raised."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log.{fmt}"
        path.write_text(text, newline="")
        for load in (load_domain, ref_load_domain):
            try:
                outcomes.append(load(path, fmt))
            except Exception as exc:  # compared below, so any error must match
                outcomes.append(exc)
    return outcomes


def _assert_same_load(text: str, fmt: str):
    got, want = _load_both(text, fmt)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    _assert_same_dataset(got, want)


def _assert_same_dataset(got, want):
    assert isinstance(got, DomainDataset), got
    for side in ("users", "items"):
        assert getattr(got, side).forward == getattr(want, side).forward
        assert getattr(got, side).backward == getattr(want, side).backward
    for name in ("user_idx", "item_idx", "rating", "timestamp"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got.rejected_out_of_range == want.rejected_out_of_range


# each field draws from clean values, or from every value (clean ones included)
# for the rows the log marks messy; out-of-range ratings are clean
CLEAN = {"user": ["u1", "u2", "a,b", "x\ny", 'say "hi"', " "],
         "item": ["i1", "i2", "i,3", "multi\nline"],
         "rating": ["0", "5", "5.0", "0.0", "2.5", "-0.5", "5.01", "7"],
         "timestamp": ["0", "3", "12"],
         "note": ["", "n,1", "multi\nline"]}
MESSY = {"user": [""], "item": [""], "note": [],
         "rating": ["nan", "inf", "-inf", "abc", "", "1e400"],
         "timestamp": ["-2", "1.5", "x", ""]}


@st.composite
def csv_logs(draw):
    columns = list(draw(st.permutations([*CSV_FIELDS, "note"])))
    if draw(st.booleans()):  # a repeated name resolves to its last position
        columns.insert(draw(st.integers(0, len(columns))), draw(st.sampled_from(CSV_FIELDS)))
    if draw(st.sampled_from([False] * 9 + [True])):
        columns.remove(draw(st.sampled_from(CSV_FIELDS)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["clean"] * 8 + ["messy", "blank", "short", "long"]))
        if shape == "blank":
            writer.writerow([])
            continue
        pools = {c: CLEAN[c] + (MESSY[c] if shape == "messy" else []) for c in CLEAN}
        row = [draw(st.sampled_from(pools[c])) for c in columns]
        if shape == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row.append("extra")
        writer.writerow(row)
    return out.getvalue()


JSON_CLEAN = {"reviewerID": ["u1", "A,B", "3.5", "12", "-4"],
              "asin": ["i1", "x", "7", "1.5"],
              "overall": [0, 5, 7, -2, 1.5, 0.0, 5.0, 5.01, -0.5, "3.5", True],
              "unixReviewTime": [0, 12, "12", 1e3, True]}
JSON_MESSY = {"reviewerID": ["", None, True, False, ["x"], 3.5, 12, -4],
              "asin": ["", None, True, False, ["x"], 7, 1.5],
              "overall": [float("nan"), float("inf"), "x", "", None],
              "unixReviewTime": [-2, "x", "1.5", 1.5, float("nan"), float("inf"), None]}


@st.composite
def jsonl_logs(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["clean"] * 8 + ["messy", "blank", "broken"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
        elif kind == "broken":
            lines.append('{"reviewerID": ')
        else:
            pools = {k: v + (JSON_MESSY[k] if kind == "messy" else [])
                     for k, v in JSON_CLEAN.items()}
            rec = {k: draw(st.sampled_from(v)) for k, v in pools.items()}
            if kind == "messy" and draw(st.booleans()):
                del rec[draw(st.sampled_from(sorted(rec)))]
            if draw(st.booleans()):
                rec["summary"] = "extra key"
            lines.append(json.dumps(rec))
    return "".join(line + "\n" for line in lines)


@settings(deadline=None, max_examples=300)
@given(csv_logs())
def test_csv_columns_match_dictreader_reference(text):
    _assert_same_load(text, "csv")


@settings(deadline=None, max_examples=300)
@given(jsonl_logs())
def test_jsonl_columns_match_per_row_reference(text):
    _assert_same_load(text, "jsonl")


@pytest.mark.parametrize("chunk_rows", [1, 3])
@settings(deadline=None, max_examples=300)
@given(text=csv_logs())
def test_csv_load_is_the_same_across_chunk_seams(chunk_rows, text):
    # rejected rows, first-seen ids and a malformed row cross a chunk boundary
    with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
        _assert_same_load(text, "csv")


@pytest.mark.parametrize("chunk_rows", [1, 3])
@settings(deadline=None, max_examples=300)
@given(text=jsonl_logs())
def test_jsonl_load_is_the_same_across_chunk_seams(chunk_rows, text):
    with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
        _assert_same_load(text, "jsonl")


@pytest.mark.parametrize("rows, error", [
    # duplicate "rating" means the last column; a quoted newline is a second physical line
    ('x,1,9,A,"i\n1",4\n\n\n,2,1,B,i2,nan\n', "line 6: non-finite rating"),
    ("x,1,9,A,i1,4\nx,2,3,B\n", "line 3: missing field"),
    ("x,1,9,A,i1,4\n\nx,2,3,B,i2,5,more\n", None),
])
def test_csv_quirks_match_reference(rows, error):
    text = "note,timestamp,rating,user,item,rating\n" + rows
    _assert_same_load(text, "csv")
    got, _ = _load_both(text, "csv")
    if error:
        assert str(got) == error
    else:
        assert got.rating.tolist() == [4.0, 5.0]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=30, unique=True))
def test_idmap_round_trip_identity(ids):
    m = IdMap.from_ids(ids)
    assert len(m) == len(ids)
    for ext in ids:
        assert m.external(m.index(ext)) == ext
    for idx in range(len(m)):
        assert m.index(m.external(idx)) == idx


# ---------------------------------------------------------------------------
# overlap

def test_overlap_is_set_intersection():
    src = make_dataset([("A", "s1", 4, 1), ("B", "s2", 3, 2), ("C", "s3", 2, 3)])
    tgt = make_dataset([("B", "g1", 4, 1), ("C", "g2", 3, 2), ("D", "g3", 2, 3)])
    assert overlap_users(src, tgt) == {"B", "C"}


def test_overlap_disjoint_users_is_empty():
    src = make_dataset([("A", "s1", 4, 1)])
    tgt = make_dataset([("Z", "g1", 4, 1)])
    assert overlap_users(src, tgt) == set()


# ---------------------------------------------------------------------------
# splitting

def _pair(n_overlap=10, tgt_ratings_per_user=4):
    src_rows = [(f"u{i}", f"s{j}", 3.0, i * 10 + j)
                for i in range(n_overlap) for j in range(3)]
    tgt_rows = [(f"u{i}", f"g{j}", 3.0, i * 100 + j)
                for i in range(n_overlap) for j in range(tgt_ratings_per_user)]
    return make_dataset(src_rows), make_dataset(tgt_rows)


def test_split_sizes_and_determinism():
    src, tgt = _pair(n_overlap=10)
    plan = make_split(src, tgt, beta=0.2, seed=7)
    assert len(plan.test_users) == 2
    assert len(plan.train_overlap_users) == 8
    again = make_split(src, tgt, beta=0.2, seed=7)
    assert plan.to_json() == again.to_json()
    other = make_split(src, tgt, beta=0.2, seed=8)
    assert plan.test_users != other.test_users or plan.to_json() != other.to_json()


def test_split_even_count_halves_by_time():
    # target ratings at timestamps [1,2,3,4] split into cold {1,2} and warm {3,4}
    src = make_dataset([("a", "s0", 3, 0), ("b", "s0", 3, 0)])
    tgt = make_dataset([("a", f"g{j}", 3.0, t) for j, t in enumerate([3, 1, 4, 2])]
                       + [("b", "g9", 3.0, 5)])
    plan = make_split(src, tgt, beta=0.5, seed=1)
    # force user "a" to be the test user by trying seeds until it is
    seed = 1
    while "a" not in plan.test_users:
        seed += 1
        plan = make_split(src, tgt, beta=0.5, seed=seed)
    cold_ts = sorted(tgt.timestamp[plan.cold["a"]].tolist())
    warm_ts = sorted(tgt.timestamp[plan.warm["a"]].tolist())
    assert cold_ts == [1, 2] and warm_ts == [3, 4]


def test_split_odd_count_gives_cold_the_extra():
    # both rounding policies differ only in the cold size: ceil(5/2)=3, floor=2.
    # the implemented policy is ceil; warm gets the remaining 2, time order kept.
    src = make_dataset([("a", "s0", 3, 0), ("b", "s0", 3, 0)])
    tgt = make_dataset([("a", f"g{j}", 3.0, j) for j in range(5)] + [("b", "g9", 3.0, 0)])
    seed = 0
    plan = make_split(src, tgt, beta=0.5, seed=seed)
    while "a" not in plan.test_users:
        seed += 1
        plan = make_split(src, tgt, beta=0.5, seed=seed)
    n_cold, n_warm = len(plan.cold["a"]), len(plan.warm["a"])
    assert (n_cold, n_warm) in {(3, 2), (2, 3)}  # the two candidate policies
    assert (n_cold, n_warm) == (3, 2)            # documented: cold takes the extra
    assert tgt.timestamp[plan.cold["a"]].max() <= tgt.timestamp[plan.warm["a"]].min()


def test_split_single_rating_user_flagged():
    src = make_dataset([("a", "s0", 3, 0), ("b", "s0", 3, 0), ("c", "s1", 3, 0)])
    tgt = make_dataset([("a", "g0", 3.0, 1), ("b", "g1", 3.0, 1), ("c", "g2", 3.0, 1),
                        ("b", "g2", 2.0, 2)])
    plan = make_split(src, tgt, beta=0.67, seed=3)
    for u in plan.test_users:
        if len(plan.cold[u]) == 1 and len(plan.warm[u]) == 0:
            assert u in plan.users_without_warm


def test_split_validates_beta_and_overlap():
    src, tgt = _pair()
    with pytest.raises(ValueError, match="beta"):
        make_split(src, tgt, beta=1.5, seed=0)
    with pytest.raises(ValueError, match="beta"):
        make_split(src, tgt, beta=0.0, seed=0)
    lone_src = make_dataset([("a", "s0", 3, 0)])
    lone_tgt = make_dataset([("a", "g0", 3, 0)])
    with pytest.raises(ValueError, match="overlap"):
        make_split(lone_src, lone_tgt, beta=0.5, seed=0)
    two_src, two_tgt = _pair(n_overlap=2)  # round(0.2 * 2) = 0 test users
    with pytest.raises(ValueError, match=r"beta 0\.2 selects no test user from 2 overlapping"):
        make_split(two_src, two_tgt, beta=0.2, seed=0)


def test_split_rejects_shared_item_ids():
    src = make_dataset([("a", "shared", 3, 0), ("b", "s1", 3, 0)])
    tgt = make_dataset([("a", "shared", 3, 0), ("b", "g1", 3, 0)])
    with pytest.raises(ValueError, match="disjoint"):
        make_split(src, tgt, beta=0.5, seed=0)


def test_split_leakage_guard_and_verify():
    src, tgt = _pair(n_overlap=12, tgt_ratings_per_user=5)
    plan = make_split(src, tgt, beta=0.25, seed=2)
    verify_split(plan, src, tgt)
    test_idx = {tgt.users.index(u) for u in plan.test_users}
    train_users = set(tgt.user_idx[plan.target_train_indices].tolist())
    assert not (test_idx & train_users)
    held = set()
    for u in plan.test_users:
        held |= set(plan.cold[u].tolist()) | set(plan.warm[u].tolist())
    assert not (held & set(plan.target_train_indices.tolist()))


def test_split_timestamp_ties_broken_by_file_order():
    src = make_dataset([("a", "s0", 3, 0), ("b", "s0", 3, 0)])
    # all timestamps equal: the earlier file rows must land in the cold half
    tgt = make_dataset([("a", f"g{j}", 3.0, 7) for j in range(4)] + [("b", "g9", 3.0, 0)])
    seed = 0
    plan = make_split(src, tgt, beta=0.5, seed=seed)
    while "a" not in plan.test_users:
        seed += 1
        plan = make_split(src, tgt, beta=0.5, seed=seed)
    assert sorted(plan.cold["a"].tolist()) == [0, 1]
    assert sorted(plan.warm["a"].tolist()) == [2, 3]


def test_split_json_round_trip(tmp_path):
    src, tgt = _pair()
    plan = make_split(src, tgt, beta=0.3, seed=4)
    path = tmp_path / "split.json"
    plan.save(path)
    from bridgerec.data import SplitPlan
    loaded = SplitPlan.from_json(path.read_text(), tgt)
    assert loaded.to_json() == plan.to_json()
    np.testing.assert_array_equal(np.sort(loaded.target_train_indices),
                                  np.sort(plan.target_train_indices))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_timestamp_beyond_int64_is_malformed(tmp_path, fmt):
    path = tmp_path / f"big.{fmt}"

    def write(timestamps):
        if fmt == "csv":
            path.write_text("user,item,rating,timestamp\n"
                            + "".join(f"A{n},B{n},4.0,{t}\n" for n, t in enumerate(timestamps)))
        else:
            path.write_text("".join(f'{{"reviewerID": "A{n}", "asin": "B{n}", "overall": 4.0, '
                                    f'"unixReviewTime": {t}}}\n'
                                    for n, t in enumerate(timestamps)))

    write([0, 2**63 - 1])
    assert load_domain(path).timestamp.tolist() == [0, 2**63 - 1]
    write([0, 2**63 - 1, 99999999999999999999])
    line = 4 if fmt == "csv" else 3
    with pytest.raises(MalformedRowError, match=f"^line {line}: timestamp 99999999999999999999 "
                                                "exceeds the int64 range$"):
        load_domain(path)


@pytest.mark.parametrize("fmt, whole, error", [
    ("csv", "12", "line 4: invalid literal for int() with base 10: '1.5'"),
    ("jsonl", "1e3", "line 3: timestamp 1.5 is not a whole number"),
])
def test_timestamp_with_a_fraction_is_malformed(tmp_path, fmt, whole, error):
    # int() alone would load a json 1.5 as 1; a whole json float such as 1e3 stays valid
    path = tmp_path / f"log.{fmt}"

    def write(timestamps):
        if fmt == "csv":
            path.write_text("user,item,rating,timestamp\n"
                            + "".join(f"A{n},B{n},4.0,{t}\n" for n, t in enumerate(timestamps)))
        else:
            path.write_text("".join(f'{{"reviewerID": "A{n}", "asin": "B{n}", "overall": 4.0, '
                                    f'"unixReviewTime": {t}}}\n'
                                    for n, t in enumerate(timestamps)))

    write(["1", whole])
    assert load_domain(path).timestamp.tolist() == [1, int(float(whole))]
    write(["1", whole, "1.5"])
    with pytest.raises(MalformedRowError) as exc:
        load_domain(path)
    assert str(exc.value) == error


# ---------------------------------------------------------------------------
# dataset checkpoints

@pytest.mark.parametrize("rows", [
    [("ü", "книга", 4.5, 2**63 - 1), ("b", "i1", 0.1, 0), ("ü", "i1", 5.0, 7),
     ("c,1", "日本", 1e-9, 3)],
    [],
], ids=["non-ascii", "empty"])
def test_dataset_checkpoint_round_trips_exactly(tmp_path, rows):
    ds = dataset_from_columns(*(zip(*rows) if rows else ([], [], [], [])), rejected=2)
    save_dataset(tmp_path / "d", ds, {"source": {"sha256": "ab"}})
    back, meta = load_dataset(tmp_path / "d")
    assert meta["source"] == {"sha256": "ab"} and back.rejected_out_of_range == 2
    for ids, ids_back in ((ds.users, back.users), (ds.items, back.items)):
        assert ids_back.backward == ids.backward and ids_back.forward == ids.forward
    for name in DATASET_COLUMNS:
        a, b = getattr(ds, name), getattr(back, name)
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda t, m: t.update(rating=t["rating"][:-1]), "of equal length"),
    (lambda t, m: t.update(timestamp=t["timestamp"].astype(float)), "of equal length"),
    (lambda t, m: t["item_idx"].__setitem__(0, 2), "item index outside its id map"),
    (lambda t, m: t["user_idx"].__setitem__(0, -1), "user index outside its id map"),
    (lambda t, m: m.update(users=["a", "a"]), "repeats an id"),
    (lambda t, m: m.pop("items"), "lacks 'items'"),
], ids=["lengths", "dtype", "item-range", "user-range", "repeated-id", "no-items"])
def test_dataset_checkpoint_that_disagrees_is_rejected(tmp_path, edit, message):
    save_dataset(tmp_path / "d", make_dataset([("a", "i0", 3.0, 1), ("b", "i1", 4.0, 2)]))
    tensors, meta = load_tensors(tmp_path / "d", "domain")
    edit(tensors, meta)
    save_tensors(tmp_path / "d", "domain", tensors, meta)
    with pytest.raises(ValueError, match=message):
        load_dataset(tmp_path / "d")


# ---------------------------------------------------------------------------
# sequences and filtering

def test_sequences_are_time_ordered_with_stable_ties():
    ds = make_dataset([("a", "i0", 3, 5), ("a", "i1", 3, 2), ("a", "i2", 3, 5),
                       ("b", "i3", 3, 1)])
    seqs = build_sequences(ds)
    a = ds.users.index("a")
    assert [ds.items.external(i) for i in seqs[a]] == ["i1", "i0", "i2"]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3)), max_size=30))
def test_rows_by_user_orders_each_group_by_time_then_file_position(rows):
    # few users and timestamps, so groups interleave and hold ties and backward steps
    ds = dataset_from_columns([u for u, _ in rows], [f"i{n}" for n in range(len(rows))],
                              [3.0] * len(rows), [t for _, t in rows])
    groups = rows_by_user(ds)
    users = sorted(set(ds.user_idx.tolist()))
    assert list(groups) == users
    for user in users:
        ref = sorted(np.flatnonzero(ds.user_idx == user).tolist(),
                     key=lambda n: (ds.timestamp[n], n))
        assert groups[user].tolist() == ref
    seqs = build_sequences(ds)
    assert {u: s.tolist() for u, s in seqs.items()} == {
        u: ds.item_idx[g].tolist() for u, g in groups.items()}


def test_filter_to_indices_keeps_maps():
    ds = make_dataset([("a", "i0", 3, 1), ("b", "i1", 4, 2), ("a", "i1", 5, 3)])
    sub = filter_to_indices(ds, np.array([0, 2]))
    assert sub.n_ratings == 2
    assert sub.n_users == ds.n_users and sub.n_items == ds.n_items
    np.testing.assert_array_equal(sub.rating, [3.0, 5.0])
