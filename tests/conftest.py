import tracemalloc

import numpy as np
import pytest

from bridgerec.checkpoint import load_tensors, save_tensors
from bridgerec.data import dataset_from_columns


@pytest.fixture
def tiny_csv(tmp_path):
    """Two users, three items, three ratings."""
    path = tmp_path / "tiny.csv"
    path.write_text(
        "user,item,rating,timestamp\n"
        "A,x,4.0,100\n"
        "B,y,3.5,200\n"
        "A,z,2.0,300\n")
    return path


@pytest.fixture
def pair_csvs(tmp_path):
    """A small source/target pair with three overlapping users."""
    src = tmp_path / "src.csv"
    tgt = tmp_path / "tgt.csv"
    src_rows = ["user,item,rating,timestamp"]
    tgt_rows = ["user,item,rating,timestamp"]
    rng = np.random.default_rng(0)
    users = ["u1", "u2", "u3", "u4", "u5"]
    for t, u in enumerate(users):
        for j in range(4):
            src_rows.append(f"{u},s{j},{rng.uniform(1, 5):.2f},{t * 10 + j}")
    for t, u in enumerate(["u1", "u2", "u3", "t9"]):
        for j in range(4):
            tgt_rows.append(f"{u},g{j},{rng.uniform(1, 5):.2f},{t * 10 + j}")
    src.write_text("\n".join(src_rows) + "\n")
    tgt.write_text("\n".join(tgt_rows) + "\n")
    return src, tgt


def edit_checkpoint(prefix, kind, name, case, value=None):
    """Rewrite the ``kind`` checkpoint at ``prefix`` without the meta entry ``name`` (case
    "meta") or with it set to ``value`` ("meta_value"), or with tensor ``name``
    renamed ("name"), given an extra trailing axis ("shape") or cut to one value
    ("scalar")."""
    tensors, meta = load_tensors(prefix, kind)
    if case == "meta":
        del meta[name]
    elif case == "meta_value":
        meta[name] = value
    elif case == "name":
        tensors[name + "_renamed"] = tensors.pop(name)
    else:
        t = tensors.pop(name)
        tensors[name] = t[..., None] if case == "shape" else t.reshape(-1)[0]
    save_tensors(prefix, kind, tensors, meta)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_dataset(rows):
    """rows: non-empty iterable of (user, item, rating, timestamp)."""
    return dataset_from_columns(*zip(*rows))


@pytest.fixture
def planted_rank3():
    """Complete 20x20 rating matrix from planted rank-3 factors."""
    rng = np.random.default_rng(5)
    U = rng.uniform(0.2, 1.2, (20, 3))
    V = rng.uniform(0.2, 1.2, (20, 3))
    R = U @ V.T
    ds = make_dataset((f"u{a}", f"i{b}", R[a, b], a * 20 + b)
                      for a in range(20) for b in range(20))
    return ds, U, V
