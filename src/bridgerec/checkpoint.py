"""Named-tensor checkpoints: a json manifest plus a little-endian blob.

``save_tensors("dir/model", kind, {...})`` writes ``dir/model.json`` (tensor
names, shapes, a meta holding ``kind``) and ``dir/model.bin`` (values in
manifest order). ``load_tensors`` refuses another kind, so only this module
checks one; the loaders built on it return the meta they parse. Tensors are
float64, the manifest's ``dtype``; an integer tensor is int64 and its entry
says ``"dtype": "<i8"``, so a float-only checkpoint is written as it always
was. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DTYPE = "<f8"
INT_DTYPE = "<i8"


def save_tensors(prefix, kind: str, tensors: dict[str, np.ndarray], meta: dict | None = None):
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    arrays, entries = [], []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        dtype = INT_DTYPE if np.issubdtype(arr.dtype, np.integer) else DTYPE
        arrays.append(np.ascontiguousarray(arr, dtype=dtype))  # a scalar becomes shape (1,)
        entries.append({"name": name, "shape": list(arrays[-1].shape)})
        if dtype == INT_DTYPE:
            entries[-1]["dtype"] = INT_DTYPE
    manifest = {"dtype": DTYPE, "meta": {**(meta or {}), "kind": kind}, "tensors": entries}
    prefix.with_suffix(prefix.suffix + ".json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    with open(prefix.with_suffix(prefix.suffix + ".bin"), "wb") as f:
        for a in arrays:
            f.write(a.data)  # the array's own buffer: no copy


def _entries(manifest, prefix) -> list[tuple[str, tuple[int, ...], np.dtype]]:
    """(name, shape, dtype) of each tensor a parsed manifest lists; a manifest
    that is not an object with a ``tensors`` list and a ``meta`` object, or an
    entry without a string name, a list of non-negative int sizes and a known
    dtype, is a ValueError."""
    tensors = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(tensors, list) or not isinstance(manifest.get("meta", {}), dict):
        raise ValueError(f"checkpoint manifest at {prefix} is not an object with a tensor "
                         "list and a meta object")
    entries = []
    for entry in tensors:
        e = entry if isinstance(entry, dict) else {}
        name, shape, dtype = e.get("name"), e.get("shape"), e.get("dtype", manifest.get("dtype"))
        if (type(name) is not str or type(shape) is not list
                or not all(type(n) is int and n >= 0 for n in shape)
                or dtype not in (DTYPE, INT_DTYPE)):
            raise ValueError(f"checkpoint manifest at {prefix} has a malformed tensor entry "
                             f"{entry!r}")
        entries.append((name, tuple(shape), np.dtype(dtype)))
    return entries


def _manifest(prefix: Path):
    """The parsed manifest of the checkpoint at ``prefix``, and its ``_entries``."""
    manifest_path = prefix.with_suffix(prefix.suffix + ".json")
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing checkpoint artifact: {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return manifest, _entries(manifest, prefix)


def load_tensors(prefix, kind: str):
    """Load a checkpoint of ``kind`` (another kind is a ValueError); returns (tensors, meta)."""
    prefix = Path(prefix)
    manifest, entries = _manifest(prefix)
    meta = manifest.get("meta", {})
    if meta.get("kind") != kind:
        raise ValueError(f"checkpoint at {prefix} has kind {meta.get('kind')!r}, not {kind!r}")
    blob_path = prefix.with_suffix(prefix.suffix + ".bin")
    if not blob_path.exists():
        raise FileNotFoundError(f"missing checkpoint artifact: {blob_path}")
    expected = sum(math.prod(shape) * dtype.itemsize for _, shape, dtype in entries)
    size = blob_path.stat().st_size
    if size != expected:
        raise ValueError(f"checkpoint blob size {size} does not match manifest "
                         f"({expected} expected)")
    # each tensor is read straight into its own array: no whole-blob buffer, no copy
    with open(blob_path, "rb") as f:
        tensors = {name: np.fromfile(f, dtype=dtype, count=math.prod(shape)).reshape(shape)
                   for name, shape, dtype in entries}
    return tensors, meta


def meta_k(meta: dict, prefix) -> int:
    """The ``k`` in a checkpoint's meta; one that is not an int >= 1 is a
    ValueError naming the checkpoint (a missing one, a KeyError)."""
    k = meta["k"]
    if type(k) is not int or k < 1:
        raise ValueError(f"checkpoint at {prefix} has k {k!r}, expected an int >= 1")
    return k


def copy_into(params: dict[str, np.ndarray], tensors: dict[str, np.ndarray], prefix) -> None:
    """Copy loaded ``tensors`` into the live arrays ``params`` of a freshly built
    object; a missing, extra or wrong-shaped tensor is a ValueError."""
    missing, extra = sorted(set(params) - set(tensors)), sorted(set(tensors) - set(params))
    if missing or extra:
        raise ValueError(f"checkpoint at {prefix} lacks tensors {missing} "
                         f"and has unexpected tensors {extra}")
    for name, p in params.items():
        if tensors[name].shape != p.shape:
            raise ValueError(f"checkpoint at {prefix}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, expected {p.shape}")
        p[...] = tensors[name]
