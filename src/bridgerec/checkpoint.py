"""Named-tensor checkpoints: a json manifest plus a little-endian float64 blob.

``save_tensors("dir/model", {...})`` writes ``dir/model.json`` (tensor names,
shapes, optional metadata) and ``dir/model.bin`` (values concatenated in
manifest order). Round-trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DTYPE = "<f8"


def save_tensors(prefix, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(tensors)
    arrays = [np.ascontiguousarray(np.asarray(tensors[n], dtype=DTYPE)) for n in names]
    manifest = {
        "dtype": DTYPE,
        "meta": meta or {},
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in zip(names, arrays)],
    }
    prefix.with_suffix(prefix.suffix + ".json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    with open(prefix.with_suffix(prefix.suffix + ".bin"), "wb") as f:
        for a in arrays:
            f.write(a.tobytes())


def load_tensors(prefix):
    """Load a checkpoint; returns (tensors, meta)."""
    prefix = Path(prefix)
    manifest_path = prefix.with_suffix(prefix.suffix + ".json")
    blob_path = prefix.with_suffix(prefix.suffix + ".bin")
    for p in (manifest_path, blob_path):
        if not p.exists():
            raise FileNotFoundError(f"missing checkpoint artifact: {p}")
    manifest = json.loads(manifest_path.read_text())
    blob = blob_path.read_bytes()
    tensors = {}
    offset = 0
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype=manifest["dtype"], count=count, offset=offset)
        tensors[entry["name"]] = arr.reshape(shape).copy()
        offset += count * 8
    if offset != len(blob):
        raise ValueError(f"checkpoint blob size {len(blob)} does not match manifest ({offset} expected)")
    return tensors, manifest.get("meta", {})


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
