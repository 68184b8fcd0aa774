import json
import re

import numpy as np
import pytest

from bridgerec.bridge import (CharacteristicEncoder, MetaNetwork, load_bridge_nets,
                              load_common_bridge, save_bridge_nets, save_common_bridge)
from bridgerec.checkpoint import load_tensors, save_tensors
from bridgerec.data import load_dataset, save_dataset
from bridgerec.models import DomainModel, load_model, save_model
from conftest import make_dataset


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7),
               "c": np.array([[1e-300, np.pi], [-0.0, 1.0]])}
    save_tensors(tmp_path / "ckpt", "common_bridge", tensors, meta={"k": 4})
    loaded, meta = load_tensors(tmp_path / "ckpt", "common_bridge")
    assert meta == {"k": 4, "kind": "common_bridge"}
    for name, arr in tensors.items():
        assert loaded[name].tobytes() == np.asarray(arr, dtype="<f8").tobytes()
        assert loaded[name].shape == arr.shape


def test_manifest_lists_names_and_shapes(tmp_path):
    save_tensors(tmp_path / "m", "domain", {"w": np.zeros((2, 5)), "b": np.zeros(5)})
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["dtype"] == "<f8"
    entries = {e["name"]: e["shape"] for e in manifest["tensors"]}
    assert entries == {"b": [5], "w": [2, 5]}


def test_saves_are_deterministic(tmp_path):
    tensors = {"x": np.arange(6, dtype=float).reshape(2, 3)}
    save_tensors(tmp_path / "one", "domain", tensors)
    save_tensors(tmp_path / "two", "domain", tensors)
    assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tensors(tmp_path / "nothing", "domain")


def test_integer_tensor_keeps_int64(tmp_path):
    tensors = {"i": np.array([2**63 - 1, -5, 0]), "j": np.arange(4, dtype=np.int32).reshape(2, 2),
               "f": np.array([0.5, -0.0])}
    save_tensors(tmp_path / "ckpt", "domain", tensors)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert manifest["dtype"] == "<f8"
    assert {e["name"]: e.get("dtype") for e in manifest["tensors"]} == {
        "f": None, "i": "<i8", "j": "<i8"}
    loaded, _ = load_tensors(tmp_path / "ckpt", "domain")
    for name, arr in tensors.items():
        assert loaded[name].dtype == (np.float64 if name == "f" else np.int64)
        assert loaded[name].shape == arr.shape
        assert loaded[name].tolist() == arr.tolist()


def test_float_only_checkpoint_is_written_as_before(tmp_path):
    # a float-only manifest names no per-tensor dtype, so model and bridge
    # checkpoints stay byte-identical to those written before integer tensors
    save_tensors(tmp_path / "m", "domain_model",
                 {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.5]), "s": np.float64(2.0)},
                 meta={"k": 3})
    assert (tmp_path / "m.json").read_text() == (
        '{"dtype":"<f8","meta":{"k":3,"kind":"domain_model"},'
        '"tensors":[{"name":"b","shape":[1]},{"name":"s","shape":[1]},'
        '{"name":"w","shape":[2,3]}]}\n')
    assert (tmp_path / "m.bin").read_bytes() == np.array(
        [1.5, 2, 0, 1, 2, 3, 4, 5], dtype="<f8").tobytes()


def test_truncated_blob_raises(tmp_path):
    save_tensors(tmp_path / "t", "domain", {"i": np.arange(3)})
    blob = tmp_path / "t.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_tensors(tmp_path / "t", "domain")


def _with_entry(**fields):
    return lambda m: {**m, "tensors": [{**m["tensors"][0], **fields}]}


@pytest.mark.parametrize("edit", [
    _with_entry(shape=["4", "3"]), _with_entry(shape=[4, -1]), _with_entry(shape=[4.0, 3]),
    _with_entry(shape=[True, 3]), _with_entry(shape=12), _with_entry(name=5),
    _with_entry(dtype="<f4"), lambda m: {**m, "tensors": [{"shape": [4, 3]}]},
    lambda m: {**m, "tensors": 5}, lambda m: {**m, "tensors": [5]}, lambda m: {"meta": {}},
    lambda m: {**m, "meta": 3}, lambda m: [m],
], ids=["shape-str", "shape-negative", "shape-float", "shape-bool", "shape-int", "name-int",
        "dtype", "no-name", "tensors-int", "entry-int", "no-tensors", "meta-int", "list"])
def test_malformed_manifest_is_a_value_error_naming_the_checkpoint(tmp_path, edit):
    save_tensors(tmp_path / "ckpt", "domain", {"w": np.zeros((4, 3))})
    manifest = tmp_path / "ckpt.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / "ckpt"))):
        load_tensors(tmp_path / "ckpt", "domain")


# each kind's saver and loader; every loader is handed the next kind's checkpoint
KINDS = {
    "domain_model": (lambda p: save_model(p, DomainModel(3, 4, 2)), load_model),
    "bridge_nets": (lambda p: save_bridge_nets(p, CharacteristicEncoder(2), MetaNetwork(2)),
                    load_bridge_nets),
    "common_bridge": (lambda p: save_common_bridge(p, np.eye(2)), load_common_bridge),
    "domain": (lambda p: save_dataset(p, make_dataset([("a", "i0", 3.0, 1)])), load_dataset),
}


@pytest.mark.parametrize("kind, other", zip(KINDS, [*KINDS][1:] + [*KINDS][:1]))
def test_every_loader_refuses_a_checkpoint_of_another_kind(tmp_path, kind, other):
    KINDS[other][0](tmp_path / "c")
    message = f"checkpoint at {tmp_path / 'c'} has kind {other!r}, not {kind!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KINDS[kind][1](tmp_path / "c")
