import dataclasses
import struct

import numpy as np
import pytest

from moe_profiler import checkpoint
from moe_profiler.checkpoint import FORMAT_VERSION, load_checkpoint, restore_model, save_checkpoint
from moe_profiler.errors import ConfigError, FormatError
from moe_profiler.evaluation import evaluate
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler
from moe_profiler.pipeline import predict_records

from .conftest import tiny_config


NORM = NormStats(41.5, 11.25, 171.25, 7.5)


def test_roundtrip_bitwise(tmp_path):
    cfg = tiny_config()
    net = SpeakerProfiler(cfg)
    path = tmp_path / "ck.bemx"
    save_checkpoint(path, cfg, NORM, net.parameters(), best_epoch=3)
    ck = load_checkpoint(path)
    assert ck.best_epoch == 3
    assert ck.norm == NORM
    assert set(ck.tensors) == set(net.parameters())
    for name, p in net.parameters().items():
        assert ck.tensors[name].tobytes() == p.data.tobytes(), name
        assert ck.tensors[name].dtype == p.data.dtype


def test_config_snapshot_roundtrip(tmp_path):
    cfg = tiny_config(lr=5e-4, mode="single_encoder", feature_kind="mfcc")
    net = SpeakerProfiler(cfg)
    path = tmp_path / "ck.bemx"
    save_checkpoint(path, cfg, NORM, net.parameters())
    ck = load_checkpoint(path)
    assert ck.cfg == cfg


def test_unknown_version_rejected(tmp_path):
    cfg = tiny_config()
    net = SpeakerProfiler(cfg)
    path = tmp_path / "ck.bemx"
    save_checkpoint(path, cfg, NORM, net.parameters())
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", FORMAT_VERSION + 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("what", ["config", "tensor name"])
def test_non_utf8_text_names_path_and_field(tmp_path, what):
    cfg = tiny_config()
    path = tmp_path / "ck.bemx"
    save_checkpoint(path, cfg, NORM, SpeakerProfiler(cfg).parameters())
    raw = bytearray(path.read_bytes())
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    # the first tensor name follows the config, norm stats, best epoch, tensor count and name length
    raw[12 if what == "config" else 12 + cfg_len + 32 + 4 + 4 + 2] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"{what} is not UTF-8") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def _first_tensor_header_at(raw):
    """Offset of the first tensor's (dtype code, ndim) bytes."""
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    name_at = 12 + cfg_len + 32 + 4 + 4
    (name_len,) = struct.unpack("<H", raw[name_at : name_at + 2])
    return name_at + 2 + name_len


def _saved_checkpoint_bytes(path):
    cfg = tiny_config()
    save_checkpoint(path, cfg, NORM, SpeakerProfiler(cfg).parameters())
    return bytearray(path.read_bytes())


@pytest.mark.parametrize(
    "offset,new,match",
    [(1, b"\xc8", "200 dimensions"), (2, struct.pack("<I", 2**31), "truncated checkpoint")],
    ids=["ndim_past_numpy_limit", "shape_past_end_of_file"],
)
def test_corrupt_tensor_header_names_path(tmp_path, offset, new, match):
    path = tmp_path / "ck.bemx"
    raw = _saved_checkpoint_bytes(path)
    at = _first_tensor_header_at(raw) + offset  # +1 is ndim, +2 the first dimension
    raw[at : at + len(new)] = new
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_truncated_checkpoint_names_path(tmp_path):
    path = tmp_path / "ck.bemx"
    path.write_bytes(bytes(_saved_checkpoint_bytes(path)[:-10]))
    with pytest.raises(FormatError, match="truncated checkpoint") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_bytes_after_last_tensor_rejected(tmp_path):
    path = tmp_path / "ck.bemx"
    path.write_bytes(bytes(_saved_checkpoint_bytes(path)) + b"\x00" * 700)
    with pytest.raises(FormatError, match="700 bytes after the last tensor") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bemx"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="magic"):
        load_checkpoint(path)


def test_restore_model_matches_saved(tmp_path):
    cfg = tiny_config()
    net = SpeakerProfiler(cfg)
    path = tmp_path / "ck.bemx"
    save_checkpoint(path, cfg, NORM, net.parameters())
    restored = restore_model(load_checkpoint(path))
    for name, p in net.parameters().items():
        assert np.array_equal(restored.parameters()[name].data, p.data)


def test_restore_rejects_mismatched_tensors(tmp_path):
    cfg = tiny_config()
    net = SpeakerProfiler(cfg)
    path = tmp_path / "ck.bemx"
    tensors = dict(net.parameters())
    tensors.pop("gate.w")
    save_checkpoint(path, cfg, NORM, tensors)
    with pytest.raises(ConfigError, match="gate.w"):
        restore_model(load_checkpoint(path))


def write_corrupt_config_checkpoint(path, old="model_dim=8\n", new="model_dim=1024\n"):
    """A tiny checkpoint whose config text, still parseable, names a wider model than its tensors."""
    cfg = tiny_config()
    save_checkpoint(path, cfg, NORM, SpeakerProfiler(cfg).parameters())
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    text = raw[12:12 + cfg_len].decode("utf-8")
    assert old in text
    text = text.replace(old, new).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + cfg_len:])
    return path


def test_corrupt_config_rejected_before_any_model_is_built(tmp_path, monkeypatch):
    ck = load_checkpoint(write_corrupt_config_checkpoint(tmp_path / "ck.bemx"))
    assert ck.cfg.model_dim == 1024

    def no_model(*args, **kwargs):
        raise AssertionError("restore_model built a model before checking shapes")

    monkeypatch.setattr(checkpoint, "SpeakerProfiler", no_model)
    with pytest.raises(ConfigError, match="model expects"):
        restore_model(ck)


def test_failed_save_leaves_previous_checkpoint_intact(tmp_path):
    cfg = tiny_config()
    net = SpeakerProfiler(cfg)
    path = tmp_path / "ck.bemx"
    save_checkpoint(path, cfg, NORM, net.parameters())
    good = path.read_bytes()
    tensors = dict(net.parameters())
    tensors["zz.int"] = np.zeros(3, dtype=np.int32)  # sorts last: raises after the other tensors are written
    with pytest.raises(ConfigError, match="int32"):
        save_checkpoint(path, cfg, NORM, tensors)
    assert path.read_bytes() == good
    ck = load_checkpoint(path)
    for name, p in net.parameters().items():
        assert ck.tensors[name].tobytes() == p.data.tobytes(), name
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "key,value",
    [
        pytest.param("alignment_masking", "true", id="true"),
        pytest.param("alignment_masking", "false", id="false"),
        pytest.param("num_frozen_layers", "0", id="frozen_0"),
        pytest.param("num_frozen_layers", "3", id="frozen_3"),
        pytest.param("num_frozen_layers", "8", id="frozen_8"),
    ],
)
def test_stored_alignment_masking_key_is_dropped_on_load(tmp_path, corpus4_records, key, value):
    # checkpoints written while training had an alignment_masking switch or a
    # frozen-layer count store it in their config text; they restore and
    # evaluate as if it were absent (a count above the 7 conv layers included)
    cfg = tiny_config()
    plain = tmp_path / "plain.bemx"
    save_checkpoint(plain, cfg, NORM, SpeakerProfiler(cfg).parameters())
    old = write_corrupt_config_checkpoint(
        tmp_path / "old.bemx", "val_fraction=0.15\n", f"val_fraction=0.15\n{key}={value}\n"
    )
    a, b = load_checkpoint(plain), load_checkpoint(old)
    assert a.cfg == b.cfg
    assert a.tensors.keys() == b.tensors.keys()
    assert all(a.tensors[n].tobytes() == b.tensors[n].tobytes() for n in a.tensors)
    got = [predict_records(restore_model(ck), ck.norm, corpus4_records) for ck in (a, b)]
    for want, have in zip(*got):
        assert want.tobytes() == have.tobytes()
    reports = [evaluate(restore_model(ck), ck.norm, corpus4_records) for ck in (a, b)]
    assert dataclasses.astuple(reports[0]) == dataclasses.astuple(reports[1])


def test_stored_positional_encoding_true_is_dropped_on_load(tmp_path, corpus4_records):
    # every checkpoint written while the encoding had a switch stores it as true;
    # it loads as the same model, and evaluates bitwise the same
    cfg = tiny_config()
    plain = tmp_path / "plain.bemx"
    save_checkpoint(plain, cfg, NORM, SpeakerProfiler(cfg).parameters())
    old = write_corrupt_config_checkpoint(
        tmp_path / "old.bemx", "head_hidden=4\n", "head_hidden=4\nuse_positional_encoding=true\n"
    )
    a, b = load_checkpoint(plain), load_checkpoint(old)
    assert a.cfg == b.cfg
    assert all(a.tensors[n].tobytes() == b.tensors[n].tobytes() for n in a.tensors)
    reports = [evaluate(restore_model(ck), ck.norm, corpus4_records) for ck in (a, b)]
    assert dataclasses.astuple(reports[0]) == dataclasses.astuple(reports[1])


@pytest.mark.parametrize("value", ["0", "-5"])
def test_stored_patience_below_1_loads_as_1(tmp_path, corpus4_records, value):
    # checkpoints written before patience had a lower bound may store 0 or a
    # negative; it stopped training as 1 does, and the model evaluates unchanged
    plain = tmp_path / "plain.bemx"
    cfg = tiny_config(patience=1)
    save_checkpoint(plain, cfg, NORM, SpeakerProfiler(tiny_config()).parameters())
    old = write_corrupt_config_checkpoint(tmp_path / "old.bemx", "patience=1000\n", f"patience={value}\n")
    a, b = load_checkpoint(plain), load_checkpoint(old)
    assert b.cfg.patience == 1
    assert a.cfg == b.cfg
    reports = [evaluate(restore_model(ck), ck.norm, corpus4_records) for ck in (a, b)]
    assert dataclasses.astuple(reports[0]) == dataclasses.astuple(reports[1])
