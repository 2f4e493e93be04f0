import struct

import numpy as np
import pytest

from moe_profiler.checkpoint import FORMAT_VERSION, load_checkpoint, restore_model, save_checkpoint
from moe_profiler.errors import ConfigError
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler

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
