"""Binary checkpoint: magic 'BEMX', version, config snapshot, stats, tensors.

Little-endian throughout; tensor payloads are raw row-major floats so that
save -> load round-trips bitwise. Loading rejects unknown versions.
"""

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TrainConfig, config_from_items, parse_config_text, parse_value
from .errors import ConfigError, FormatError
from .metrics import NormStats
from .model import SpeakerProfiler, param_specs
from .tensor import Tensor

MAGIC = b"BEMX"
FORMAT_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
# NumPy 1's limit on array dimensions; model tensors have at most 3
_MAX_NDIM = 32


@dataclass
class Checkpoint:
    cfg: TrainConfig
    norm: NormStats
    best_epoch: int
    tensors: dict  # name -> np.ndarray


def save_checkpoint(path, cfg: TrainConfig, norm: NormStats, tensors: dict, best_epoch=0):
    """Write config, normalization stats and named tensors to one file.

    The bytes go to a temporary file beside path, renamed over path only once
    complete, so a save that fails part-way leaves an earlier checkpoint intact.
    """
    path = Path(path)
    cfg_text = cfg.to_text().encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            f.write(struct.pack("<I", len(cfg_text)))
            f.write(cfg_text)
            f.write(struct.pack("<dddd", norm.age_mean, norm.age_std, norm.height_mean, norm.height_std))
            f.write(struct.pack("<I", int(best_epoch)))
            f.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                arr = tensors[name]
                if isinstance(arr, Tensor):
                    arr = arr.data
                arr = np.asarray(arr)
                code = _CODES_BY_KIND.get(arr.dtype)
                if code is None:
                    raise ConfigError(f"tensor '{name}' has unsupported dtype {arr.dtype}")
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<BB", code, arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_exact(f, n, what, path):
    """Read n bytes, checked first against what is left of the file."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(f"{path}: truncated checkpoint while reading {what} ({n} bytes, {left} left)")
    return f.read(n)


def _read_text(f, n, what, path):
    try:
        return _read_exact(f, n, what, path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not UTF-8 ({exc})") from exc


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic", path) != MAGIC:
            raise ConfigError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version", path))
        if version != FORMAT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint format version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(f, 4, "config length", path))
        cfg_text = _read_text(f, cfg_len, "config", path)
        items = parse_config_text(cfg_text)
        # older checkpoints store keys of removed settings: these two never changed
        # what a stored model computes, and every model now adds positional
        # encodings, so only use_positional_encoding=true can be rebuilt
        for key in ("alignment_masking", "num_frozen_layers"):
            items.pop(key, None)
        pe = items.pop("use_positional_encoding", "true")
        if pe != "true":
            raise ConfigError(f"{path}: use_positional_encoding={pe} is no longer supported")
        # patience below 1 was once accepted, and stopped training at the first
        # epoch without improvement, as 1 does
        if "patience" in items and parse_value("patience", items["patience"]) < 1:
            items["patience"] = "1"
        cfg = config_from_items(items)
        norm = NormStats(*struct.unpack("<dddd", _read_exact(f, 32, "norm stats", path)))
        (best_epoch,) = struct.unpack("<I", _read_exact(f, 4, "best epoch", path))
        (n_tensors,) = struct.unpack("<I", _read_exact(f, 4, "tensor count", path))
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length", path))
            name = _read_text(f, name_len, "tensor name", path)
            code, ndim = struct.unpack("<BB", _read_exact(f, 2, "tensor header", path))
            if code not in _DTYPE_CODES:
                raise FormatError(f"{path}: unknown dtype code {code} for tensor '{name}'")
            if ndim > _MAX_NDIM:
                raise FormatError(f"{path}: tensor '{name}' has {ndim} dimensions, at most {_MAX_NDIM} allowed")
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "tensor shape", path))
            dtype = _DTYPE_CODES[code]
            payload = _read_exact(f, math.prod(shape) * dtype.itemsize, f"tensor '{name}'", path)
            tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra:
            raise FormatError(f"{path}: {extra} bytes after the last tensor")
    return Checkpoint(cfg=cfg, norm=norm, best_epoch=best_epoch, tensors=tensors)


def restore_model(ck: Checkpoint) -> SpeakerProfiler:
    """Rebuild a SpeakerProfiler from a checkpoint's config and tensors.

    The config's parameter shapes are checked against the tensors before the
    model is built, so a corrupt config allocates nothing.
    """
    shapes = dict(param_specs(ck.cfg))
    missing = sorted(set(shapes) - set(ck.tensors))
    extra = sorted(set(ck.tensors) - set(shapes))
    if missing or extra:
        raise ConfigError(f"checkpoint does not match model: missing {missing[:3]}, unexpected {extra[:3]}")
    for name, shape in shapes.items():
        arr = ck.tensors[name]
        if arr.shape != shape:
            raise ConfigError(f"checkpoint tensor '{name}' has shape {arr.shape}, model expects {shape}")
    net = SpeakerProfiler(ck.cfg)
    for name, p in net.parameters().items():
        p.data = ck.tensors[name].astype(p.data.dtype, copy=True)
    return net
