"""Training configuration and its flat key=value text form."""

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

FEATURE_KINDS = ("fbank", "mfcc", "conv")
MODES = ("bi_encoder", "single_encoder")

# learning-rate defaults when lr is not given: 1e-6 for the trainable conv
# frontend, 1e-5 for fbank/mfcc
DEFAULT_LR = {"conv": 1e-6, "fbank": 1e-5, "mfcc": 1e-5}

# smallest allowed value of each integer setting; numpy seeds are non-negative,
# layer norm needs two features, so the conv channels and the encoder width
# start at two, and training stops after `patience` epochs without improvement,
# so it stops at the first one when patience is 1
MIN_VALUES = {
    "seed": 0,
    "max_epochs": 1,
    "batch_size": 1,
    "num_frozen_layers": 0,
    "model_dim": 2,
    "num_layers": 0,
    "num_heads": 1,
    "ff_dim": 1,
    "expert_dim": 1,
    "head_hidden": 1,
    "conv_channels": 2,
    "patience": 1,
}


@dataclass
class TrainConfig:
    feature_kind: str = "conv"
    mode: str = "bi_encoder"
    lr: float = None
    max_epochs: int = 300
    batch_size: int = 16
    seed: int = 0
    mixup_enabled: bool = True
    num_frozen_layers: int = 0
    # model shape
    model_dim: int = 128
    num_layers: int = 6
    num_heads: int = 8
    ff_dim: int = 256
    dropout_p: float = 0.2
    expert_dim: int = 128
    head_hidden: int = 64
    conv_channels: int = 64
    # training control
    patience: int = 20
    val_fraction: float = 0.15

    def __post_init__(self):
        if self.feature_kind not in FEATURE_KINDS:
            raise ConfigError(f"feature_kind must be one of {FEATURE_KINDS}, got '{self.feature_kind}'")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.lr is None:
            self.lr = DEFAULT_LR[self.feature_kind]
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        for key, low in MIN_VALUES.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} must be divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")

    def to_text(self):
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {
    f.name: (f.type if isinstance(f.type, str) else f.type.__name__)
    for f in dataclasses.fields(TrainConfig)
}


def parse_value(key, raw):
    """One setting's value parsed from its text by the setting's type."""
    raw = raw.strip()
    ftype = _FIELD_TYPES[key]
    try:
        if ftype == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: '{raw}'")
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from exc


def config_from_items(items: dict) -> TrainConfig:
    """Build a TrainConfig from string key/value pairs; unknown keys are hard errors."""
    kwargs = {}
    for key, raw in items.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        kwargs[key] = parse_value(key, raw)
    return TrainConfig(**kwargs)


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines ('#' or ';' start comments) into a dict; a key set twice is an error."""
    items = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"config key '{key}' set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        items[key] = value.strip()
    return items
