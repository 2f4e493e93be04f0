"""Trainable convolutional waveform frontend.

A stack of strided valid 1D convolutions, each followed by layer norm and
GELU, turning raw 16 kHz samples into a frame sequence. The default layer
shape (kernels 10,3,3,3,3,2,2 with strides 5,2,2,2,2,2,2) downsamples by a
factor of 320, i.e. one frame per 20 ms, with a 400-sample receptive field.
The first num_frozen_layers layers are excluded from gradient updates.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LengthError
from . import tensor as T
from .tensor import Tensor

DEFAULT_KERNELS = (10, 3, 3, 3, 3, 2, 2)
DEFAULT_STRIDES = (5, 2, 2, 2, 2, 2, 2)


@dataclass
class ConvLayerSpec:
    channels: int
    kernel: int
    stride: int


@dataclass
class ConvFrontendConfig:
    layers: list = field(default_factory=list)
    num_frozen_layers: int = 0

    def __post_init__(self):
        if self.num_frozen_layers > len(self.layers):
            raise ConfigError(
                f"num_frozen_layers {self.num_frozen_layers} exceeds layer count {len(self.layers)}"
            )

    @classmethod
    def default(cls, channels=64, num_frozen_layers=0):
        layers = [ConvLayerSpec(channels, k, s) for k, s in zip(DEFAULT_KERNELS, DEFAULT_STRIDES)]
        return cls(layers, num_frozen_layers)

    @property
    def out_dim(self):
        return self.layers[-1].channels

    def receptive_field(self):
        """Input samples feeding one output frame (also the minimum input length)."""
        r = 1
        for l in reversed(self.layers):
            r = (r - 1) * l.stride + l.kernel
        return r

    def out_frames(self, n_samples):
        """Closed-form output frame count; raises below the receptive field."""
        t = n_samples
        for l in self.layers:
            if t < l.kernel:
                raise LengthError(
                    f"waveform of {n_samples} samples is shorter than the receptive field "
                    f"({self.receptive_field()} samples)"
                )
            t = (t - l.kernel) // l.stride + 1
        return t


def frontend_param_specs(cfg: ConvFrontendConfig):
    """(name, shape, trainable) of the conv + layer-norm parameters, in init order."""
    specs = []
    cin = 1
    for i, l in enumerate(cfg.layers):
        trainable = i >= cfg.num_frozen_layers
        specs += [
            (f"frontend.conv{i}.w", (l.kernel, cin, l.channels), trainable),
            (f"frontend.conv{i}.b", (l.channels,), trainable),
            (f"frontend.ln{i}.gain", (l.channels,), trainable),
            (f"frontend.ln{i}.bias", (l.channels,), trainable),
        ]
        cin = l.channels
    return specs


def frontend_forward(params, waveforms, cfg: ConvFrontendConfig):
    """Run a (B, N) waveform batch through the conv stack; returns (B, T, C)."""
    if isinstance(waveforms, Tensor):
        x = waveforms
    else:
        # in the parameters' dtype: a float64 batch would turn a float32 stack float64
        x = Tensor(np.asarray(waveforms, dtype=params["frontend.conv0.w"].dtype))
    if x.ndim != 2:
        raise LengthError(f"expected a (batch, samples) array, got shape {x.shape}")
    cfg.out_frames(x.shape[1])  # validates length up front
    x = T.reshape(x, (x.shape[0], x.shape[1], 1))
    for i, l in enumerate(cfg.layers):
        x = T.conv1d(x, params[f"frontend.conv{i}.w"], params[f"frontend.conv{i}.b"], l.stride)
        x = T.layer_norm(x, params[f"frontend.ln{i}.gain"], params[f"frontend.ln{i}.bias"])
        x = T.gelu(x)
    return x
