"""Trainable convolutional waveform frontend.

A stack of strided valid 1D convolutions, each followed by layer norm and
GELU, turning raw 16 kHz samples into a frame sequence. The layers are
wav2vec 2.0's feature encoder (CONV_LAYERS), which downsamples by a factor
of 320, i.e. one frame per 20 ms, with a 400-sample receptive field; every
layer has the same channel count. Every parameter is trained: freezing
the stack only means something once it holds pretrained weights.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthError
from . import tensor as T
from .tensor import Tensor

# (kernel, stride) of each conv layer, input side first (Baevski et al., 2020)
CONV_LAYERS = ((10, 5), (3, 2), (3, 2), (3, 2), (3, 2), (2, 2), (2, 2))


@dataclass
class ConvFrontendConfig:
    """Channel count of every CONV_LAYERS layer."""

    channels: int

    @classmethod
    def default(cls, channels=64):
        """The frontend at wav2vec 2.0's shape: 64 channels unless given."""
        return cls(channels)

    def receptive_field(self):
        """Input samples feeding one output frame (also the minimum input length)."""
        r = 1
        for kernel, stride in reversed(CONV_LAYERS):
            r = (r - 1) * stride + kernel
        return r

    def out_frames(self, n_samples):
        """Closed-form output frame count; raises below the receptive field."""
        t = n_samples
        for kernel, stride in CONV_LAYERS:
            if t < kernel:
                raise LengthError(
                    f"waveform of {n_samples} samples is shorter than the receptive field "
                    f"({self.receptive_field()} samples)"
                )
            t = (t - kernel) // stride + 1
        return t


def frontend_param_specs(cfg: ConvFrontendConfig):
    """(name, shape) of the conv + layer-norm parameters, in init order."""
    specs = []
    cin = 1
    for i, (kernel, _) in enumerate(CONV_LAYERS):
        specs += [
            (f"frontend.conv{i}.w", (kernel, cin, cfg.channels)),
            (f"frontend.conv{i}.b", (cfg.channels,)),
            (f"frontend.ln{i}.gain", (cfg.channels,)),
            (f"frontend.ln{i}.bias", (cfg.channels,)),
        ]
        cin = cfg.channels
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
    for i, (_, stride) in enumerate(CONV_LAYERS):
        x = T.conv1d(x, params[f"frontend.conv{i}.w"], params[f"frontend.conv{i}.b"], stride)
        x = T.layer_norm(x, params[f"frontend.ln{i}.gain"], params[f"frontend.ln{i}.bias"])
        x = T.gelu(x)
    return x
