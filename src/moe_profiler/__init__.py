"""Speaker profiling with a bi-encoder mixture-of-experts transformer.

Estimates speaker age, height and gender from speech. Ships its own dense
autodiff core, classic DSP features, a trainable convolutional waveform
frontend, mixup augmentation, an uncertainty-weighted multi-task loss,
TIMIT-layout corpus handling and a phone-class masking analysis.
"""

__version__ = "0.1.0"

from .audio import Waveform, read_audio
from .config import TrainConfig
from .dsp import cmvn, fbank, mfcc
from .losses import LabeledSample, length_align, mixup, uncertainty_loss
from .metrics import EvalReport, NormStats, mae, rmse
from .model import ModelOutput, SpeakerProfiler, combine_experts, statistical_pooling
from .tensor import Tensor

__all__ = [
    "__version__",
    "Waveform",
    "read_audio",
    "TrainConfig",
    "cmvn",
    "fbank",
    "mfcc",
    "LabeledSample",
    "length_align",
    "mixup",
    "uncertainty_loss",
    "EvalReport",
    "NormStats",
    "mae",
    "rmse",
    "ModelOutput",
    "SpeakerProfiler",
    "combine_experts",
    "statistical_pooling",
    "Tensor",
]
