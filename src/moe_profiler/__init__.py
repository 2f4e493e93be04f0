"""Speaker profiling with a bi-encoder mixture-of-experts transformer.

Estimates speaker age, height and gender from speech. Ships its own dense
autodiff core, classic DSP features, a trainable convolutional waveform
frontend, mixup augmentation, an uncertainty-weighted multi-task loss,
TIMIT-layout corpus handling and a phone-class masking analysis. Each name
lives in its module, for example `moe_profiler.model.SpeakerProfiler`.
"""

__version__ = "0.1.0"
