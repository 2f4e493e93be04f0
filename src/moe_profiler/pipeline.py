"""Shared plumbing between training and evaluation: features and batching."""

import numpy as np

from .audio import SAMPLE_RATE, Waveform, read_audio
from .dsp import cmvn, fbank, mfcc
from .errors import ConfigError, FormatError
from .losses import LabeledSample, tile_to


def featurize(kind, waveform: Waveform) -> np.ndarray:
    """Frame features for one utterance (fbank/mfcc are CMVN-normalized)."""
    if kind == "fbank":
        return cmvn(fbank(waveform)).frames
    if kind == "mfcc":
        return cmvn(mfcc(waveform)).frames
    raise ConfigError(f"no frame features for kind '{kind}'")


def record_sample(record, wave: Waveform) -> LabeledSample:
    """A record's labels with its audio; the one gate where audio reaches the model."""
    if wave.sample_rate != SAMPLE_RATE:
        raise FormatError(f"{record.utterance_path}: sample rate {wave.sample_rate} Hz, expected {SAMPLE_RATE} Hz")
    return LabeledSample(
        waveform=wave.samples,
        height_cm=record.height_cm,
        age_years=float(record.age_years),
        gender=float(record.gender),
    )


def align_samples(samples):
    """Tile every waveform in the batch to the longest one's length."""
    max_len = max(len(s.waveform) for s in samples)
    orig_lens = [len(s.waveform) for s in samples]
    aligned = [
        LabeledSample(tile_to(s.waveform, max_len), s.height_cm, s.age_years, s.gender) for s in samples
    ]
    return aligned, orig_lens


def batch_forward(net, samples, training=False, orig_lens=None):
    """Stack aligned samples (audio at SAMPLE_RATE) and run the network once.

    orig_lens enables alignment masking: pooling then ignores frames that
    exist only because of tiling.
    """
    frame_mask = None
    if orig_lens is not None:
        total = len(samples[0].waveform)
        t_full = net.frames_for_samples(total)
        frame_mask = np.zeros((len(samples), t_full), dtype=np.float64)
        for i, n in enumerate(orig_lens):
            t_real = min(t_full, net.frames_for_samples(min(n, total)))
            frame_mask[i, :t_real] = 1.0
    if net.cfg.feature_kind == "conv":
        wavs = np.stack([s.waveform for s in samples])
        return net.forward_waveforms(wavs, training=training, frame_mask=frame_mask)
    feats = np.stack([featurize(net.cfg.feature_kind, Waveform(s.waveform, SAMPLE_RATE)) for s in samples])
    return net.forward_features(feats, training=training, frame_mask=frame_mask)


def predict_records(net, norm, records, waves=None):
    """Forward each record individually (eval mode); returns prediction arrays.

    waves holds one Waveform per record, in record order (phone masking passes
    altered audio this way); when omitted, each record's audio is read as it
    is reached. A waves of another length than records raises ValueError.
    """
    if waves is None:
        waves = (read_audio(r.utterance_path) for r in records)
    results = []
    for record, wave in zip(records, waves, strict=True):
        out = batch_forward(net, [record_sample(record, wave)], training=False)
        results.append(
            (
                float(norm.de_age(out.age_z.data[0])),
                float(norm.de_height(out.height_z.data[0])),
                float(out.gender_p.data[0]),
            )
        )
    ages_pred = np.array([r[0] for r in results])
    heights_pred = np.array([r[1] for r in results])
    genders_pred = np.array([r[2] for r in results])
    return ages_pred, heights_pred, genders_pred
