"""Classic acoustic features: framing, log-mel filter bank, MFCC, deltas, CMVN.

Conventions (the usual ones): 25 ms Hamming frames every 10 ms, pre-emphasis
0.97, 512-point FFT, 80 triangular mel filters on the HTK mel scale spanning
0 to Nyquist, log floor 1e-10. Filter bank features append first and second
order deltas (80*3 = 240 dims); MFCC keeps 16 DCT-II coefficients (16*3 = 48).
"""

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import SAMPLE_RATE, Waveform
from .errors import LengthError

FRAME_LEN_S = 0.025
FRAME_SHIFT_S = 0.010
PREEMPH = 0.97
NFFT = 512
N_MELS = 80
N_CEPS = 16
LOG_FLOOR = 1e-10

FEATURE_DIMS = {"fbank": 3 * N_MELS, "mfcc": 3 * N_CEPS}


def num_frames(n_samples, sample_rate):
    """Frame count 1 + floor((N - L) / S); raises if the signal is shorter than one frame."""
    flen = int(round(FRAME_LEN_S * sample_rate))
    fshift = int(round(FRAME_SHIFT_S * sample_rate))
    if n_samples < flen:
        raise LengthError(f"signal of {n_samples} samples is shorter than one frame ({flen} samples minimum)")
    return 1 + (n_samples - flen) // fshift


@functools.cache
def _hamming(flen):
    """The Hamming window of flen points, built once and shared, so read-only."""
    window = np.hamming(flen)
    window.flags.writeable = False
    return window


def frame_signal(w: Waveform):
    """Split a waveform into overlapping Hamming-windowed frames (T x L)."""
    flen = int(round(FRAME_LEN_S * w.sample_rate))
    fshift = int(round(FRAME_SHIFT_S * w.sample_rate))
    num_frames(len(w), w.sample_rate)  # raises for a signal shorter than one frame
    return sliding_window_view(w.samples, flen)[::fshift] * _hamming(flen)


def pre_emphasis(x):
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - PREEMPH * x[:-1]
    return y


def mel_from_hz(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank(n_mels=N_MELS, nfft=NFFT, sample_rate=SAMPLE_RATE):
    """Triangular mel filters from 0 Hz to Nyquist, evaluated on FFT bin center frequencies.

    Returns an (n_mels, nfft//2 + 1) weight matrix, built once per argument
    set and shared between calls, so it is read-only.
    """
    edges = hz_from_mel(np.linspace(mel_from_hz(0.0), mel_from_hz(sample_rate / 2.0), n_mels + 2))
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    weights = np.zeros((n_mels, nfft // 2 + 1))
    for j in range(n_mels):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        weights[j] = np.maximum(0.0, np.minimum(up, down))
    weights.flags.writeable = False
    return weights


@functools.cache
def _dct_matrix():
    """The orthonormal DCT-II's first N_CEPS basis vectors as an (N_MELS, N_CEPS) matrix.

    A row of log-mel energies times it gives the row's cepstra. Built once
    and shared between calls, so read-only.
    """
    n = np.arange(N_MELS)[:, None]
    k = np.arange(N_CEPS)[None, :]
    basis = np.cos(np.pi * (2.0 * n + 1.0) * k / (2.0 * N_MELS)) * np.sqrt(2.0 / N_MELS)
    basis[:, 0] /= np.sqrt(2.0)
    basis.flags.writeable = False
    return basis


def _log_mel(w: Waveform):
    frames = frame_signal(Waveform(pre_emphasis(w.samples), w.sample_rate))
    power = np.abs(np.fft.rfft(frames, NFFT, axis=1)) ** 2
    mel = mel_filterbank(N_MELS, NFFT, w.sample_rate)
    energies = power @ mel.T
    np.maximum(energies, LOG_FLOOR, out=energies)
    return np.log(energies, out=energies)


def delta(features):
    """First-order regression deltas with a +/-2 window and edge replication."""
    features = np.asarray(features)
    t = features.shape[0]
    first, last = features[:1], features[-1:]
    p = np.concatenate([first, first, features, last, last])
    num = p[3 : 3 + t] - p[1 : 1 + t]
    far = p[4 : 4 + t] - p[0:t]
    far *= 2.0
    num += far
    num /= 10.0
    return num


def _with_deltas(static):
    d1 = delta(static)
    return np.concatenate([static, d1, delta(d1)], axis=1)


def fbank(w: Waveform) -> np.ndarray:
    """80 log-mel energies plus first and second order deltas (T x 240)."""
    return _with_deltas(_log_mel(w))


def mfcc(w: Waveform) -> np.ndarray:
    """16 DCT-II (ortho) cepstra of the log-mel energies plus deltas (T x 48)."""
    return _with_deltas(_log_mel(w) @ _dct_matrix())


def cmvn(frames: np.ndarray) -> np.ndarray:
    """Per-utterance, per-dimension zero mean / unit variance normalization of a T x D matrix."""
    t = frames.shape[0]
    if t < 2:
        raise LengthError(f"cmvn needs at least 2 frames, got {t}")
    out = frames - frames.mean(axis=0)
    var = np.square(out).sum(axis=0)
    var /= t
    var += 1e-10
    out /= np.sqrt(var, out=var)
    return out
