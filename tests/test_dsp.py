import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct as scipy_dct

from moe_profiler.audio import Waveform
from moe_profiler.dsp import (
    _dct_matrix,
    _log_mel,
    cmvn,
    delta,
    fbank,
    frame_signal,
    mel_filterbank,
    mfcc,
    num_frames,
)
from moe_profiler.errors import LengthError

from .helpers import (
    brute_dct2_ortho,
    brute_delta_row,
    brute_log_mel_frame,
    brute_mel_weights,
    tone_wave,
)


def wave(samples):
    return Waveform(np.asarray(samples), 16000)


class TestFraming:
    def test_exactly_one_frame(self):
        assert frame_signal(wave(np.ones(400) * 0.1)).shape == (1, 400)

    def test_one_second_gives_98(self):
        # 1 + floor((16000 - 400) / 160)
        assert frame_signal(wave(tone_wave(100.0))).shape[0] == 98

    def test_too_short_names_minimum(self):
        with pytest.raises(LengthError, match="400"):
            frame_signal(wave(np.ones(399) * 0.1))

    def test_count_formula_random_lengths(self, rng):
        for _ in range(100):
            n = int(rng.integers(400, 50000))
            expect = 1 + (n - 400) // 160
            assert num_frames(n, 16000) == expect

    def test_hamming_applied(self):
        frames = frame_signal(wave(np.ones(400)))
        assert np.allclose(frames[0], np.hamming(400))


class TestFbank:
    def test_width_240(self):
        assert fbank(wave(tone_wave(500.0, 0.2))).shape[1] == 240

    def test_silence_constant_with_zero_deltas(self):
        f = fbank(wave(np.zeros(8000) + 0.0))
        assert np.allclose(f[:, 80:], 0.0, atol=1e-9)
        assert np.allclose(f[:, :80], f[0, :80])

    def test_matches_brute_force_dft_oracle(self):
        w = wave(tone_wave(1000.0, seconds=0.2) + 0.05 * tone_wave(3200.0, 0.2))
        got = fbank(w)
        # recompute statics for frames 0..4 from scratch, then the deltas of frame 2
        statics = np.stack([brute_log_mel_frame(w.samples, t) for t in range(5)])
        assert np.allclose(got[2, :80], statics[2], rtol=1e-6, atol=1e-9)
        assert np.allclose(got[2, 80:160], brute_delta_row(statics), rtol=1e-6, atol=1e-9)

    def test_pure_tone_energy_location_stable(self):
        w = wave(tone_wave(1000.0, seconds=0.3))
        got = fbank(w)[:, :80]
        oracle_bin = int(np.argmax(brute_log_mel_frame(w.samples, 4)))
        argmaxes = np.argmax(got[2:-2], axis=1)
        assert np.all(argmaxes == oracle_bin)
        # the winning filter must cover 1 kHz
        weights = brute_mel_weights(80, 512, 16000)
        covered = np.nonzero(weights[oracle_bin])[0] * 16000 / 512
        assert covered.min() <= 1000.0 <= covered.max() + 16000 / 512


class TestMfcc:
    def test_width_48(self):
        assert mfcc(wave(tone_wave(500.0, 0.2))).shape[1] == 48

    def test_dct_of_constant_hits_c0_only(self):
        v = np.full(80, 3.3)
        out = v @ _dct_matrix()
        assert abs(out[0]) > 1.0
        assert np.allclose(out[1:], 0.0, atol=1e-12)
        brute = brute_dct2_ortho(v)
        assert np.allclose(brute[1:], 0.0, atol=1e-10)

    def test_statics_match_scipy_dct(self, rng):
        for n in (400, 7700, 48000):
            w = wave(rng.uniform(-0.5, 0.5, n))
            want = scipy_dct(_log_mel(w), type=2, axis=1, norm="ortho")[:, :16]
            assert np.abs(mfcc(w)[:, :16] - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_brute_force_dct_oracle(self):
        w = wave(tone_wave(700.0, seconds=0.2, amp=0.5))
        got = mfcc(w)
        statics = np.stack([brute_dct2_ortho(brute_log_mel_frame(w.samples, t))[:16] for t in range(5)])
        assert np.allclose(got[2, :16], statics[2], rtol=1e-6, atol=1e-9)
        assert np.allclose(got[2, 16:32], brute_delta_row(statics), rtol=1e-6, atol=1e-9)


class TestDelta:
    def test_constant_in_time_is_zero(self):
        f = np.tile(np.arange(5.0), (7, 1))
        assert np.allclose(delta(f), 0.0)

    def test_linear_ramp_slope(self):
        f = np.arange(10.0)[:, None] * np.ones((1, 3))
        d = delta(f)
        assert np.allclose(d[2:-2], 1.0)

    def test_second_order_columns_are_delta_of_delta(self):
        w = wave(tone_wave(700.0, seconds=0.2, amp=0.5) + 0.05 * tone_wave(3200.0, 0.2))
        f = fbank(w)
        assert np.array_equal(f[:, 160:240], delta(delta(f[:, :80])))
        m = mfcc(w)
        assert np.array_equal(m[:, 32:48], delta(delta(m[:, :16])))


class TestCmvn:
    def seq(self, arr):
        return np.asarray(arr, dtype=np.float64)

    def test_zero_mean_columns(self, rng):
        out = cmvn(self.seq(rng.normal(loc=3.0, size=(50, 7))))
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_constant_column_zeroed(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10.0)
        out = cmvn(self.seq(x))
        assert np.allclose(out[:, 0], 0.0)

    def test_idempotent(self, rng):
        f = self.seq(rng.normal(size=(30, 5)))
        once = cmvn(f)
        twice = cmvn(cmvn(f))
        assert np.abs(once - twice).max() < 1e-5

    def test_single_frame_rejected(self):
        with pytest.raises(LengthError):
            cmvn(self.seq(np.ones((1, 4))))


def test_mel_filterbank_matches_brute(rng):
    assert np.allclose(mel_filterbank(80, 512, 16000), brute_mel_weights(80, 512, 16000), atol=1e-9)


def test_mel_filterbank_built_once_and_read_only():
    mel = mel_filterbank(80, 512, 16000)
    assert mel_filterbank(80, 512, 16000) is mel
    assert not mel.flags.writeable
    with pytest.raises(ValueError):
        mel[0, 0] = 1.0


def test_dct_matrix_built_once_and_read_only():
    basis = _dct_matrix()
    assert _dct_matrix() is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0


def test_dct_matrix_columns_are_orthonormal_dct2_basis_vectors():
    basis = _dct_matrix()
    assert basis.shape == (80, 16)
    assert np.abs(basis.T @ basis - np.eye(16)).max() <= 1e-14
    # row n of the matrix holds the coefficients of the unit vector e_n
    brute = np.stack([brute_dct2_ortho(e)[:16] for e in np.eye(80)])
    assert np.allclose(basis, brute, rtol=1e-12, atol=1e-12)


def test_mfcc_loads_no_scipy():
    """A CLI process that computes MFCCs imports numpy only, no scipy module."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import moe_profiler.cli\n"
        "from moe_profiler.audio import Waveform\n"
        "from moe_profiler.pipeline import featurize\n"
        "t = np.arange(4000) / 16000\n"
        "assert featurize('mfcc', Waveform(0.4 * np.sin(2 * np.pi * 440 * t), 16000)).shape == (23, 48)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_features_pure_function():
    w = wave(tone_wave(640.0, 0.2))
    assert np.array_equal(fbank(w), fbank(w))
    assert np.array_equal(mfcc(w), mfcc(w))


def _frozen_features(kind, w):
    """fbank/mfcc + CMVN as first written: gather-index framing, np.pad deltas, out-of-place floor and CMVN.

    The mfcc statics are the log-mel rows times the DCT-II matrix built here from its cosine definition.
    """
    x = np.empty_like(w.samples)
    x[0] = w.samples[0]
    x[1:] = w.samples[1:] - 0.97 * w.samples[:-1]
    t = 1 + (len(x) - 400) // 160
    idx = 160 * np.arange(t)[:, None] + np.arange(400)[None, :]
    frames = x[idx] * np.hamming(400)
    power = np.abs(np.fft.rfft(frames, 512, axis=1)) ** 2
    static = np.log(np.maximum(power @ mel_filterbank(80, 512, 16000).T, 1e-10))
    if kind == "mfcc":
        n, k = np.arange(80)[:, None], np.arange(16)[None, :]
        dct2 = np.cos(np.pi * (2.0 * n + 1.0) * k / (2.0 * 80)) * np.sqrt(2.0 / 80)
        dct2[:, 0] /= np.sqrt(2.0)
        static = static @ dct2

    def old_delta(f):
        p = np.pad(f, ((2, 2), (0, 0)), mode="edge")
        n = f.shape[0]
        return ((p[3 : 3 + n] - p[1 : 1 + n]) + 2.0 * (p[4 : 4 + n] - p[0:n])) / 10.0

    d1 = old_delta(static)
    feats = np.concatenate([static, d1, old_delta(d1)], axis=1)
    return (feats - feats.mean(axis=0)) / np.sqrt(feats.var(axis=0) + 1e-10)


@pytest.mark.parametrize("n", [560, 561, 719, 720, 7700, 12000, 15000, 48000])
def test_features_bytewise_equal_frozen_formulas(n):
    w = wave(np.random.default_rng(n).uniform(-0.5, 0.5, n))
    assert cmvn(fbank(w)).tobytes() == _frozen_features("fbank", w).tobytes()
    assert cmvn(mfcc(w)).tobytes() == _frozen_features("mfcc", w).tobytes()


def test_cmvn_leaves_its_input_unchanged(rng):
    frames = rng.normal(size=(20, 6))
    seq = frames.copy()
    cmvn(seq)
    assert np.array_equal(seq, frames)
