import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_profiler.audio import SAMPLE_RATE, read_audio, write_wav
from moe_profiler.corpus import scan_corpus
from moe_profiler.errors import ConfigError
from moe_profiler.phones import PhoneClass, parse_phn, phone_class_of
from moe_profiler.synth import MAX_SPEAKERS, _speaker_letters, _tone, synth_corpus

# sha256 tree digests of the 64 x 2 quick-start corpus, computed with the
# per-harmonic np.sin tone synthesis that _tone replaced
QUICK_START_DIGESTS = {
    3: "483cae23259e54b38899cbad5801aa3ab2bd3820f551e29ce3bd26dc7487f3f0",
    11: "65617bca39e5aa92e745230ec1fdfd0483afaea0b71d630e68f44089799ff4ff",
}


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def estimate_f0(samples, sample_rate=16000):
    spec = np.abs(np.fft.rfft(samples))
    freqs = np.fft.rfftfreq(len(samples), 1.0 / sample_rate)
    band = (freqs >= 50.0) & (freqs <= 400.0)
    return freqs[band][np.argmax(spec[band])]


def test_roundtrip_record_count(corpus4, corpus4_records):
    assert len(corpus4_records) == 4
    assert {r.speaker_id[0] for r in corpus4_records} == {"M", "F"}


def test_sixteen_speakers_have_test_split(corpus16):
    records = scan_corpus(corpus16)
    assert len(records) == 16
    splits = {r.split for r in records}
    assert splits == {"train", "test"}
    test_genders = {r.gender for r in records if r.split == "test"}
    assert test_genders == {0, 1}


def test_deterministic_per_seed(tmp_path):
    a = synth_corpus(tmp_path / "a", seed=17, n_speakers=4, utt_per_speaker=2)
    b = synth_corpus(tmp_path / "b", seed=17, n_speakers=4, utt_per_speaker=2)
    assert tree_digest(a) == tree_digest(b)
    c = synth_corpus(tmp_path / "c", seed=18, n_speakers=4, utt_per_speaker=2)
    assert tree_digest(a) != tree_digest(c)


def test_gender_recoverable_from_f0(corpus16):
    records = scan_corpus(corpus16)
    for r in records:
        w = read_audio(r.utterance_path)
        f0 = estimate_f0(w.samples, w.sample_rate)
        predicted = 0 if f0 < 165.0 else 1
        assert predicted == r.gender, f"{r.speaker_id}: f0={f0:.1f}"


def test_labels_within_timit_ranges(corpus16):
    for r in scan_corpus(corpus16):
        assert 21 <= r.age_years <= 76
        assert 145.0 <= r.height_cm <= 204.0


def test_phn_covers_waveform_with_vowels_and_silence(corpus4_records):
    r = corpus4_records[0]
    w = read_audio(r.utterance_path)
    t = parse_phn(r.phn_path)
    assert t.segments[0][0] == 0
    assert t.segments[-1][1] == len(w.samples)
    classes = {phone_class_of(sym) for _, _, sym in t.segments}
    assert classes == {PhoneClass.VOWELS, PhoneClass.OTHERS}
    # silence segments are written as exact zeros
    for s, e, sym in t.segments:
        if phone_class_of(sym) is PhoneClass.OTHERS:
            assert np.all(w.samples[s:e] == 0.0)
        else:
            assert np.any(w.samples[s:e] != 0.0)


def test_height_encoded_in_peak_amplitude(corpus16):
    records = scan_corpus(corpus16)
    peaks = []
    heights = []
    for r in records:
        w = read_audio(r.utterance_path)
        peaks.append(np.abs(w.samples).max())
        heights.append(r.height_cm)
    corr = np.corrcoef(peaks, heights)[0, 1]
    assert corr > 0.9


def test_single_speaker_rejected(tmp_path):
    with pytest.raises(ConfigError):
        synth_corpus(tmp_path / "x", seed=0, n_speakers=1, utt_per_speaker=1)


def test_speaker_ids_past_three_letters_rejected_before_writing(tmp_path):
    assert _speaker_letters(MAX_SPEAKERS - 1) == "ZZZ"
    assert _speaker_letters(MAX_SPEAKERS) == _speaker_letters(0)
    with pytest.raises(ConfigError, match="17577"):
        synth_corpus(tmp_path, seed=0, n_speakers=MAX_SPEAKERS + 1, utt_per_speaker=1)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", sorted(QUICK_START_DIGESTS))
def test_quick_start_corpus_bytes_pinned(tmp_path, seed):
    root = synth_corpus(tmp_path, seed=seed, n_speakers=64, utt_per_speaker=2)
    assert tree_digest(root) == QUICK_START_DIGESTS[seed]


def sin_sum_raw(f0, beta, n_harm, length, start_sample):
    """The per-harmonic np.sin sum with its fade, before peak scaling."""
    t = (start_sample + np.arange(length)) / SAMPLE_RATE
    x = np.zeros(length)
    for k in range(1, n_harm + 1):
        x += k ** (-beta) * np.sin(2.0 * np.pi * k * f0 * t)
    fade = min(80, length // 4)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        x[:fade] *= ramp
        x[-fade:] *= ramp[::-1]
    return x


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    f0=st.floats(100.0, 230.0),
    beta=st.floats(0.3, 2.7),
    n_harm=st.integers(4, 14),
    peak=st.floats(0.15, 0.85),
    length=st.integers(1, 4000),
    start=st.integers(0, 15_000),
)
def test_tone_matches_per_harmonic_sin_sum(tmp_path_factory, f0, beta, n_harm, peak, length, start):
    raw = sin_sum_raw(f0, beta, n_harm, length, start)
    if not np.any(raw):
        # the lone sample at phase 0 has no peak to scale to, in either form
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.all(np.isnan(_tone(f0, beta, n_harm, peak, length, start)))
        return
    got = _tone(f0, beta, n_harm, peak, length, start)
    scale = peak / np.max(np.abs(raw))
    expected = raw * scale
    # both sums round the phase argument, harmonic k's by about eps * k * phase,
    # and the peak scaling multiplies that; 4 covers the few roundings per term
    phase_end = 2.0 * np.pi * f0 * (start + length) / SAMPLE_RATE
    tilt = sum(k ** (1.0 - beta) for k in range(1, n_harm + 1))
    tol = 4.0 * np.finfo(np.float64).eps * (1.0 + phase_end * tilt) * scale
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= tol
    d = tmp_path_factory.getbasetemp()
    write_wav(d / "expected.wav", expected, SAMPLE_RATE)
    write_wav(d / "got.wav", got, SAMPLE_RATE)
    assert (d / "got.wav").read_bytes() == (d / "expected.wav").read_bytes()
