"""Synthetic TIMIT-layout corpus with planted label-to-acoustic correlations.

Each speaker gets a fundamental frequency band determined by gender
(~120 Hz male, ~210 Hz female, fully separable by a 165 Hz threshold), a
harmonic spectral tilt and harmonic count tied to age (older = steeper
roll-off, fewer harmonics), and a waveform peak amplitude tied to height.
Utterances alternate exact-zero silence with harmonic tone segments; the
.PHN files label tones with vowel symbols and silence with h#/pau, so every
acoustic cue lives inside vowel-labeled spans.
"""

import logging
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, write_wav
from .errors import ConfigError

log = logging.getLogger("moe_profiler.synth")

MALE_F0 = (105.0, 140.0)
FEMALE_F0 = (190.0, 225.0)
AGE_RANGE = (21, 76)
MALE_HEIGHT_IN = (64, 78)
FEMALE_HEIGHT_IN = (58, 72)
VOWEL_SYMBOLS = ("iy", "aa", "eh", "ow", "uw", "ae", "ih")
TEST_FRACTION = 0.25
MAX_SPEAKERS = 26**3  # three-letter speaker IDs
_BLOCK = 64  # samples per exact cos/sin evaluation of a tone's base phasor


def _speaker_letters(i):
    letters = ""
    for _ in range(3):
        letters = chr(ord("A") + i % 26) + letters
        i //= 26
    return letters


def _tone(f0, beta, n_harm, peak, length, start_sample):
    """Sum of k**-beta * sin(2 pi k f0 t) over harmonics k, faded and scaled to peak.

    Harmonic k's phasor is the base phasor e^{i 2 pi f0 t} raised to the k-th
    power by repeated multiplication. The base is exact at the first sample
    of every _BLOCK-sample block and rotated inside the block by a table, so
    cos/sin run once per block instead of once per harmonic per sample. It
    differs from the per-harmonic np.sin sum only by float64 rounding of the
    phase, which both carry (a few 1e-12 at the corpus's phases).
    """
    # phase continues across segments (t is global) so the utterance is a
    # gated single harmonic source and segments cannot cancel at f0
    w = 2.0 * np.pi * f0 / SAMPLE_RATE
    block_start = w * (start_sample + _BLOCK * np.arange(-(-length // _BLOCK)))
    in_block = w * np.arange(_BLOCK)
    base = np.outer(np.cos(block_start) + 1j * np.sin(block_start),
                    np.cos(in_block) + 1j * np.sin(in_block)).ravel()[:length]
    x = base.imag.copy()  # k = 1
    z = base.copy()
    for k in range(2, n_harm + 1):
        z *= base
        x += k ** (-beta) * z.imag
    fade = min(80, length // 4)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        x[:fade] *= ramp
        x[-fade:] *= ramp[::-1]
    return x * (peak / np.max(np.abs(x)))


def _utterance(rng, f0_speaker, beta, n_harm, peak):
    """Silence/tone alternation; returns (samples, phn segments)."""
    f0 = f0_speaker + rng.uniform(-3.0, 3.0)
    n_voiced = int(rng.integers(2, 4))
    chunks, segments, pos = [], [], 0

    def emit(samples, symbol):
        nonlocal pos
        chunks.append(samples)
        segments.append((pos, pos + len(samples), symbol))
        pos += len(samples)

    emit(np.zeros(int(rng.integers(600, 1200))), "h#")
    for v in range(n_voiced):
        vowel = VOWEL_SYMBOLS[int(rng.integers(0, len(VOWEL_SYMBOLS)))]
        emit(_tone(f0, beta, n_harm, peak, int(rng.integers(2400, 4000)), pos), vowel)
        if v < n_voiced - 1:
            emit(np.zeros(int(rng.integers(400, 900))), "pau")
    emit(np.zeros(int(rng.integers(600, 1200))), "h#")
    return np.concatenate(chunks), segments


def synth_corpus(out_dir, seed, n_speakers, utt_per_speaker) -> Path:
    """Materialize a synthetic corpus tree; deterministic per seed.

    Speakers alternate male/female; roughly a quarter of each gender goes to
    TEST, the rest to TRAIN. Writes WAV + .PHN per utterance plus a
    SPKRINFO-style table at the root.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_speakers < 2:
        raise ConfigError(f"need at least 2 speakers (both genders), got {n_speakers}")
    if n_speakers > MAX_SPEAKERS:
        raise ConfigError(f"at most {MAX_SPEAKERS} speakers have distinct IDs, got {n_speakers}")
    if utt_per_speaker < 1:
        raise ConfigError(f"utt_per_speaker must be >= 1, got {utt_per_speaker}")
    out_dir = Path(out_dir)
    rng = np.random.default_rng(seed)

    n_per_gender = [n_speakers - n_speakers // 2, n_speakers // 2]  # male, female
    n_test = [int(n * TEST_FRACTION) for n in n_per_gender]
    seen = [0, 0]

    info_rows = []
    for i in range(n_speakers):
        gender = i % 2  # 0 male, 1 female
        sex = "MF"[gender]
        spk_id = _speaker_letters(i) + "0"
        seen[gender] += 1
        split = "TEST" if seen[gender] > n_per_gender[gender] - n_test[gender] else "TRAIN"
        dialect = f"DR{i % 8 + 1}"

        f0_lo, f0_hi = MALE_F0 if gender == 0 else FEMALE_F0
        f0_speaker = rng.uniform(f0_lo, f0_hi)
        age = int(rng.integers(AGE_RANGE[0], AGE_RANGE[1] + 1))
        h_lo, h_hi = MALE_HEIGHT_IN if gender == 0 else FEMALE_HEIGHT_IN
        height_in = int(rng.integers(h_lo, h_hi + 1))
        height_cm = height_in * 2.54

        rel_age = (age - AGE_RANGE[0]) / (AGE_RANGE[1] - AGE_RANGE[0])
        beta = 0.3 + 2.4 * rel_age
        n_harm = 14 - int(round(10 * rel_age))
        peak = float(np.clip(0.2 + 0.6 * (height_cm - 145.0) / (204.0 - 145.0), 0.15, 0.85))

        spk_dir = out_dir / split / dialect / f"{sex}{spk_id}"
        spk_dir.mkdir(parents=True, exist_ok=True)
        for u in range(utt_per_speaker):
            samples, segments = _utterance(rng, f0_speaker, beta, n_harm, peak)
            write_wav(spk_dir / f"SX{u + 1}.WAV", samples, SAMPLE_RATE)
            with open(spk_dir / f"SX{u + 1}.PHN", "w") as f:
                for start, end, sym in segments:
                    f.write(f"{start} {end} {sym}\n")

        info_rows.append(
            f"{spk_id}   {sex}    {dialect[2]}  "
            f"{'TRN' if split == 'TRAIN' else 'TST'}  03/01/86  03/01/{86 - age:02d}   "
            f"{height_in // 12}'{height_in % 12}\"    ???  ??"
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "SPKRINFO.TXT", "w") as f:
        f.write("; synthetic speaker table\n")
        f.write(";ID    SEX  DR  USE  RECDATE   BIRTHDATE  HT      RACE EDU\n")
        for row in info_rows:
            f.write(row + "\n")
    log.info("synthesized %d speakers x %d utterances under %s", n_speakers, utt_per_speaker, out_dir)
    return out_dir
