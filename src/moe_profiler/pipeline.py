"""Shared plumbing between training and evaluation: features and batching."""

import numpy as np

from .audio import SAMPLE_RATE, Waveform, read_audio
from .dsp import cmvn, fbank, mfcc
from .errors import ConfigError, FormatError, LengthError
from .losses import LabeledSample
from .tensor import no_grad


def featurize(kind, waveform: Waveform) -> np.ndarray:
    """Frame features for one utterance (fbank/mfcc are CMVN-normalized)."""
    if kind == "fbank":
        return cmvn(fbank(waveform))
    if kind == "mfcc":
        return cmvn(mfcc(waveform))
    raise ConfigError(f"no frame features for kind '{kind}'")


def record_sample(net, record, wave: Waveform) -> LabeledSample:
    """A record's labels with its model input; the one gate where audio reaches the model.

    The audio's length is checked against the model's own frame rule
    (net.frames_for_samples), and the input is computed here, once, in the
    model's dtype: the raw samples for a conv frontend (16-bit PCM is exact
    in float32), else the record's fbank/mfcc frames, the audio dropped.
    Audio too short for the model raises LengthError naming the file. The
    sample keeps the audio's length in samples.
    """
    if wave.sample_rate != SAMPLE_RATE:
        raise FormatError(f"{record.utterance_path}: sample rate {wave.sample_rate} Hz, expected {SAMPLE_RATE} Hz")
    try:
        net.frames_for_samples(len(wave))
        inputs = wave.samples if net.conv_cfg is not None else featurize(net.cfg.feature_kind, wave)
    except LengthError as exc:
        raise LengthError(f"{record.utterance_path}: {exc}") from exc
    return LabeledSample(
        inputs=inputs.astype(net.dtype, copy=False),
        height_cm=record.height_cm,
        age_years=float(record.age_years),
        gender=float(record.gender),
        n_samples=len(wave),
    )


def align_samples(samples, dtype):
    """Write every sample's input once into one zero-padded (B, rows, ...) array in dtype.

    rows is the longest sample's input length. Returns the array and each
    sample's own audio length in samples.
    """
    longest = max(samples, key=lambda s: s.n_samples)
    inputs = np.zeros((len(samples),) + longest.inputs.shape, dtype=dtype)
    for row, s in zip(inputs, samples):
        row[: len(s.inputs)] = s.inputs
    return inputs, [s.n_samples for s in samples]


def batch_forward(net, samples, training=False):
    """Pad samples into one batch (see align_samples) and run the network once.

    Attention keys and pooling ignore the padded frames, so an item's
    prediction does not depend on its batch-mates.
    """
    inputs, lengths = align_samples(samples, net.dtype)
    frame_mask = np.zeros((len(samples), net.frames_for_samples(max(lengths))), dtype=np.float64)
    for row, n in zip(frame_mask, lengths):
        row[: net.frames_for_samples(n)] = 1.0
    return net.forward(inputs, training=training, frame_mask=frame_mask)


# training batches are cut from pools of this many batches sorted by audio
# length, so an item is padded to a near neighbour's length rather than to the
# longest of a random batch; over 2 epochs of ten quick-start corpora (batch 16)
# the median share of padded audio in batch samples fell from 22.6% to 10.0%
# (14.7% with pools of 2), while small pools still vary batches by epoch
POOL_BATCHES = 4


def pooled_batches(samples, batch_size, seed, epoch):
    """Yield training batches of samples, cut from length-sorted pools.

    The samples are shuffled with the (seed, epoch) salted RNG, cut into pools
    of POOL_BATCHES batches, each pool stable-sorted by n_samples (ties keep
    their shuffled order) and cut into batches. The full batches come in an
    order shuffled by the same RNG; the one short remainder, if any, comes
    last. Batches therefore depend on (seed, epoch) alone.
    """
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(samples)).tolist()
    pool = POOL_BATCHES * batch_size
    batches = []
    for start in range(0, len(order), pool):
        sorted_pool = sorted(order[start : start + pool], key=lambda i: samples[i].n_samples)
        batches += [sorted_pool[k : k + batch_size] for k in range(0, len(sorted_pool), batch_size)]
    remainder = batches.pop() if batches and len(batches[-1]) < batch_size else None
    for b in rng.permutation(len(batches)):
        yield [samples[i] for i in batches[b]]
    if remainder:
        yield [samples[i] for i in remainder]


# longest waveform x batch size of one eval forward: at this size the first
# conv frontend activation (samples / 5 frames x 32 channels x 4 bytes, 1.6 MB)
# still fits a 2 MB L2 cache; on the quick-start records 1 << 14 and 1 << 20
# were 1.4x and 1.3x slower (conv), 1 << 17 no faster
EVAL_BATCH_SAMPLES = 1 << 16

# records are read and sorted in consecutive windows of at least this many
# samples (2 MB as float32), so inference holds one window of audio, not the
# whole record list; the 128 quick-start records then take 26 forwards, against
# 24 when all of them are sorted at once
EVAL_WINDOW_SAMPLES = 8 * EVAL_BATCH_SAMPLES


def _length_groups(lengths):
    """Index groups in ascending length, each longest x count <= EVAL_BATCH_SAMPLES.

    A length over the budget forms a group of its own.
    """
    groups = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if groups and lengths[i] * (len(groups[-1]) + 1) <= EVAL_BATCH_SAMPLES:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _windows(samples):
    """Consecutive sample lists that end once they hold EVAL_WINDOW_SAMPLES audio samples."""
    window, held = [], 0
    for sample in samples:
        window.append(sample)
        held += sample.n_samples
        if held >= EVAL_WINDOW_SAMPLES:
            yield window
            window, held = [], 0
    if window:
        yield window


def predict_samples(net, norm, samples):
    """Predict prepared samples (see record_sample) in eval mode without recording a tape.

    Samples are taken in windows of about EVAL_WINDOW_SAMPLES audio samples;
    each window is sorted by audio length and forwarded in padded, masked
    groups of at most EVAL_BATCH_SAMPLES samples (longest x count), so each
    prediction equals the sample's own batch-of-one prediction within
    float32 rounding. Returns (ages, heights, genders) arrays in input order.
    """
    preds = ([], [], [])
    with no_grad():
        for window in _windows(samples):
            ages, heights, genders = (np.empty(len(window)) for _ in range(3))
            for group in _length_groups([s.n_samples for s in window]):
                out = batch_forward(net, [window[i] for i in group])
                ages[group] = norm.de_age(out.age_z.data)
                heights[group] = norm.de_height(out.height_z.data)
                genders[group] = out.gender_p.data
            for acc, got in zip(preds, (ages, heights, genders)):
                acc.append(got)
    return tuple(np.concatenate(acc) if acc else np.empty(0) for acc in preds)


def predict_records(net, norm, records):
    """Predict every record with predict_samples, reading and preparing each as its window is taken.

    Returns (ages, heights, genders) arrays in record order.
    """
    return predict_samples(net, norm, (record_sample(net, r, read_audio(r.utterance_path)) for r in records))
