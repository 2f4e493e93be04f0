"""Shared plumbing between training and evaluation: features and batching."""

import numpy as np

from .audio import SAMPLE_RATE, Waveform, read_audio
from .dsp import cmvn, fbank, mfcc
from .errors import ConfigError, DataError, FormatError, LengthError
from .losses import LabeledSample, tile_to
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

    The input is computed here, once: the raw samples for the conv frontend,
    else the record's fbank/mfcc frames in the model's dtype, the audio
    dropped. The sample keeps the audio's length in samples.
    """
    if wave.sample_rate != SAMPLE_RATE:
        raise FormatError(f"{record.utterance_path}: sample rate {wave.sample_rate} Hz, expected {SAMPLE_RATE} Hz")
    kind = net.cfg.feature_kind
    inputs = wave.samples
    if kind != "conv":
        try:
            inputs = featurize(kind, wave).astype(net.dtype, copy=False)
        except LengthError as exc:
            raise LengthError(f"{record.utterance_path}: {exc}") from exc
    return LabeledSample(
        inputs=inputs,
        height_cm=record.height_cm,
        age_years=float(record.age_years),
        gender=float(record.gender),
        n_samples=len(wave),
    )


def record_labels(records):
    """(ages, heights, genders) label arrays in record order, as predict_samples returns predictions."""
    ages = np.array([r.age_years for r in records], dtype=np.float64)
    heights = np.array([r.height_cm for r in records], dtype=np.float64)
    genders = np.array([r.gender for r in records], dtype=np.int64)
    return ages, heights, genders


def align_samples(samples):
    """Tile every sample's input along its first axis to the longest one's.

    Returns the tiled samples, which all carry the longest audio length, and
    each sample's own audio length in samples.
    """
    longest = max(samples, key=lambda s: s.n_samples)
    rows = len(longest.inputs)
    aligned = [
        LabeledSample(tile_to(s.inputs, rows), s.height_cm, s.age_years, s.gender, longest.n_samples)
        for s in samples
    ]
    return aligned, [s.n_samples for s in samples]


def batch_forward(net, samples, training=False):
    """Align samples (see align_samples), stack their inputs and run the network once.

    Attention keys and pooling ignore the frames that exist only because of
    tiling, so an item's prediction does not depend on its batch-mates.
    """
    aligned, orig_lens = align_samples(samples)
    t_full = net.frames_for_samples(aligned[0].n_samples)
    frame_mask = np.zeros((len(aligned), t_full), dtype=np.float64)
    for row, n in zip(frame_mask, orig_lens):
        row[: net.frames_for_samples(n)] = 1.0
    inputs = np.stack([s.inputs for s in aligned])
    if net.cfg.feature_kind == "conv":
        return net.forward_waveforms(inputs, training=training, frame_mask=frame_mask)
    return net.forward_features(inputs, training=training, frame_mask=frame_mask)


# training batches are cut from pools of this many batches sorted by audio
# length, so an item is tiled to a near neighbour's length rather than to the
# longest of a random batch; over 2 epochs of ten quick-start corpora (batch 16)
# the median share of tiled audio in batch samples fell from 22.6% to 10.0%
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
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
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
# samples (4 MB as float64), so inference holds one window of audio, not the
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
    each window is sorted by audio length and forwarded in alignment-masked
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
