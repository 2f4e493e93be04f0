"""Shared plumbing between training and evaluation: features and batching."""

import numpy as np

from .audio import SAMPLE_RATE, Waveform, read_audio
from .dsp import cmvn, fbank, mfcc
from .errors import ConfigError, FormatError
from .losses import LabeledSample, tile_to
from .tensor import no_grad


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


def record_labels(records):
    """(ages, heights, genders) label arrays in record order, as predict_records returns predictions."""
    ages = np.array([r.age_years for r in records], dtype=np.float64)
    heights = np.array([r.height_cm for r in records], dtype=np.float64)
    genders = np.array([r.gender for r in records], dtype=np.int64)
    return ages, heights, genders


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

    orig_lens enables alignment masking: attention keys and pooling then
    ignore frames that exist only because of tiling, and fbank/mfcc are
    computed from each untiled waveform and tiled as frames, so CMVN sees
    real frames only. An item's prediction then does not depend on its
    batch-mates.
    """
    kind = net.cfg.feature_kind
    frame_mask = None
    if orig_lens is not None:
        total = len(samples[0].waveform)
        t_full = net.frames_for_samples(total)
        frame_mask = np.zeros((len(samples), t_full), dtype=np.float64)
        for i, n in enumerate(orig_lens):
            t_real = min(t_full, net.frames_for_samples(min(n, total)))
            frame_mask[i, :t_real] = 1.0
    if kind == "conv":
        wavs = np.stack([s.waveform for s in samples])
        return net.forward_waveforms(wavs, training=training, frame_mask=frame_mask)
    if orig_lens is None:
        feats = [featurize(kind, Waveform(s.waveform, SAMPLE_RATE)) for s in samples]
    else:
        feats = [
            tile_to(featurize(kind, Waveform(s.waveform[:n], SAMPLE_RATE)), t_full)
            for s, n in zip(samples, orig_lens)
        ]
    return net.forward_features(np.stack(feats), training=training, frame_mask=frame_mask)


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
    """Consecutive (index, sample) lists that end once they hold EVAL_WINDOW_SAMPLES samples."""
    window, held = [], 0
    for item in enumerate(samples):
        window.append(item)
        held += len(item[1].waveform)
        if held >= EVAL_WINDOW_SAMPLES:
            yield window
            window, held = [], 0
    if window:
        yield window


def predict_records(net, norm, records, waves=None):
    """Predict every record in eval mode without recording a tape.

    Records are taken in windows of about EVAL_WINDOW_SAMPLES samples; each
    window is sorted by length and forwarded in alignment-masked groups of
    at most EVAL_BATCH_SAMPLES samples (longest x count), so each
    prediction equals the record's own batch-of-one prediction within
    float32 rounding. Returns (ages, heights, genders) arrays in record order.

    waves holds one Waveform per record, in record order (phone masking passes
    altered audio this way), and is consumed one window at a time; when
    omitted, each record's audio is read. A waves of another length than
    records raises ValueError.
    """
    if waves is None:
        waves = (read_audio(r.utterance_path) for r in records)
    samples = (record_sample(record, wave) for record, wave in zip(records, waves, strict=True))
    ages, heights, genders = (np.empty(len(records)) for _ in range(3))
    with no_grad():
        for window in _windows(samples):
            for group in _length_groups([len(s.waveform) for _, s in window]):
                idx = [window[g][0] for g in group]
                aligned, orig_lens = align_samples([window[g][1] for g in group])
                out = batch_forward(net, aligned, orig_lens=orig_lens)
                ages[idx] = norm.de_age(out.age_z.data)
                heights[idx] = norm.de_height(out.height_z.data)
                genders[idx] = out.gender_p.data
    return ages, heights, genders
