"""Batched eval: a record's prediction must not depend on its batch-mates."""

import dataclasses

import numpy as np
import pytest

from moe_profiler import pipeline
from moe_profiler.audio import read_audio
from moe_profiler.corpus import scan_corpus
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler
from moe_profiler.pipeline import align_samples, batch_forward, predict_records, record_sample

from .conftest import tiny_config

CONFIGS = {
    "conv_bi": dict(),
    "fbank_bi_masked": dict(feature_kind="fbank"),
    "mfcc_single": dict(feature_kind="mfcc", mode="single_encoder"),
}
FIELDS = ("age_z", "height_z", "gender_p")


@pytest.fixture(scope="module")
def records16(corpus16):
    return scan_corpus(corpus16)


@pytest.fixture(scope="module")
def waves16(records16):
    return [read_audio(r.utterance_path) for r in records16]


def prepare(net, records, waves):
    return [record_sample(net, r, w) for r, w in zip(records, waves)]


def per_utterance(net, samples):
    """Each sample forwarded alone, so no frame is tiled: the batch-of-one reference."""
    outs = [batch_forward(net, [s]) for s in samples]
    return {f: np.array([float(getattr(o, f).data[0]) for o in outs]) for f in FIELDS}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_masked_batch_equals_per_utterance(records16, waves16, name):
    net = SpeakerProfiler(tiny_config(**CONFIGS[name]))
    samples16 = prepare(net, records16, waves16)
    assert len({s.n_samples for s in samples16}) > 1
    batched = batch_forward(net, samples16)
    want = per_utterance(net, samples16)
    for f in FIELDS:
        np.testing.assert_allclose(getattr(batched, f).data, want[f], rtol=1e-5, atol=1e-6, err_msg=f)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_predict_records_batches_and_equals_per_utterance(records16, waves16, name, monkeypatch):
    net = SpeakerProfiler(tiny_config(**CONFIGS[name]))
    norm = NormStats.fit(records16)
    batches = []

    def recording_forward(net, samples, **kwargs):
        batches.append([s.n_samples for s in samples])
        return batch_forward(net, samples, **kwargs)

    monkeypatch.setattr(pipeline, "batch_forward", recording_forward)
    ages, heights, genders = predict_records(net, norm, records16)
    monkeypatch.undo()

    assert len(batches) < len(records16)
    assert sum(len(b) for b in batches) == len(records16)
    for b in batches:
        assert len(b) == 1 or len(b) * max(b) <= pipeline.EVAL_BATCH_SAMPLES  # tiled to the longest
    assert all(b == sorted(b) for b in batches)
    assert [b[-1] for b in batches] == sorted(b[-1] for b in batches)
    want = per_utterance(net, prepare(net, records16, waves16))
    np.testing.assert_allclose(ages, norm.de_age(want["age_z"]), rtol=1e-5)
    np.testing.assert_allclose(heights, norm.de_height(want["height_z"]), rtol=1e-5)
    np.testing.assert_allclose(genders, want["gender_p"], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("kind", ["conv", "fbank"])
def test_tiled_samples_do_not_reach_the_shorter_prediction(records16, waves16, kind, rng):
    net = SpeakerProfiler(tiny_config(feature_kind=kind))
    pair = sorted(prepare(net, records16[:2], waves16[:2]), key=lambda s: s.n_samples)
    aligned, orig_lens = align_samples(pair)
    assert orig_lens[0] < orig_lens[1]
    before = batch_forward(net, pair)

    # the shorter item arrives as long as the longer one, its n_samples still
    # its own audio length, with noise where tiling would have put a copy
    # (audio samples for conv, feature frames for fbank)
    short = aligned[0].inputs.copy()
    real = len(pair[0].inputs)
    short[real:] = rng.uniform(-0.5, 0.5, short[real:].shape)
    after = batch_forward(net, [dataclasses.replace(pair[0], inputs=short), pair[1]])
    for f in FIELDS:
        assert getattr(after, f).data[0] == getattr(before, f).data[0], f


def test_predict_records_reads_one_window_at_a_time(records16, waves16, monkeypatch):
    net = SpeakerProfiler(tiny_config())
    norm = NormStats.fit(records16)
    samples16 = prepare(net, records16, waves16)
    lengths = [s.n_samples for s in samples16]
    monkeypatch.setattr(pipeline, "EVAL_WINDOW_SAMPLES", 3 * max(lengths))
    read = []
    forwards_after = []

    def waves():
        for r in records16:
            read.append(r)
            yield read_audio(r.utterance_path)

    def recording_forward(net, samples, **kwargs):
        forwards_after.append(len(read))
        return batch_forward(net, samples, **kwargs)

    monkeypatch.setattr(pipeline, "batch_forward", recording_forward)
    ages, heights, genders = predict_records(net, norm, records16, waves())
    monkeypatch.undo()

    # the first window closes at the first record that brings it to the budget
    first = next(k for k in range(1, len(lengths) + 1) if sum(lengths[:k]) >= 3 * max(lengths))
    assert forwards_after[0] == first < len(records16)
    assert forwards_after[-1] == len(records16)
    want = per_utterance(net, samples16)
    np.testing.assert_allclose(ages, norm.de_age(want["age_z"]), rtol=1e-5)
    np.testing.assert_allclose(heights, norm.de_height(want["height_z"]), rtol=1e-5)
    np.testing.assert_allclose(genders, want["gender_p"], rtol=1e-5, atol=1e-6)
