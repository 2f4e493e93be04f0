"""Batching: length-sorted training pools, and batched eval where a prediction must not depend on its batch-mates."""

import dataclasses

import numpy as np
import pytest

from moe_profiler import dsp, pipeline
from moe_profiler.audio import read_audio
from moe_profiler.corpus import scan_corpus
from moe_profiler.errors import DataError
from moe_profiler.losses import LabeledSample
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler
from moe_profiler.pipeline import POOL_BATCHES, align_samples, batch_forward, pooled_batches, predict_records, record_sample

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

    def counting_read(path):
        read.append(path)
        return read_audio(path)

    def recording_forward(net, samples, **kwargs):
        forwards_after.append(len(read))
        return batch_forward(net, samples, **kwargs)

    monkeypatch.setattr(pipeline, "read_audio", counting_read)
    monkeypatch.setattr(pipeline, "batch_forward", recording_forward)
    ages, heights, genders = predict_records(net, norm, records16)
    monkeypatch.undo()

    # the first window closes at the first record that brings it to the budget
    first = next(k for k in range(1, len(lengths) + 1) if sum(lengths[:k]) >= 3 * max(lengths))
    assert forwards_after[0] == first < len(records16)
    assert forwards_after[-1] == len(records16)
    want = per_utterance(net, samples16)
    np.testing.assert_allclose(ages, norm.de_age(want["age_z"]), rtol=1e-5)
    np.testing.assert_allclose(heights, norm.de_height(want["height_z"]), rtol=1e-5)
    np.testing.assert_allclose(genders, want["gender_p"], rtol=1e-5, atol=1e-6)


def fake_samples(lengths):
    """One sample per audio length; height_cm holds its index."""
    return [LabeledSample(np.zeros(1), float(i), 30.0, float(i % 2), n_samples=int(n)) for i, n in enumerate(lengths)]


def ids(batches):
    return [[int(s.height_cm) for s in b] for b in batches]


def spread_lengths(n, seed=0):
    return np.random.default_rng(seed).integers(7000, 15000, size=n)


class TestBatches:
    def test_sizes_4_4_2(self):
        sizes = [len(b) for b in pooled_batches(fake_samples(spread_lengths(10)), 4, seed=0, epoch=1)]
        assert sizes == [4, 4, 2]

    def test_epoch_salting_changes_order(self):
        samples = fake_samples(spread_lengths(16))
        o1 = ids(pooled_batches(samples, 4, 0, epoch=1))
        o2 = ids(pooled_batches(samples, 4, 0, epoch=2))
        assert o1 != o2
        assert sorted(sum(o1, [])) == sorted(sum(o2, []))

    def test_same_epoch_reproducible(self):
        samples = fake_samples(spread_lengths(16))
        assert ids(pooled_batches(samples, 4, 0, epoch=3)) == ids(pooled_batches(samples, 4, 0, epoch=3))

    @pytest.mark.parametrize("n", [1, 15, 37, 64, 82])
    def test_every_sample_once_per_epoch(self, n):
        samples = fake_samples(spread_lengths(n))
        for epoch in range(1, 4):
            assert sorted(sum(ids(pooled_batches(samples, 4, 5, epoch)), [])) == list(range(n))

    @pytest.mark.parametrize("n, remainder", [(37, 1), (46, 2), (48, 0)])
    def test_full_batches_then_the_remainder_last(self, n, remainder):
        samples = fake_samples(spread_lengths(n))
        for epoch in range(1, 6):
            sizes = [len(b) for b in pooled_batches(samples, 4, 2, epoch)]
            want = [4] * (n // 4) + ([remainder] if remainder else [])
            assert sizes == want

    def test_pools_are_cut_in_length_order(self):
        # few distinct lengths, so ties must keep their shuffled order
        lengths = np.random.default_rng(1).choice([8000, 9000, 12000, 14000], size=46)
        samples = fake_samples(lengths)
        batch_size = 4
        pool = POOL_BATCHES * batch_size
        for epoch in range(1, 4):
            order = np.random.default_rng([7, epoch]).permutation(len(samples)).tolist()
            cuts = []
            for start in range(0, len(order), pool):
                ranked = sorted(order[start : start + pool], key=lambda i: lengths[i])
                cuts += [ranked[k : k + batch_size] for k in range(0, len(ranked), batch_size)]
            got = ids(pooled_batches(samples, batch_size, 7, epoch))
            assert sorted(got[:-1]) == sorted(cuts[:-1])  # the full batches, in a shuffled order
            assert got[-1] == cuts[-1]
            assert got[:-1] != cuts[:-1]

    def test_batches_depend_on_seed_and_epoch_alone(self):
        samples = fake_samples(spread_lengths(82))
        first = ids(pooled_batches(samples, 16, 11, epoch=4))
        assert ids(pooled_batches(list(samples), 16, 11, epoch=4)) == first  # a fresh call, as after a resume
        assert ids(pooled_batches(samples, 16, 11, epoch=5)) != first
        assert ids(pooled_batches(samples, 16, 12, epoch=4)) != first

    def test_pools_tile_less_audio_than_the_shuffled_order(self):
        lengths = spread_lengths(82, seed=3)
        samples = fake_samples(lengths)
        for epoch in range(1, 6):
            order = np.random.default_rng([11, epoch]).permutation(len(samples))
            shuffled = [order[k : k + 16] for k in range(0, len(order), 16)]
            pooled = pooled_batches(samples, 16, 11, epoch)
            assert sum(max(s.n_samples for s in b) * len(b) for b in pooled) < sum(
                lengths[b].max() * len(b) for b in shuffled
            )

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(DataError):
            next(pooled_batches(fake_samples([8000]), 0, 0, 1))


@pytest.mark.parametrize("kind", ["fbank", "mfcc"])
def test_featurize_returns_a_plain_array(corpus4_records, kind):
    wave = read_audio(corpus4_records[0].utterance_path)
    feats = pipeline.featurize(kind, wave)
    assert type(feats) is np.ndarray
    assert feats.shape == (dsp.num_frames(len(wave), wave.sample_rate), dsp.FEATURE_DIMS[kind])
