import dataclasses
import shutil

import numpy as np
import pytest

from moe_profiler import evaluation, pipeline, training
from moe_profiler import tensor as T
from moe_profiler.audio import read_audio, write_wav
from moe_profiler.checkpoint import load_checkpoint, restore_model
from moe_profiler.corpus import scan_corpus, split_train_val
from moe_profiler.errors import ConfigError, DataError, FormatError, LengthError, NumericError
from moe_profiler.evaluation import evaluate
from moe_profiler.losses import mixup, task_losses, uncertainty_loss
from moe_profiler.metrics import NormStats
from moe_profiler.model import ModelOutput, SpeakerProfiler
from moe_profiler.optim import Adam
from moe_profiler.pipeline import align_samples, batch_forward, featurize, predict_records, record_sample
from moe_profiler.tensor import Tensor
from moe_profiler.training import batch_loss, train

from .conftest import tiny_config


def test_lr_zero_leaves_params_unchanged(corpus4_records):
    cfg = tiny_config(lr=0.0, max_epochs=2)
    result = train(cfg, corpus4_records)
    fresh = SpeakerProfiler(cfg)
    for name, p in fresh.parameters().items():
        assert np.array_equal(result.tensors[name], p.data), name


def test_same_seed_identical_logs_and_params(corpus4_records):
    cfg = tiny_config(max_epochs=4)
    a = train(cfg, corpus4_records)
    b = train(cfg, corpus4_records)
    assert a.log_rows == b.log_rows
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_train_returns_the_checkpoint_it_saves(corpus16, tmp_path):
    cfg = tiny_config(max_epochs=3, val_fraction=0.3)
    result = train(cfg, scan_corpus(corpus16), tmp_path)
    ck = load_checkpoint(tmp_path / "checkpoint.bemx")
    assert (ck.cfg, ck.norm, ck.best_epoch) == (result.cfg, result.norm, result.best_epoch)
    assert sorted(ck.tensors) == sorted(result.tensors)
    for name, arr in result.tensors.items():
        assert ck.tensors[name].dtype == arr.dtype and ck.tensors[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("kind", ["conv", "fbank", "mfcc"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_record_sample_inputs_are_in_the_model_dtype(corpus4_records, kind, dtype):
    net = SpeakerProfiler(tiny_config(feature_kind=kind), dtype=dtype)
    for record in corpus4_records:
        wave = read_audio(record.utterance_path)
        sample = record_sample(net, record, wave)
        assert sample.inputs.dtype == net.dtype
        if kind == "conv":
            # 16-bit PCM scaled by 1/32768 is exact in float32
            assert np.array_equal(sample.inputs, wave.samples)


def test_loss_decreases_on_overfit(corpus4_records):
    cfg = tiny_config(max_epochs=25)
    result = train(cfg, corpus4_records)
    rows = [r for r in result.log_rows if r.split == "train"]
    assert rows[-1].l_total < rows[0].l_total


def test_z_score_roundtrip(corpus4_records):
    norm = NormStats.fit(corpus4_records)
    ages = np.array([r.age_years for r in corpus4_records], dtype=np.float64)
    heights = np.array([r.height_cm for r in corpus4_records], dtype=np.float64)
    assert np.abs(norm.de_age(norm.z_age(ages)) - ages).max() < 1e-5
    assert np.abs(norm.de_height(norm.z_height(heights)) - heights).max() < 1e-5


def test_single_gender_rejected(corpus4_records):
    males = [r for r in corpus4_records if r.gender == 0]
    with pytest.raises(DataError, match="gender"):
        train(tiny_config(), males)


def test_best_checkpoint_tracks_monitored_loss(corpus4_records):
    cfg = tiny_config(max_epochs=10)
    result = train(cfg, corpus4_records)
    monitored = [r for r in result.log_rows if r.split == "train"]  # no val on 4 records
    best = min(monitored, key=lambda r: r.l_total)
    assert result.best_epoch == best.epoch


def test_logged_total_is_the_uncertainty_loss_of_its_own_columns(corpus16):
    # in one of these rows the same formula summed in another order lands one ulp off,
    # so the exact comparison tells uncertainty_loss from a restatement of it
    result = train(tiny_config(max_epochs=6, batch_size=8, seed=0, lr=1e-2, patience=20), scan_corpus(corpus16))
    assert len(result.log_rows) == 12 and {r.split for r in result.log_rows} == {"train", "val"}
    for r in result.log_rows:
        columns = (r.l_height, r.l_age, r.l_gender, r.s_height, r.s_age, r.s_gender)
        assert r.l_total == float(uncertainty_loss(*(Tensor(np.float64(v)) for v in columns)).data), r


@pytest.mark.parametrize("kind", ["fbank", "mfcc"])
def test_classic_feature_kinds_train(corpus4_records, kind):
    # also covers the mixup restriction: mixup_enabled has no waveform-level
    # effect outside the conv pipeline
    cfg = tiny_config(feature_kind=kind, mixup_enabled=True, max_epochs=2, lr=1e-4)
    result = train(cfg, corpus4_records)
    assert result.best_epoch >= 1
    rows = [r for r in result.log_rows if r.split == "train"]
    assert all(np.isfinite(r.l_total) for r in rows)


@pytest.mark.parametrize("kind,mixes", [("conv", True), ("fbank", False)])
def test_training_line_says_whether_the_run_mixes(corpus4_records, kind, mixes, caplog):
    caplog.set_level("INFO", logger="moe_profiler.training")
    train(tiny_config(feature_kind=kind, mixup_enabled=True, max_epochs=1), corpus4_records)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("training:")]
    assert line.endswith(f"mixup={mixes}")


def test_val_split_used_when_enough_records(corpus16, caplog):
    records = scan_corpus(corpus16)
    cfg = tiny_config(max_epochs=2, batch_size=8)
    result = train(cfg, records)
    splits = {r.split for r in result.log_rows}
    assert splits == {"train", "val"}
    assert result.val_report is not None


def test_alignment_masking_excludes_padded_frames_from_pooling(corpus4_records):
    # batch_forward hides the padded frames from attention keys and from
    # pooling: against an unmasked forward of the same padded batch, the shorter
    # item's prediction changes and the longest item (no padded frames) is
    # bitwise unaffected
    net = SpeakerProfiler(tiny_config())
    samples = [record_sample(net, r, read_audio(r.utterance_path)) for r in corpus4_records[:2]]
    assert samples[0].n_samples != samples[1].n_samples
    shorter = 0 if samples[0].n_samples < samples[1].n_samples else 1
    inputs, _ = align_samples(samples, net.dtype)

    masked = batch_forward(net, samples)
    unmasked = net.forward(inputs)
    assert float(masked.age_z.data[shorter]) != float(unmasked.age_z.data[shorter])
    longest = 1 - shorter
    for field in ("age_z", "height_z", "gender_p"):
        assert getattr(masked, field).data[longest] == getattr(unmasked, field).data[longest], field


@pytest.mark.parametrize("kind", ["fbank", "conv_mixed"])
def test_training_batch_item_equals_its_batch_of_one(corpus16, kind):
    # training forwards (training=True, dropout 0) mask the padded frames as
    # inference does; a mixed item is real up to the longer of its sources
    records = scan_corpus(corpus16)[:8]
    net = SpeakerProfiler(tiny_config(feature_kind=kind.split("_")[0]))
    batch = [record_sample(net, r, read_audio(r.utterance_path)) for r in records]
    if kind == "conv_mixed":
        rng = np.random.default_rng(3)
        perm, lams = rng.permutation(len(batch)), rng.random(len(batch))
        batch = [mixup(s, batch[j], lam) for s, j, lam in zip(batch, perm, lams)]
    assert len({s.n_samples for s in batch}) > 1
    out = batch_forward(net, batch, training=True)
    assert out.age_z.requires_grad
    for i, sample in enumerate(batch):
        one = batch_forward(net, [sample], training=True)
        for field in ("age_z", "height_z", "gender_p"):
            np.testing.assert_allclose(
                getattr(out, field).data[i], getattr(one, field).data[0], rtol=1e-5, atol=1e-6, err_msg=field
            )


@pytest.mark.parametrize("kind", ["conv", "fbank"])
def test_padding_content_does_not_reach_training_gradients(corpus16, kind, rng):
    # a training batch at dropout 0.2 through a fresh net each time: noise in
    # the shorter items' padding instead of zeros leaves every parameter
    # gradient bitwise unchanged
    records = scan_corpus(corpus16)[:4]
    norm = NormStats.fit(records)
    cfg = tiny_config(feature_kind=kind, dropout_p=0.2)
    batch = [record_sample(SpeakerProfiler(cfg), r, read_audio(r.utterance_path)) for r in records]
    rows = max(len(s.inputs) for s in batch)
    assert any(len(s.inputs) < rows for s in batch)
    noisy = [
        dataclasses.replace(
            s,
            inputs=np.concatenate([s.inputs, rng.uniform(-0.5, 0.5, (rows - len(s.inputs),) + s.inputs.shape[1:])]),
        )
        for s in batch
    ]

    def gradients(samples):
        net = SpeakerProfiler(cfg)
        batch_loss(net, norm, samples)[1].backward()
        return {name: p.grad for name, p in net.parameters().items()}

    padded, noised = gradients(batch), gradients(noisy)
    for name, grad in padded.items():
        assert grad is not None and grad.tobytes() == noised[name].tobytes(), name


@pytest.mark.parametrize("kind", ["conv", "fbank"])
def test_keeping_every_intermediate_tensor_leaves_training_gradients_bitwise(corpus16, kind, monkeypatch):
    # the tape holds what its vjps read, not the tensors the caller made: a
    # batch (mixup on conv, dropout 0.1) through a fresh net each time gives
    # the same gradients whether every op's output tensor is kept or dropped
    records = scan_corpus(corpus16)[:8]
    norm = NormStats.fit(records)
    cfg = tiny_config(feature_kind=kind, dropout_p=0.1)
    batch = [record_sample(SpeakerProfiler(cfg), r, read_audio(r.utterance_path)) for r in records]
    if kind == "conv":
        mix = np.random.default_rng(3)
        perm, lams = mix.permutation(len(batch)), mix.random(len(batch))
        batch = [mixup(s, batch[j], lam) for s, j, lam in zip(batch, perm, lams)]

    def gradients():
        net = SpeakerProfiler(cfg)
        batch_loss(net, norm, batch)[1].backward()
        return {name: p.grad for name, p in net.parameters().items()}

    dropped = gradients()
    kept, make = [], T._make

    def keeping_make(data, parents, vjp):
        kept.append(make(data, parents, vjp))
        return kept[-1]

    monkeypatch.setattr(T, "_make", keeping_make)
    held = gradients()
    assert len(kept) > 100
    for name, grad in dropped.items():
        assert grad is not None and grad.tobytes() == held[name].tobytes(), name


def test_val_fraction_sets_val_split_size(corpus16):
    records = scan_corpus(corpus16)
    n_train = sum(r.split == "train" for r in records)
    result = train(tiny_config(max_epochs=1, batch_size=8, val_fraction=0.3), records)
    assert result.val_report.n_male + result.val_report.n_female == int(0.3 * n_train)


@pytest.mark.parametrize("fraction", [1.0, -0.1])
def test_val_fraction_outside_unit_interval_rejected(fraction):
    with pytest.raises(ConfigError, match="val_fraction"):
        tiny_config(val_fraction=fraction)


@pytest.mark.parametrize(
    "key,value",
    [("model_dim", 0), ("model_dim", 1), ("num_heads", 0), ("ff_dim", 0), ("expert_dim", 0), ("head_hidden", 0),
     ("num_layers", -1), ("conv_channels", 1), ("max_epochs", 0), ("max_epochs", -3)],
)
def test_impossible_model_shape_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        tiny_config(**{key: value})


@pytest.mark.parametrize(
    "key,value",
    [("seed", -1), ("lr", np.inf), ("lr", np.nan), ("lr", -np.inf), ("patience", 0), ("patience", -5), ("batch_size", 0)],
)
def test_impossible_run_value_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        tiny_config(**{key: value})


def test_smallest_model_shape_runs(corpus4_records):
    cfg = tiny_config(model_dim=2, num_heads=1, ff_dim=1, expert_dim=1, head_hidden=1, num_layers=0, conv_channels=2)
    net = SpeakerProfiler(cfg)
    samples = [record_sample(net, r, read_audio(r.utterance_path)) for r in corpus4_records[:2]]
    assert np.all(np.isfinite(batch_forward(net, samples).age_z.data))


def _val_records(records, cfg):
    return split_train_val(records, cfg.seed, cfg.val_fraction)[1]


def test_val_row_is_eval_mode_unmixed_unsalted(corpus16):
    # the logged val losses are the task losses of predict_records' eval-mode
    # predictions for the parameters the epoch ended on: no mixup, no dropout,
    # no dependence on a shuffle or on which records share a batch
    records = scan_corpus(corpus16)
    cfg = tiny_config(max_epochs=1, batch_size=2, mixup_enabled=True, dropout_p=0.3, val_fraction=0.3, seed=4)
    result = train(cfg, records)
    val_row = next(r for r in result.log_rows if r.split == "val")

    val_recs = _val_records(records, cfg)
    ages, heights, genders = predict_records(restore_model(result), result.norm, val_recs)
    pred = ModelOutput(
        age_z=Tensor(result.norm.z_age(ages)), height_z=Tensor(result.norm.z_height(heights)), gender_p=Tensor(genders)
    )
    losses = task_losses(
        pred, [r.height_cm for r in val_recs], [r.age_years for r in val_recs], [r.gender for r in val_recs],
        result.norm,
    )
    assert (val_row.l_height, val_row.l_age, val_row.l_gender) == tuple(float(loss.data) for loss in losses)


def test_val_report_is_best_epoch_evaluate_from_one_pass_per_epoch(corpus16, monkeypatch):
    # an early-stopped run whose best epoch is not its last: the report must
    # come from the best epoch's predictions, and the val split is predicted
    # once per epoch with no closing re-forward
    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(module.__name__)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(training, "predict_samples")
    counted(evaluation, "predict_records")
    records = scan_corpus(corpus16)
    cfg = tiny_config(max_epochs=6, patience=1, val_fraction=0.3)
    result = train(cfg, records)
    val_rows = [r for r in result.log_rows if r.split == "val"]
    assert result.best_epoch < val_rows[-1].epoch < cfg.max_epochs
    assert result.best_epoch == min(val_rows, key=lambda r: r.l_total).epoch
    assert calls == ["moe_profiler.training"] * len(val_rows)

    monkeypatch.undo()
    want = evaluate(restore_model(result), result.norm, _val_records(records, cfg))
    assert dataclasses.astuple(result.val_report) == dataclasses.astuple(want)


def test_non_finite_val_loss_raises(corpus16, monkeypatch):
    def nan_predictions(net, norm, samples):
        return tuple(np.full(len(samples), np.nan) for _ in range(3))

    monkeypatch.setattr(training, "predict_samples", nan_predictions)
    with pytest.raises(NumericError, match="non-finite validation loss at epoch 1"):
        train(tiny_config(max_epochs=2, val_fraction=0.3), scan_corpus(corpus16))


def test_8khz_val_file_rejected_before_first_step(corpus16, tmp_path, monkeypatch):
    copy = tmp_path / "corpus"
    shutil.copytree(corpus16, copy)
    cfg = tiny_config(max_epochs=1, val_fraction=0.3)
    slow = _val_records(scan_corpus(copy), cfg)[-1].utterance_path
    write_wav(slow, read_audio(slow).samples, 8000)
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
    with pytest.raises(FormatError, match="8000") as info:
        train(cfg, scan_corpus(copy))
    assert str(slow) in str(info.value)
    assert steps == []


def test_fbank_batch_forward_keeps_float64_model_precision(corpus4_records):
    # each utterance is featurized from its own audio and padded as frames to
    # the longest, with the padded frames masked, so the batch equals a masked
    # forward of frames tiled instead; the frames reach a float64 model unrounded
    net = SpeakerProfiler(tiny_config(feature_kind="fbank"), dtype=np.float64)
    waves = [read_audio(r.utterance_path) for r in corpus4_records[:2]]
    assert len(waves[0]) != len(waves[1])
    samples = [record_sample(net, r, w) for r, w in zip(corpus4_records[:2], waves)]
    frames = [featurize("fbank", w) for w in waves]
    longest = max(len(f) for f in frames)
    feats = np.stack([np.resize(f, (longest,) + f.shape[1:]) for f in frames])
    mask = np.stack([np.arange(longest) < len(f) for f in frames]).astype(np.float64)
    assert feats.dtype == np.float64
    got = batch_forward(net, samples)
    want = net.forward_features(feats, frame_mask=mask)
    for field in ("age_z", "height_z", "gender_p"):
        assert getattr(got, field).data.dtype == np.float64
        assert np.array_equal(getattr(got, field).data, getattr(want, field).data), field


@pytest.mark.parametrize("epochs", [1, 3])
def test_fbank_featurizes_each_record_once_per_run(corpus16, epochs, monkeypatch):
    records = scan_corpus(corpus16)
    cfg = tiny_config(feature_kind="fbank", max_epochs=epochs, val_fraction=0.3)
    featurized = []
    inner = pipeline.featurize

    def counted(kind, wave):
        featurized.append(len(wave))
        return inner(kind, wave)

    monkeypatch.setattr(pipeline, "featurize", counted)
    result = train(cfg, records)
    assert len(result.log_rows) == 2 * epochs
    train_recs, val_recs = split_train_val(records, cfg.seed, cfg.val_fraction)
    assert val_recs
    assert sorted(featurized) == sorted(len(read_audio(r.utterance_path)) for r in train_recs + val_recs)


def test_fbank_stores_frames_in_the_model_dtype(corpus4_records):
    record = corpus4_records[0]
    wave = read_audio(record.utterance_path)
    sample = record_sample(SpeakerProfiler(tiny_config(feature_kind="fbank")), record, wave)
    assert sample.inputs.dtype == np.float32
    assert np.array_equal(sample.inputs, featurize("fbank", wave).astype(np.float32))
    assert sample.n_samples == len(wave)


def test_too_short_file_named_before_first_step(corpus16, tmp_path, monkeypatch):
    copy = tmp_path / "corpus"
    shutil.copytree(corpus16, copy)
    cfg = tiny_config(feature_kind="fbank", max_epochs=1)
    short = sorted((copy / "TRAIN").rglob("*.WAV"))[-1]
    write_wav(short, read_audio(short).samples[:500], 16000)
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
    with pytest.raises(LengthError, match="cmvn needs at least 2 frames") as info:
        train(cfg, scan_corpus(copy))
    assert str(short) in str(info.value)
    assert steps == []


@pytest.mark.parametrize("mixup_enabled", [False, True])
def test_too_short_conv_file_named_before_first_step(corpus16, tmp_path, monkeypatch, mixup_enabled):
    # a waveform under the frontend's 400-sample receptive field fails record
    # preparation, as a too-short fbank file does; mixup, which pads a short
    # source to its partner's length, never sees it
    copy = tmp_path / "corpus"
    shutil.copytree(corpus16, copy)
    cfg = tiny_config(max_epochs=1, mixup_enabled=mixup_enabled)
    short = sorted((copy / "TRAIN").rglob("*.WAV"))[-1]
    write_wav(short, read_audio(short).samples[:300], 16000)
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
    with pytest.raises(LengthError, match="receptive field") as info:
        train(cfg, scan_corpus(copy))
    assert str(short) in str(info.value)
    assert steps == []
