import dataclasses
import shutil

import numpy as np
import pytest

from moe_profiler import audio, evaluation, pipeline
from moe_profiler.audio import read_audio
from moe_profiler.checkpoint import restore_model
from moe_profiler.corpus import scan_corpus
from moe_profiler.errors import ContractError, FormatError
from moe_profiler.evaluation import constant_mean_report, evaluate, phoneme_importance
from moe_profiler.metrics import ImportanceTable, build_report, mae, pct_change, record_labels, rmse
from moe_profiler.pipeline import predict_records, predict_samples, record_sample
from moe_profiler.phones import TABLE_ORDER, PhoneClass, mask_phone_class, parse_phn
from moe_profiler.training import train

from .conftest import tiny_config


class TestMetrics:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert abs(rmse([2.0, 4.0], [0.0, 0.0]) - np.sqrt(10.0)) < 1e-12
        assert mae([2.0, 4.0], [0.0, 0.0]) == 3.0

    def test_rmse_at_least_mae(self, rng):
        for _ in range(50):
            p = rng.normal(size=9)
            t = rng.normal(size=9)
            assert rmse(p, t) >= mae(p, t) - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            rmse([], [])

    def test_constant_mean_predictor_rmse_is_std(self, rng):
        targets = rng.uniform(21, 76, size=40)
        preds = np.full(40, targets.mean())
        assert abs(rmse(preds, targets) - targets.std()) < 1e-6


class TestReport:
    def synth_predictions(self, rng, n=20):
        genders = np.array([i % 2 for i in range(n)])
        ages = rng.uniform(21, 76, n)
        heights = rng.uniform(150, 200, n)
        return (ages + rng.normal(size=n), heights + rng.normal(size=n), rng.random(n)), (ages, heights, genders)

    def test_pooled_between_per_gender(self, rng):
        rep = build_report(*self.synth_predictions(rng))
        lo, hi = sorted((rep.age_rmse_male, rep.age_rmse_female))
        assert lo - 1e-9 <= rep.age_rmse_all <= hi + 1e-9
        assert rep.age_rmse_male >= rep.age_mae_male
        assert rep.age_rmse_female >= rep.age_mae_female

    def test_perfect_oracle_zeroes(self, rng):
        _, (at, ht, gt) = self.synth_predictions(rng)
        rep = build_report((at, ht, gt.astype(float)), (at, ht, gt))
        assert rep.age_rmse_male == rep.age_rmse_female == 0.0
        assert rep.height_mae_male == rep.height_mae_female == 0.0
        assert rep.gender_accuracy == 1.0

    def test_csv_shape(self, rng):
        rep = build_report(*self.synth_predictions(rng))
        lines = rep.to_csv().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("height_rmse_male,height_rmse_female")
        assert len(lines[0].split(",")) == len(lines[1].split(","))


def test_csv_header_is_the_report_float_fields_in_order():
    rep = build_report(([30.0, 40.0], [170.0, 160.0], [0.2, 0.9]), ([31.0, 42.0], [172.0, 158.0], [0, 1]))
    assert rep.to_csv().split("\n")[0] == (
        "height_rmse_male,height_rmse_female,height_mae_male,height_mae_female,"
        "age_rmse_male,age_rmse_female,age_mae_male,age_mae_female,"
        "age_rmse_all,age_mae_all,height_rmse_all,height_mae_all,gender_accuracy"
    )


def test_report_text_is_byte_pinned_with_an_absent_gender():
    # no female record, so every female cell is NaN
    preds = ([30.0, 52.5, 41.0], [170.0, 181.25, 176.0], [0.2, 0.4, 0.7])
    rep = build_report(preds, ([33.0, 50.0, 40.0], [172.0, 180.0, 170.0], [0, 0, 0]))
    assert rep.to_text() == (
        "records: 3 male / 0 female\n"
        "               Height RMSE  Height MAE    Age RMSE     Age MAE\n"
        "male                  3.72        3.08        2.33        2.17\n"
        "female                 nan         nan         nan         nan\n"
        "all                   3.72        3.08        2.33        2.17\n"
        "gender accuracy: 0.6667\n"
    )


def test_importance_text_is_byte_pinned():
    rep = build_report(([30.0, 40.0], [170.0, 160.0], [0.2, 0.9]), ([31.0, 42.0], [172.0, 158.0], [0, 1]))
    cells = [(-12.5, 0.0, 150.25, -0.004), (250.0, -99.999, 3.14159, 100.0)]
    cells += [(float(i), -10.5 * i, 1000.0 + i, -0.5) for i in range(2, 6)] + [(np.inf, 0.0, -np.inf, 1e4)]
    table = ImportanceTable(base=rep, rows=dict(zip(TABLE_ORDER, cells)))
    assert table.to_text() == (
        "Mask           Height RMSE M Height RMSE F  Age RMSE M  Age RMSE F\n"
        "Vowels               -12.50%         0.00%     150.25%      -0.00%\n"
        "Nasals               250.00%      -100.00%       3.14%     100.00%\n"
        "Semivowels             2.00%       -21.00%    1002.00%      -0.50%\n"
        "Affricates             3.00%       -31.50%    1003.00%      -0.50%\n"
        "Fricatives             4.00%       -42.00%    1004.00%      -0.50%\n"
        "Stops                  5.00%       -52.50%    1005.00%      -0.50%\n"
        "Others                  inf%         0.00%       -inf%   10000.00%\n"
    )


def test_pct_change_identity_and_sign():
    assert pct_change(5.0, 5.0) == 0.0
    assert pct_change(6.0, 5.0) == pytest.approx(20.0)
    assert pct_change(4.0, 5.0) == pytest.approx(-20.0)


@pytest.fixture(scope="module")
def trained16(corpus16_records_module):
    cfg = tiny_config(max_epochs=8, batch_size=8, seed=5)
    result = train(cfg, corpus16_records_module)
    return restore_model(result), result


@pytest.fixture(scope="module")
def corpus16_records_module(tmp_path_factory):
    from moe_profiler.synth import synth_corpus

    root = tmp_path_factory.mktemp("synth16eval")
    synth_corpus(root, seed=5, n_speakers=16, utt_per_speaker=1)
    return scan_corpus(root)


class TestEvaluate:
    def test_report_fields_finite(self, trained16, corpus16_records_module):
        net, result = trained16
        test_recs = [r for r in corpus16_records_module if r.split == "test"]
        rep = evaluate(net, result.norm, test_recs)
        for f in ("age_rmse_male", "age_rmse_female", "height_rmse_male", "height_rmse_female"):
            assert np.isfinite(getattr(rep, f))
        assert 0.0 <= rep.gender_accuracy <= 1.0

    def test_constant_baseline_uses_train_means(self, trained16, corpus16_records_module):
        _, result = trained16
        test_recs = [r for r in corpus16_records_module if r.split == "test"]
        rep = constant_mean_report(result.norm, test_recs)
        ages = np.array([r.age_years for r in test_recs], dtype=np.float64)
        assert rep.age_rmse_all == pytest.approx(rmse(np.full(len(ages), result.norm.age_mean), ages))

    def test_given_waves_equal_read_waves(self, trained16, corpus16_records_module):
        # phoneme_importance's base pass: predict_samples over record_sample of the waves it holds
        net, result = trained16
        recs = corpus16_records_module[:4]
        waves = [read_audio(r.utterance_path) for r in recs]
        held = predict_samples(net, result.norm, (record_sample(net, r, w) for r, w in zip(recs, waves)))
        for got, want in zip(held, predict_records(net, result.norm, recs)):
            assert np.array_equal(got, want)

    def test_8khz_waveform_raises_format_error_naming_path(self, trained16, corpus16_records_module):
        net, result = trained16
        rec = corpus16_records_module[0]
        wave = audio.Waveform(read_audio(rec.utterance_path).samples, 8000)
        with pytest.raises(FormatError, match="8000") as info:
            predict_samples(net, result.norm, [record_sample(net, rec, wave)])
        assert str(rec.utterance_path) in str(info.value)


class TestImportance:
    def test_rows_cover_table_order(self, trained16, corpus16_records_module):
        net, result = trained16
        test_recs = [r for r in corpus16_records_module if r.split == "test"]
        table = phoneme_importance(net, result.norm, test_recs)
        assert list(table.rows.keys()) == list(TABLE_ORDER)
        csv = table.to_csv().strip().split("\n")
        assert len(csv) == 8
        assert [line.split(",")[0] for line in csv[1:]] == [c.value for c in TABLE_ORDER]

    def test_reads_each_file_once(self, trained16, corpus16_records_module, monkeypatch):
        net, result = trained16
        test_recs = [r for r in corpus16_records_module if r.split == "test"]
        reads = []

        def counting_read(path):
            reads.append(str(path))
            return read_audio(path)

        for module in (audio, evaluation, pipeline):
            monkeypatch.setattr(module, "read_audio", counting_read)
        phoneme_importance(net, result.norm, test_recs)
        assert sorted(reads) == sorted(str(r.utterance_path) for r in test_recs)

    def test_absent_classes_zero_change(self, trained16, corpus16_records_module):
        net, result = trained16
        test_recs = [r for r in corpus16_records_module if r.split == "test"]
        table = phoneme_importance(net, result.norm, test_recs)
        # synthetic audio only has Vowels + Others (exact-zero silence)
        for cls in TABLE_ORDER:
            if cls is PhoneClass.VOWELS:
                continue
            assert table.rows[cls] == (0.0, 0.0, 0.0, 0.0), cls


def copied_test_records(records, tmp_path, edit):
    """Copies of the test records; edit(k, record, lines) rewrites the k-th one's .PHN lines in place."""
    test_recs = [r for r in records if r.split == "test"]
    copies = []
    for k, r in enumerate(test_recs):
        folder = tmp_path / r.speaker_id
        folder.mkdir()
        wav, phn = folder / r.utterance_path.name, folder / r.phn_path.name
        shutil.copyfile(r.utterance_path, wav)
        lines = r.phn_path.read_text().splitlines()
        edit(k, r, lines)
        phn.write_text("\n".join(lines) + "\n")
        copies.append(dataclasses.replace(r, utterance_path=wav, phn_path=phn))
    return copies


@pytest.fixture
def affricate_records(corpus16_records_module, tmp_path):
    """Copies of the test records whose second vowel is relabelled jh in the first and last only."""
    n = sum(r.split == "test" for r in corpus16_records_module)

    def relabel(k, record, lines):
        if k in (0, n - 1):
            start, end, _ = lines[3].split()
            lines[3] = f"{start} {end} jh"

    return copied_test_records(corpus16_records_module, tmp_path, relabel)


def test_segment_past_the_waveform_warns_once(trained16, corpus16_records_module, tmp_path, caplog):
    """Each class masks each record once, so an overrunning vowel segment is reported once."""
    net, result = trained16

    def overrun(k, record, lines):
        if k == 0:
            n = len(read_audio(record.utterance_path))
            lines.append(f"{n} {n + 100} iy")

    records = copied_test_records(corpus16_records_module, tmp_path, overrun)
    with caplog.at_level("WARNING", logger="moe_profiler.phones"):
        table = phoneme_importance(net, result.norm, records)
    assert table.rows[PhoneClass.VOWELS] != (0.0, 0.0, 0.0, 0.0)
    assert caplog.text.count("exceeds waveform length") == 1


def test_unknown_phone_symbol_warns_once_per_analysis(trained16, corpus16_records_module, tmp_path, caplog):
    """A segment is classified once, when its transcription is parsed, not once per masked class."""
    net, result = trained16

    def unknown(k, record, lines):
        if k == 0:
            start, end, _ = lines[3].split()
            lines[3] = f"{start} {end} zz"

    records = copied_test_records(corpus16_records_module, tmp_path, unknown)
    for calls in (1, 2):
        with caplog.at_level("WARNING", logger="moe_profiler.phones"):
            phoneme_importance(net, result.norm, records)
        assert caplog.text.count("unknown phone symbol 'zz'") == calls


class TestPartialPresence:
    def test_only_changed_records_are_re_predicted(self, trained16, affricate_records, monkeypatch, caplog):
        net, result = trained16
        forwarded = []
        batch_forward = pipeline.batch_forward

        def recording_forward(net, samples, training=False):
            forwarded.append(sorted((s.age_years, s.height_cm) for s in samples))
            return batch_forward(net, samples, training)

        monkeypatch.setattr(pipeline, "batch_forward", recording_forward)
        with caplog.at_level("INFO", logger="moe_profiler.evaluation"):
            phoneme_importance(net, result.norm, affricate_records)
        labels = sorted((float(r.age_years), r.height_cm) for r in affricate_records)
        with_jh = sorted((float(r.age_years), r.height_cm) for r in (affricate_records[0], affricate_records[-1]))
        # one group each: the unmasked audio, the Vowels pass, the Affricates pass
        assert forwarded == [labels, labels, with_jh]
        n = len(affricate_records)
        assert f"Affricates: 2 of {n} records changed" in caplog.text
        assert f"Nasals: 0 of {n} records changed" in caplog.text

    def test_affricates_row_matches_masking_every_record(self, trained16, affricate_records, monkeypatch):
        net, result = trained16
        reports = []
        build = evaluation.build_report

        def recording_build(preds, truth):
            reports.append(preds)
            return build(preds, truth)

        monkeypatch.setattr(evaluation, "build_report", recording_build)
        table = phoneme_importance(net, result.norm, affricate_records)
        # build_report runs for the base, then for each class in TABLE_ORDER
        got = reports[1 + TABLE_ORDER.index(PhoneClass.AFFRICATES)]
        waves = [read_audio(r.utterance_path) for r in affricate_records]
        masked = [mask_phone_class(w, parse_phn(r.phn_path), PhoneClass.AFFRICATES) for w, r in zip(waves, affricate_records)]
        samples = [record_sample(net, r, w) for r, w in zip(affricate_records, masked)]
        ages, heights, genders = predict_samples(net, result.norm, samples)
        np.testing.assert_allclose(got[0], ages, rtol=1e-5)
        np.testing.assert_allclose(got[1], heights, rtol=1e-5)
        np.testing.assert_allclose(got[2], genders, rtol=1e-5, atol=1e-6)
        truth = record_labels(affricate_records)
        ref = build((ages, heights, genders), truth)
        fields = ("height_rmse_male", "height_rmse_female", "age_rmse_male", "age_rmse_female")
        have = build(got, truth)
        np.testing.assert_allclose([getattr(have, f) for f in fields], [getattr(ref, f) for f in fields], rtol=1e-5)
        # an RMSE within rtol 1e-5 moves its percentage change by about 1e-3 points at most
        want = [pct_change(getattr(ref, f), getattr(table.base, f)) for f in fields]
        assert all(w != 0.0 for w in want)
        np.testing.assert_allclose(table.rows[PhoneClass.AFFRICATES], want, rtol=0, atol=1e-3)
        for cls in (PhoneClass.NASALS, PhoneClass.SEMIVOWELS, PhoneClass.FRICATIVES, PhoneClass.STOPS, PhoneClass.OTHERS):
            assert table.rows[cls] == (0.0, 0.0, 0.0, 0.0), cls
