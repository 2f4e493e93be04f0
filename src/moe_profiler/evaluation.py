"""Evaluation: per-gender reports, constant baselines, phone-masking analysis."""

import logging

import numpy as np

from .audio import read_audio
from .errors import DataError, FormatError
from .metrics import EvalReport, ImportanceTable, build_report, pct_change
from .phones import TABLE_ORDER, mask_phone_class, parse_phn
from .pipeline import predict_records, record_labels

log = logging.getLogger("moe_profiler.evaluation")


def evaluate(net, norm, records, waves=None) -> EvalReport:
    """Forward all records through the network and build a per-gender report.

    waves optionally gives one Waveform per record (see predict_records).
    Regression metrics are de-normalized (years / cm) and grouped by the true
    gender label; gating always uses the predicted gender. Gender accuracy
    thresholds the prediction at 0.5.
    """
    if not records:
        raise DataError("no records to evaluate")
    return _report(predict_records(net, norm, records, waves), record_labels(records))


def constant_mean_report(norm, records) -> EvalReport:
    """Baseline report for the predictor that always outputs the training means."""
    ages_t, heights_t, genders_t = record_labels(records)
    ages_p = np.full(len(records), norm.age_mean)
    heights_p = np.full(len(records), norm.height_mean)
    genders_p = np.full(len(records), 0.5)
    return build_report(ages_p, ages_t, heights_p, heights_t, genders_p, genders_t)


def phoneme_importance(net, norm, records) -> ImportanceTable:
    """Percentage RMSE change per masked phone class, against unmasked audio.

    Records without a readable transcription are excluded with a warning.
    The unmasked audio is predicted once; its report is the table's base, the
    report evaluate gives. mask_phone_class returns its input when a class's
    mask changes no sample, and such a record takes its base prediction, so a
    class is re-predicted only on the records whose audio its mask changes.
    Inference is deterministic, so where every record or none changes, the
    rows are those of predicting every masked record; where only some change,
    they are predicted in other length groups and agree within float32
    rounding (see predict_samples).
    """
    usable = []
    transcriptions = []
    for r in records:
        try:
            transcriptions.append(parse_phn(r.phn_path))
            usable.append(r)
        except (OSError, FormatError) as exc:
            log.warning("%s: unusable transcription (%s); excluded", r.utterance_path, exc)
    if not usable:
        raise DataError("no records with transcriptions to analyze")

    waves = [read_audio(r.utterance_path) for r in usable]
    truth = record_labels(usable)
    base_preds = predict_records(net, norm, usable, waves)
    base = _report(base_preds, truth)
    rows = {}
    for cls in TABLE_ORDER:
        changed = [i for i, (w, t) in enumerate(zip(waves, transcriptions)) if mask_phone_class(w, t, cls) is not w]
        log.info(
            "%s: %d of %d records changed, base predictions reused for %d",
            cls.value, len(changed), len(usable), len(usable) - len(changed),
        )
        preds = tuple(p.copy() for p in base_preds)
        if changed:
            # masked again as a generator: predict_records holds one window of masked copies at a time
            masked_waves = (mask_phone_class(waves[i], transcriptions[i], cls) for i in changed)
            for full, part in zip(preds, predict_records(net, norm, [usable[i] for i in changed], masked_waves)):
                full[changed] = part
        masked = _report(preds, truth)
        rows[cls] = (
            pct_change(masked.height_rmse_male, base.height_rmse_male),
            pct_change(masked.height_rmse_female, base.height_rmse_female),
            pct_change(masked.age_rmse_male, base.age_rmse_male),
            pct_change(masked.age_rmse_female, base.age_rmse_female),
        )
    return ImportanceTable(base=base, rows=rows)


def _report(preds, truth) -> EvalReport:
    """build_report from predict_records' (ages, heights, genders) and record_labels' arrays."""
    (ages_p, heights_p, genders_p), (ages_t, heights_t, genders_t) = preds, truth
    return build_report(ages_p, ages_t, heights_p, heights_t, genders_p, genders_t)
