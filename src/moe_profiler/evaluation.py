"""Evaluation: per-gender reports, constant baselines, phone-masking analysis."""

import logging

import numpy as np

from .audio import read_audio
from .errors import DataError, FormatError
from .metrics import EvalReport, ImportanceTable, build_report, pct_change, record_labels
from .phones import TABLE_ORDER, mask_phone_class, parse_phn
from .pipeline import predict_records, predict_samples, record_sample

log = logging.getLogger("moe_profiler.evaluation")


def evaluate(net, norm, records) -> EvalReport:
    """Forward all records through the network and build a per-gender report.

    Regression metrics are de-normalized (years / cm) and grouped by the true
    gender label; gating always uses the predicted gender. Gender accuracy
    thresholds the prediction at 0.5.
    """
    if not records:
        raise DataError("no records to evaluate")
    return build_report(predict_records(net, norm, records), record_labels(records))


def constant_mean_report(norm, records) -> EvalReport:
    """Baseline report for the predictor that always outputs the training means."""
    n = len(records)
    preds = (np.full(n, norm.age_mean), np.full(n, norm.height_mean), np.full(n, 0.5))
    return build_report(preds, record_labels(records))


def phoneme_importance(net, norm, records) -> ImportanceTable:
    """Percentage RMSE change per masked phone class, against unmasked audio.

    Records without a readable transcription are excluded with a warning.
    Each usable record's audio is read once and held for every pass. The
    unmasked audio is predicted once; its report is the table's base, the
    report evaluate gives. Each class masks each record once.
    mask_phone_class returns its input when a class's mask changes no sample,
    and such a record takes its base prediction, so a class is re-predicted
    only on the records whose audio its mask changes.
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
    base_preds = predict_samples(net, norm, (record_sample(net, r, w) for r, w in zip(usable, waves)))
    base = build_report(base_preds, truth)
    rows = {}
    for cls in TABLE_ORDER:
        changed = []
        # a generator: predict_samples holds one window of masked copies at a time
        part = predict_samples(net, norm, _changed_samples(net, usable, waves, transcriptions, cls, changed))
        log.info(
            "%s: %d of %d records changed, base predictions reused for %d",
            cls.value, len(changed), len(usable), len(usable) - len(changed),
        )
        preds = tuple(p.copy() for p in base_preds)
        for full, got in zip(preds, part):
            full[changed] = got
        masked = build_report(preds, truth)
        rows[cls] = tuple(pct_change(getattr(masked, name), getattr(base, name)) for name in ImportanceTable.FIELDS)
    return ImportanceTable(base=base, rows=rows)


def _changed_samples(net, records, waves, transcriptions, cls, changed):
    """Yield the sample of each record whose cls mask changes its audio, appending its index to changed."""
    for i, (record, wave, transcription) in enumerate(zip(records, waves, transcriptions)):
        masked = mask_phone_class(wave, transcription, cls)
        if masked is not wave:
            changed.append(i)
            yield record_sample(net, record, masked)
