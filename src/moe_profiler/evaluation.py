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
    ages_t, heights_t, genders_t = record_labels(records)
    ages_p, heights_p, genders_p = predict_records(net, norm, records, waves)
    return build_report(ages_p, ages_t, heights_p, heights_t, genders_p, genders_t)


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
    base = evaluate(net, norm, usable, waves)
    rows = {}
    for cls in TABLE_ORDER:
        # a generator: predict_records masks one window of records at a time
        masked_waves = (mask_phone_class(w, t, cls) for w, t in zip(waves, transcriptions))
        masked = evaluate(net, norm, usable, masked_waves)
        rows[cls] = (
            pct_change(masked.height_rmse_male, base.height_rmse_male),
            pct_change(masked.height_rmse_female, base.height_rmse_female),
            pct_change(masked.age_rmse_male, base.age_rmse_male),
            pct_change(masked.age_rmse_female, base.age_rmse_female),
        )
    return ImportanceTable(base=base, rows=rows)
