"""Error metrics, target normalization stats and evaluation report types."""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DataError
from .phones import TABLE_ORDER


def _errors(preds, targets, metric) -> np.ndarray:
    """preds - targets in float64; metric names the caller in the error for unequal or empty arrays."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.size == 0 or preds.shape != targets.shape:
        raise ContractError(f"{metric} needs equal non-empty arrays, got {preds.shape} vs {targets.shape}")
    return preds - targets


def rmse(preds, targets) -> float:
    """Root mean squared error in natural units."""
    return float(np.sqrt(np.mean(_errors(preds, targets, "rmse") ** 2)))


def mae(preds, targets) -> float:
    """Mean absolute error in natural units."""
    return float(np.mean(np.abs(_errors(preds, targets, "mae"))))


def record_labels(records):
    """(ages, heights, genders) label arrays in record order, as predict_samples returns predictions."""
    ages = np.array([r.age_years for r in records], dtype=np.float64)
    heights = np.array([r.height_cm for r in records], dtype=np.float64)
    genders = np.array([r.gender for r in records], dtype=np.int64)
    return ages, heights, genders


@dataclass
class NormStats:
    """Training-split mean/std of age and height, used for z-scoring targets."""

    age_mean: float
    age_std: float
    height_mean: float
    height_std: float

    @classmethod
    def fit(cls, records):
        ages, heights, _ = record_labels(records)
        if ages.size == 0:
            raise DataError("cannot fit normalization stats on an empty training split")
        age_std = float(ages.std())
        height_std = float(heights.std())
        if age_std <= 0 or height_std <= 0:
            raise DataError("degenerate training labels: zero variance in age or height")
        return cls(float(ages.mean()), age_std, float(heights.mean()), height_std)

    def z_age(self, years):
        return (np.asarray(years, dtype=np.float64) - self.age_mean) / self.age_std

    def z_height(self, cm):
        return (np.asarray(cm, dtype=np.float64) - self.height_mean) / self.height_std

    def de_age(self, z):
        return np.asarray(z, dtype=np.float64) * self.age_std + self.age_mean

    def de_height(self, z):
        return np.asarray(z, dtype=np.float64) * self.height_std + self.height_mean


# an EvalReport's error cells, one (task, metric) pair per printed table column
# in table order; each pair names the fields f"{task}_{metric.__name__}_{group}"
# for the groups male, female and all
ERROR_COLUMNS = (("height", rmse), ("height", mae), ("age", rmse), ("age", mae))


@dataclass
class EvalReport:
    """Per-gender (by true label) and pooled RMSE/MAE plus gender accuracy."""

    height_rmse_male: float
    height_rmse_female: float
    height_mae_male: float
    height_mae_female: float
    age_rmse_male: float
    age_rmse_female: float
    age_mae_male: float
    age_mae_female: float
    age_rmse_all: float
    age_mae_all: float
    height_rmse_all: float
    height_mae_all: float
    gender_accuracy: float
    n_male: int = 0
    n_female: int = 0

    def to_csv(self) -> str:
        header = ",".join(_REPORT_FIELDS)
        row = ",".join(format(getattr(self, f), ".10g") for f in _REPORT_FIELDS)
        return header + "\n" + row + "\n"

    def to_text(self) -> str:
        labels = (f"{task.capitalize()} {metric.__name__.upper()}" for task, metric in ERROR_COLUMNS)
        lines = [f"records: {self.n_male} male / {self.n_female} female"]
        lines.append(f"{'':14s}" + "".join(f"{label:>12s}" for label in labels))
        for group in ("male", "female", "all"):
            cells = (getattr(self, f"{task}_{metric.__name__}_{group}") for task, metric in ERROR_COLUMNS)
            lines.append(f"{group:14s}" + "".join(f"{c:12.2f}" for c in cells))
        lines.append(f"gender accuracy: {self.gender_accuracy:.4f}")
        return "\n".join(lines) + "\n"


# the CSV columns: every float field of EvalReport, in declaration order
_REPORT_FIELDS = tuple(f.name for f in fields(EvalReport) if f.type is float)


def build_report(preds, truth) -> EvalReport:
    """EvalReport of predict_samples' (ages, heights, genders) against record_labels', grouped by true gender."""
    ages_pred, heights_pred, genders_pred = (np.asarray(p, dtype=np.float64) for p in preds)
    ages_true, heights_true = (np.asarray(t, dtype=np.float64) for t in truth[:2])
    genders_true = np.asarray(truth[2])
    pairs = {"age": (ages_pred, ages_true), "height": (heights_pred, heights_true)}
    male = genders_true == 0
    female = genders_true == 1
    cells = {}
    for task, metric in ERROR_COLUMNS:
        p, t = pairs[task]
        cells[f"{task}_{metric.__name__}_all"] = metric(p, t)
        for group, mask in (("male", male), ("female", female)):
            # a gender can be absent in tiny validation splits; its cells are NaN
            cells[f"{task}_{metric.__name__}_{group}"] = metric(p[mask], t[mask]) if mask.any() else math.nan

    correct = ((genders_pred >= 0.5).astype(int) == genders_true.astype(int)).mean()
    return EvalReport(**cells, gender_accuracy=float(correct), n_male=int(male.sum()), n_female=int(female.sum()))


def pct_change(masked: float, base: float) -> float:
    """100 * (masked - base) / base; 0 when both sides are identical."""
    if masked == base:
        return 0.0
    if base == 0.0:
        return math.inf
    return 100.0 * (masked - base) / base


@dataclass
class ImportanceTable:
    """Percentage RMSE change per masked phone class, one row per class."""

    # a row's columns, in order: the EvalReport field whose percentage change
    # it holds, with that column's printed label and width
    FIELDS = {
        "height_rmse_male": ("Height RMSE M", 14),
        "height_rmse_female": ("Height RMSE F", 14),
        "age_rmse_male": ("Age RMSE M", 12),
        "age_rmse_female": ("Age RMSE F", 12),
    }
    base: EvalReport
    rows: dict  # PhoneClass -> one percentage per FIELDS entry

    def to_csv(self) -> str:
        out = ["mask," + ",".join(f"{name}_pct" for name in self.FIELDS)]
        for cls in TABLE_ORDER:
            cells = self.rows[cls]
            out.append(cls.value + "," + ",".join(format(c, ".10g") for c in cells))
        return "\n".join(out) + "\n"

    def to_text(self) -> str:
        columns = self.FIELDS.values()
        lines = [f"{'Mask':14s}" + "".join(f"{label:>{width}s}" for label, width in columns)]
        for cls in TABLE_ORDER:
            cells = zip(self.rows[cls], columns)
            lines.append(f"{cls.value:14s}" + "".join(f"{c:{width - 1}.2f}%" for c, (_, width) in cells))
        return "\n".join(lines) + "\n"
