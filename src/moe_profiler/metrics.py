"""Error metrics, target normalization stats and evaluation report types."""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DataError
from .phones import TABLE_ORDER


def rmse(preds, targets) -> float:
    """Root mean squared error in natural units."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.size == 0 or preds.shape != targets.shape:
        raise ContractError(f"rmse needs equal non-empty arrays, got {preds.shape} vs {targets.shape}")
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


def mae(preds, targets) -> float:
    """Mean absolute error in natural units."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.size == 0 or preds.shape != targets.shape:
        raise ContractError(f"mae needs equal non-empty arrays, got {preds.shape} vs {targets.shape}")
    return float(np.mean(np.abs(preds - targets)))


@dataclass
class NormStats:
    """Training-split mean/std of age and height, used for z-scoring targets."""

    age_mean: float
    age_std: float
    height_mean: float
    height_std: float

    @classmethod
    def fit(cls, records):
        ages = np.array([r.age_years for r in records], dtype=np.float64)
        heights = np.array([r.height_cm for r in records], dtype=np.float64)
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
        lines = [
            f"records: {self.n_male} male / {self.n_female} female",
            f"{'':14s}{'Height RMSE':>12s}{'Height MAE':>12s}{'Age RMSE':>12s}{'Age MAE':>12s}",
            f"{'male':14s}{self.height_rmse_male:12.2f}{self.height_mae_male:12.2f}"
            f"{self.age_rmse_male:12.2f}{self.age_mae_male:12.2f}",
            f"{'female':14s}{self.height_rmse_female:12.2f}{self.height_mae_female:12.2f}"
            f"{self.age_rmse_female:12.2f}{self.age_mae_female:12.2f}",
            f"{'all':14s}{self.height_rmse_all:12.2f}{self.height_mae_all:12.2f}"
            f"{self.age_rmse_all:12.2f}{self.age_mae_all:12.2f}",
            f"gender accuracy: {self.gender_accuracy:.4f}",
        ]
        return "\n".join(lines) + "\n"


# the CSV columns: every float field of EvalReport, in declaration order
_REPORT_FIELDS = tuple(f.name for f in fields(EvalReport) if f.type is float)


def build_report(preds, truth) -> EvalReport:
    """EvalReport of predict_samples' (ages, heights, genders) against record_labels', grouped by true gender."""
    ages_pred, heights_pred, genders_pred = (np.asarray(p, dtype=np.float64) for p in preds)
    ages_true, heights_true = (np.asarray(t, dtype=np.float64) for t in truth[:2])
    genders_true = np.asarray(truth[2])
    male = genders_true == 0
    female = genders_true == 1

    def cell(metric, preds, targets, group):
        # a gender can be absent in tiny validation splits; its cells are NaN
        return metric(preds[group], targets[group]) if group.any() else math.nan

    correct = ((genders_pred >= 0.5).astype(int) == genders_true.astype(int)).mean()
    return EvalReport(
        height_rmse_male=cell(rmse, heights_pred, heights_true, male),
        height_rmse_female=cell(rmse, heights_pred, heights_true, female),
        height_mae_male=cell(mae, heights_pred, heights_true, male),
        height_mae_female=cell(mae, heights_pred, heights_true, female),
        age_rmse_male=cell(rmse, ages_pred, ages_true, male),
        age_rmse_female=cell(rmse, ages_pred, ages_true, female),
        age_mae_male=cell(mae, ages_pred, ages_true, male),
        age_mae_female=cell(mae, ages_pred, ages_true, female),
        age_rmse_all=rmse(ages_pred, ages_true),
        age_mae_all=mae(ages_pred, ages_true),
        height_rmse_all=rmse(heights_pred, heights_true),
        height_mae_all=mae(heights_pred, heights_true),
        gender_accuracy=float(correct),
        n_male=int(male.sum()),
        n_female=int(female.sum()),
    )


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

    base: EvalReport
    rows: dict  # PhoneClass -> (height_rmse_male, height_rmse_female, age_rmse_male, age_rmse_female)

    def to_csv(self) -> str:
        out = ["mask,height_rmse_male_pct,height_rmse_female_pct,age_rmse_male_pct,age_rmse_female_pct"]
        for cls in TABLE_ORDER:
            cells = self.rows[cls]
            out.append(cls.value + "," + ",".join(format(c, ".10g") for c in cells))
        return "\n".join(out) + "\n"

    def to_text(self) -> str:
        lines = [f"{'Mask':14s}{'Height RMSE M':>14s}{'Height RMSE F':>14s}{'Age RMSE M':>12s}{'Age RMSE F':>12s}"]
        for cls in TABLE_ORDER:
            h_m, h_f, a_m, a_f = self.rows[cls]
            lines.append(f"{cls.value:14s}{h_m:13.2f}%{h_f:13.2f}%{a_m:11.2f}%{a_f:11.2f}%")
        return "\n".join(lines) + "\n"
