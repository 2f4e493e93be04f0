"""Multi-task losses and mixup augmentation.

Height and age use mean squared error on z-scored targets; gender uses
binary cross-entropy with soft targets (mixup produces fractional labels).
The three losses are combined by the homoscedastic-uncertainty rule with
learned log-variances: total = sum_t exp(-s_t) * L_t / 2 + sum_t s_t / 2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from . import tensor as T
from .tensor import Tensor

BCE_EPS = 1e-7


@dataclass
class LabeledSample:
    """One item: the model's input plus (possibly mixed) labels.

    inputs is raw audio (N,) for the conv frontend or feature frames (T, D);
    n_samples is the audio's length in samples, len(inputs) when omitted.
    """

    inputs: np.ndarray
    height_cm: float
    age_years: float
    gender: float  # 0 = male, 1 = female, fractional after mixup
    n_samples: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.gender <= 1.0:
            raise ContractError(f"gender must lie in [0, 1], got {self.gender}")
        if self.n_samples is None:
            self.n_samples = len(self.inputs)


def length_align(x_i, x_j):
    """Tile the shorter input end to end along its first axis to the longer one's length; both returned."""
    n = max(len(x_i), len(x_j))
    return np.resize(x_i, (n,) + x_i.shape[1:]), np.resize(x_j, (n,) + x_j.shape[1:])


def mixup(sample_i: LabeledSample, sample_j: LabeledSample, lam: float) -> LabeledSample:
    """Convex combination of two samples: lam * i + (1 - lam) * j.

    Inputs are length-aligned by tiling and mixed in float64, whatever
    their dtype and lam's type; every label uses the same lam.
    """
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"mixup lambda must lie in [0, 1], got {lam}")
    wi, wj = (w.astype(np.float64, copy=False) for w in length_align(sample_i.inputs, sample_j.inputs))
    return LabeledSample(
        inputs=lam * wi + (1.0 - lam) * wj,
        height_cm=lam * sample_i.height_cm + (1.0 - lam) * sample_j.height_cm,
        age_years=lam * sample_i.age_years + (1.0 - lam) * sample_j.age_years,
        gender=lam * sample_i.gender + (1.0 - lam) * sample_j.gender,
        n_samples=max(sample_i.n_samples, sample_j.n_samples),
    )


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=pred.data.dtype)
    diff = T.sub(pred, Tensor(target))
    return T.mean_(T.mul(diff, diff))


def bce_loss(p: Tensor, target) -> Tensor:
    """Binary cross-entropy with soft targets; p clamped to avoid infinities."""
    t = np.asarray(target, dtype=p.data.dtype)
    pc = T.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    ll = T.add(T.mul(Tensor(t), T.log(pc)), T.mul(Tensor(1.0 - t), T.log(T.sub(1.0, pc))))
    return T.neg(T.mean_(ll))


def task_losses(pred, heights_cm, ages_years, genders, norm) -> tuple:
    """(L_height, L_age, L_gender) scalar tensors for a batch of targets.

    Regression targets are z-scored with the training-split stats in norm.
    """
    hz = norm.z_height(np.asarray(heights_cm, dtype=np.float64))
    az = norm.z_age(np.asarray(ages_years, dtype=np.float64))
    l_height = mse_loss(pred.height_z, hz)
    l_age = mse_loss(pred.age_z, az)
    l_gender = bce_loss(pred.gender_p, genders)
    return l_height, l_age, l_gender


def uncertainty_loss(l_height, l_age, l_gender, s_height, s_age, s_gender) -> Tensor:
    """Homoscedastic-uncertainty total with log-variance parameters s_t.

    Exchangeable across the three (loss, s) pairs; for fixed losses the
    minimum over s_t sits at s_t = ln(L_t).
    """
    total = None
    for l, s in ((l_height, s_height), (l_age, s_age), (l_gender, s_gender)):
        term = T.add(T.mul(T.mul(T.exp(T.neg(s)), l), 0.5), T.mul(s, 0.5))
        total = term if total is None else T.add(total, term)
    return total
