import math

import numpy as np
import pytest

from moe_profiler.errors import ContractError
from moe_profiler.losses import (
    LabeledSample,
    bce_loss,
    length_align,
    mixup,
    mse_loss,
    task_losses,
    uncertainty_loss,
)
from moe_profiler.metrics import NormStats
from moe_profiler.model import ModelOutput
from moe_profiler.tensor import Tensor

from .helpers import numeric_grads, rel_err


NORM = NormStats(age_mean=40.0, age_std=10.0, height_mean=170.0, height_std=8.0)


def output(age_z, height_z, gender_p):
    return ModelOutput(
        age_z=Tensor(np.asarray(age_z, dtype=np.float64)),
        height_z=Tensor(np.asarray(height_z, dtype=np.float64)),
        gender_p=Tensor(np.asarray(gender_p, dtype=np.float64)),
    )


class TestTaskLosses:
    def test_perfect_predictions(self):
        # age 50 -> z=1, height 178 -> z=1; gender prob 0.5 against target 0.5
        pred = output([1.0], [1.0], [0.5])
        l_h, l_a, l_g = task_losses(pred, [178.0], [50.0], [0.5], NORM)
        assert float(l_h.data) == 0.0
        assert float(l_a.data) == 0.0
        assert abs(float(l_g.data) - math.log(2.0)) < 1e-12

    def test_unit_error_gives_unit_mse(self):
        pred = output([2.0], [0.0], [0.5])
        _, l_a, _ = task_losses(pred, [170.0], [50.0], [0.5], NORM)
        assert abs(float(l_a.data) - 1.0) < 1e-12

    def test_fractional_target_minimized_at_target(self):
        target = 0.3
        at_target = float(bce_loss(Tensor(np.array([target])), [target]).data)
        for p in (0.1, 0.25, 0.45, 0.7, 0.9):
            assert float(bce_loss(Tensor(np.array([p])), [target]).data) > at_target

    def test_extreme_probs_stay_finite(self):
        l = bce_loss(Tensor(np.array([0.0, 1.0])), [1.0, 0.0])
        assert np.isfinite(float(l.data))


class TestUncertaintyLoss:
    def scalars(self, *vals):
        return [Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for v in vals]

    def test_zero_s_half_sum(self):
        l_h, l_a, l_g = self.scalars(2.0, 4.0, 6.0)
        s = self.scalars(0.0, 0.0, 0.0)
        assert abs(float(uncertainty_loss(l_h, l_a, l_g, *s).data) - 6.0) < 1e-12

    def test_hand_example_ln4(self):
        # exp(-ln4)*2/2 + 4/2 + 6/2 + ln(4)/2 = 0.25 + 2 + 3 + ln2
        l_h, l_a, l_g = self.scalars(2.0, 4.0, 6.0)
        s = self.scalars(math.log(4.0), 0.0, 0.0)
        expect = 0.25 + 2.0 + 3.0 + math.log(2.0)
        got = float(uncertainty_loss(l_h, l_a, l_g, *s).data)
        assert abs(got - expect) < 1e-4
        assert abs(got - 5.9431) < 1e-3

    def test_exchangeable_across_tasks(self, rng):
        losses = rng.uniform(0.1, 5.0, 3)
        svals = rng.normal(size=3)
        base = None
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            ls = self.scalars(*losses[list(perm)])
            ss = self.scalars(*svals[list(perm)])
            v = float(uncertainty_loss(*ls, *ss).data)
            base = v if base is None else base
            assert abs(v - base) < 1e-12

    def test_s_gradient_closed_form(self, rng):
        # dL/ds_t = -exp(-s_t) L_t / 2 + 1/2, zero at s_t = ln(L_t)
        for _ in range(5):
            lvals = rng.uniform(0.2, 4.0, 3)
            svals = rng.normal(size=3)
            ls = self.scalars(*lvals)
            ss = self.scalars(*svals)
            total = uncertainty_loss(*ls, *ss)
            total.backward()
            for s, sv, lv in zip(ss, svals, lvals):
                expect = -math.exp(-sv) * lv / 2.0 + 0.5
                assert rel_err(float(s.grad), expect) < 1e-6

    def test_s_gradient_matches_finite_differences(self, rng):
        lvals = rng.uniform(0.2, 4.0, 3)
        ss = self.scalars(*rng.normal(size=3))

        def build():
            ls = self.scalars(*lvals)
            return uncertainty_loss(*ls, *ss)

        build().backward()
        analytic = [float(s.grad) for s in ss]

        def f():
            return float(build().data)

        for s, a in zip(ss, analytic):
            (num,) = numeric_grads(f, [s.data])
            assert rel_err(a, float(num)) < 1e-6

    def test_minimum_at_log_loss(self):
        lval = 2.5
        best = math.log(lval)
        ls = self.scalars(lval, 1.0, 1.0)

        def value(sv):
            ss = self.scalars(sv, 0.0, 0.0)
            return float(uncertainty_loss(*ls, *ss).data)

        at_best = value(best)
        for dv in (-0.5, -0.1, 0.1, 0.5):
            assert value(best + dv) > at_best


class TestAlignment:
    def test_tiling_3_to_7(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.arange(7.0)
        ta, tb = length_align(a, b)
        assert np.array_equal(ta, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0])
        assert np.array_equal(tb, b)

    def test_equal_lengths_unchanged(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        ta, tb = length_align(a, b)
        assert np.array_equal(ta, a) and np.array_equal(tb, b)

    def test_self_alignment_identity(self, rng):
        a = rng.normal(size=9)
        ta, tb = length_align(a, a)
        assert np.array_equal(ta, a) and np.array_equal(tb, a)

    def test_frames_tile_as_whole_rows_in_order(self):
        a = np.arange(6.0).reshape(3, 2)
        b = np.zeros((7, 2))
        ta, tb = length_align(a, b)
        assert ta.shape == (7, 2)
        assert np.array_equal(ta, a[[0, 1, 2, 0, 1, 2, 0]])
        assert np.array_equal(tb, b)


def sample(wave, h, a, g):
    return LabeledSample(np.asarray(wave, dtype=np.float64), h, a, g)


class TestMixup:
    def test_lambda_one_returns_first(self, rng):
        si = sample(rng.normal(size=6), 170.0, 30.0, 0.0)
        sj = sample(rng.normal(size=6), 160.0, 50.0, 1.0)
        m = mixup(si, sj, 1.0)
        assert np.array_equal(m.inputs, si.inputs)
        assert (m.height_cm, m.age_years, m.gender) == (170.0, 30.0, 0.0)

    def test_midpoint_arithmetic(self, rng):
        si = sample(rng.normal(size=4), 170.0, 30.0, 0.0)
        sj = sample(rng.normal(size=4), 160.0, 50.0, 1.0)
        m = mixup(si, sj, 0.5)
        assert m.height_cm == 165.0
        assert m.age_years == 40.0
        assert m.gender == 0.5

    def test_waveform_combination(self, rng):
        wi, wj = rng.normal(size=5), rng.normal(size=5)
        m = mixup(sample(wi, 170, 30, 0), sample(wj, 160, 50, 1), 0.25)
        assert np.allclose(m.inputs, 0.25 * wi + 0.75 * wj)

    def test_symmetry(self, rng):
        for _ in range(50):
            ni, nj = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            si = sample(rng.normal(size=ni), 172.0, 28.0, 0.0)
            sj = sample(rng.normal(size=nj), 158.0, 61.0, 1.0)
            lam = float(rng.random())
            a = mixup(si, sj, lam)
            b = mixup(sj, si, 1.0 - lam)
            assert np.allclose(a.inputs, b.inputs)
            assert abs(a.height_cm - b.height_cm) < 1e-9
            assert abs(a.age_years - b.age_years) < 1e-9
            assert abs(a.gender - b.gender) < 1e-9

    def test_labels_stay_in_pair_range(self, rng):
        for _ in range(100):
            hi, hj = rng.uniform(150, 200, 2)
            ai, aj = rng.uniform(21, 76, 2)
            gi, gj = 0.0, 1.0
            m = mixup(sample(rng.normal(size=4), hi, ai, gi), sample(rng.normal(size=4), hj, aj, gj), float(rng.random()))
            assert min(hi, hj) - 1e-9 <= m.height_cm <= max(hi, hj) + 1e-9
            assert min(ai, aj) - 1e-9 <= m.age_years <= max(ai, aj) + 1e-9
            assert 0.0 <= m.gender <= 1.0

    def test_float32_sources_mix_as_their_float64_copies(self, rng):
        # prepared conv audio is float32; a mix is formed in float64 whatever lam's type
        for lam in (0.3, np.float64(0.3), float(rng.random()), rng.random(1)[0]):
            wi, wj = (rng.integers(-32768, 32768, size=n) / 32768.0 for n in (7, 11))
            s32 = [LabeledSample(w.astype(np.float32), 170.0, 30.0, 0.0) for w in (wi, wj)]
            s64 = [LabeledSample(w, 170.0, 30.0, 0.0) for w in (wi, wj)]
            got, want = mixup(*s32, lam), mixup(*s64, lam)
            assert got.inputs.dtype == want.inputs.dtype == np.float64
            assert got.inputs.tobytes() == want.inputs.tobytes()

    def test_bad_lambda_rejected(self, rng):
        si = sample(rng.normal(size=4), 170, 30, 0)
        with pytest.raises(ContractError):
            mixup(si, si, 1.5)


def test_mse_loss_value(rng):
    pred = Tensor(np.array([2.0, 4.0]))
    assert abs(float(mse_loss(pred, [0.0, 0.0]).data) - 10.0) < 1e-6
