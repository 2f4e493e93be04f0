import resource
import threading
import zlib

import numpy as np
import pytest
from scipy.special import erf

from moe_profiler import tensor as T
from moe_profiler.audio import read_audio
from moe_profiler.corpus import scan_corpus
from moe_profiler.errors import ContractError, NumericError, ShapeError
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler
from moe_profiler.pipeline import batch_forward, predict_samples, record_sample
from moe_profiler.tensor import Tensor

from .conftest import tiny_config
from .helpers import check_op_grads


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        # [[1,2],[3,4]] @ [[5,6],[7,8]] worked out by hand
        c = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(c.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        z = Tensor(np.zeros((3, 4)))
        b = Tensor(np.arange(20.0).reshape(4, 5))
        assert np.all(T.matmul(z, b).data == 0.0)

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestSoftmax:
    def test_uniform_row(self):
        s = T.softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(s.data, 0.25)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x + 3.7)).data
        assert np.allclose(a, b, atol=1e-7)

    def test_log_123(self):
        s = T.softmax_rows(Tensor([[np.log(1.0), np.log(2.0), np.log(3.0)]]))
        assert np.allclose(s.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-7)

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(scale=5.0, size=(20, 13))
        s = T.softmax_rows(Tensor(x)).data
        assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-6
        assert (s >= 0).all()

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_rows(Tensor([[np.nan, 0.0]]))
        x = np.zeros((2, 3, 5), dtype=np.float32)
        x[1, 2, 4] = np.nan
        with pytest.raises(NumericError):
            T.softmax_rows(Tensor(x))

    def test_nan_rejected_under_scale_and_bias(self):
        x = np.zeros((1, 2, 3), dtype=np.float32)
        x[0, 1, 2] = np.nan
        bias = np.array([0.0, 0.0, -np.inf], dtype=np.float32)  # NaN + -inf is still NaN
        with pytest.raises(NumericError):
            T.softmax_rows(Tensor(x), 0.5, bias)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scale_and_bias_bitwise_the_mul_add_composition(self, rng, dtype):
        # the fold must equal attention's former nodes, mul by the scale then
        # add the key bias, forward and backward, masked keys included
        scale = 1.0 / np.sqrt(8)  # the quick-start heads have dk = 8
        x = rng.normal(scale=3.0, size=(3, 2, 6, 6)).astype(dtype)
        bias = np.zeros((3, 1, 1, 6), dtype=dtype)
        bias[0, ..., 5] = bias[2, ..., 1:3] = -np.inf
        w = rng.normal(size=x.shape).astype(dtype)
        grads, outs = [], []
        for fused in (True, False):
            xt = Tensor(x.copy(), requires_grad=True)
            if fused:
                s = T.softmax_rows(xt, scale, bias)
            else:
                s = T.softmax_rows(T.add(T.mul(xt, scale), Tensor(bias)))
            T.sum_(T.mul(s, Tensor(w))).backward()
            outs.append(s.data)
            grads.append(xt.grad)
        assert outs[0].dtype == grads[0].dtype == dtype
        assert outs[0].tobytes() == outs[1].tobytes()
        assert grads[0].tobytes() == grads[1].tobytes()
        assert np.all(outs[0][0, ..., 5] == 0.0) and np.all(grads[0][0, ..., 5] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_the_max_subtracted_formula(self, rng, dtype):
        x = rng.normal(scale=4.0, size=(3, 2, 7, 7)).astype(dtype)
        x[0, 1, 2, 5] = -np.inf  # a masked key
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        got = T.softmax_rows(Tensor(x)).data
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert got[0, 1, 2, 5] == 0.0


class TestLayerNorm:
    def unit_affine(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_frame_is_zero(self):
        g, b = self.unit_affine(5)
        out = T.layer_norm(Tensor(np.full((3, 5), 2.5)), g, b)
        assert np.allclose(out.data, 0.0)

    def test_two_point_frame(self):
        g, b = self.unit_affine(2)
        out = T.layer_norm(Tensor([[1.0, 3.0]]), g, b)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_mean_equals_bias_mean(self, rng):
        x = rng.normal(size=(6, 8))
        bias = rng.normal(size=8)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(bias))
        assert np.allclose(out.data.mean(axis=-1), bias.mean(), atol=1e-6)

    def test_unit_variance_pre_affine(self, rng):
        x = rng.normal(scale=3.0, size=(10, 16))
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def same_bytes(a, b):
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def layer_norm_reference(x, gain, bias, g):
    """The whole-array layer_norm formula: forward, then dx, dgain, dbias for upstream g."""
    avg = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=x.dtype)
    xc = x - x @ avg
    inv = 1.0 / np.sqrt((xc * xc) @ avg + T.LN_EPS)
    xhat = xc * inv
    dxh = g * gain
    dx = inv * (dxh - dxh @ avg - xhat * ((dxh * xhat) @ avg))
    return xhat * gain + bias, dx, T._sum_to_shape(g * xhat, gain.shape), T._sum_to_shape(g, bias.shape)


class TestLayerNormBlocks:
    # (T, d) items per _BLOCK: one per block (rows not a multiple of 4), several
    # per block with a partial last block, one item larger than a block, and 2-D
    SHAPES = {
        "one_item_per_block": (3, 1443, 64),
        "several_items_per_block": (50, 101, 32),
        "item_larger_than_block": (2, 4201, 32),
        "two_d": (37, 12),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_matches_whole_array_formula_bitwise(self, name, dtype):
        shape = self.SHAPES[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = (rng.normal(scale=3.0, size=shape) + 1.0).astype(dtype)
        gain = rng.uniform(0.5, 1.5, size=shape[-1]).astype(dtype)
        bias = rng.normal(size=shape[-1]).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        want = layer_norm_reference(x, gain, bias, g)
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
        y = T.layer_norm(xt, gt, bt)
        T.sum_(T.mul(y, Tensor(g))).backward()
        with T.no_grad():
            y_free = T.layer_norm(Tensor(x), gt, bt)
        for got, ref in zip((y.data, y_free.data, xt.grad, gt.grad, bt.grad), (want[0],) + want):
            assert same_bytes(got, ref)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        p = t64(rng.normal(size=(3, 4)))
        T.sum_(p).backward()
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        p = t64([1.0, 2.0])
        T.sum_(T.mul(p, p)).backward()
        assert np.allclose(p.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            t64([1.0, 2.0]).backward()

    def test_repeated_backward_accumulates(self):
        p = t64([1.0, 2.0])
        loss = T.sum_(p)
        loss.backward()
        loss.backward()
        assert np.array_equal(p.grad, [2.0, 2.0])

    def test_zero_grad_resets(self):
        p = t64([1.0])
        T.sum_(p).backward()
        p.zero_grad()
        assert p.grad is None


class TestNoGrad:
    def _graph(self, p, w):
        return T.sum_(T.gelu(T.layer_norm(T.matmul(p, w), Tensor(np.ones(3)), Tensor(np.zeros(3)))))

    def test_outputs_have_no_parents_and_equal_values(self, rng):
        p, w = t64(rng.normal(size=(2, 4))), t64(rng.normal(size=(4, 3)))
        recorded = self._graph(p, w)
        with T.no_grad():
            plain = self._graph(p, w)
            hidden = T.matmul(p, w)
        for out in (plain, hidden):
            assert out._parents == () and out._vjp is None and not out.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()
        plain.backward()  # nothing recorded: a no-op
        assert p.grad is None and w.grad is None

    def test_recording_restored_after_block(self, rng):
        p = t64(rng.normal(size=3))
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.exp(p).requires_grad  # an inner block restores the outer one's state
        out = T.exp(p)
        assert out.requires_grad and out._parents == (p,)

    def test_block_covers_only_its_own_thread(self, rng):
        p = t64(rng.normal(size=3))
        seen = []
        worker = threading.Thread(target=lambda: seen.append(T.exp(p).requires_grad))
        with T.no_grad():
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [True]

    def test_recording_restored_when_block_raises(self, rng):
        p = t64(rng.normal(size=3))
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.matmul(p, p)
        T.sum_(T.exp(p)).backward()
        assert np.allclose(p.grad, np.exp(p.data))


def exact_gelu(x):
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


class TestGelu:
    def test_float32_within_2e_6_on_dense_grid(self):
        x = np.linspace(-8.0, 8.0, 400_001, dtype=np.float32)
        y = T.gelu(Tensor(x)).data
        assert y.dtype == np.float32
        assert np.abs(y - exact_gelu(x)).max() <= 2e-6

    def test_float32_exact_far_from_zero(self):
        lo = np.array([-1e4, -100.0, -8.0, -6.5, -6.0], dtype=np.float32)
        hi = -lo
        assert np.array_equal(T.gelu(Tensor(lo)).data, np.zeros(5, dtype=np.float32))
        assert np.array_equal(T.gelu(Tensor(hi)).data, hi)

    def test_float64_within_5e_7(self):
        x = np.linspace(-8.0, 8.0, 400_001)
        y = T.gelu(Tensor(x)).data
        assert y.dtype == np.float64
        assert np.abs(y - exact_gelu(x)).max() <= 5e-7

    def test_float64_vjp_matches_central_differences(self):
        x = np.linspace(-6.0, 6.0, 12_001)
        t = t64(x)
        T.sum_(T.gelu(t)).backward()
        h = 1e-6
        fd = (T.gelu(Tensor(x + h)).data - T.gelu(Tensor(x - h)).data) / (2.0 * h)
        assert np.abs(fd - t.grad).max() <= 1e-5

    def test_float32_stays_float32_through_backward(self, rng):
        x = Tensor(rng.normal(size=(3, 50, 4)).astype(np.float32), requires_grad=True)
        y = T.gelu(x)
        T.sum_(T.mul(y, y)).backward()
        assert y.data.dtype == np.float32
        assert x.grad.dtype == np.float32 and x.grad.shape == x.shape

    def test_transposed_input(self, rng):
        base = rng.normal(scale=3.0, size=(7, 5))
        x = t64(base.T)
        assert not x.data.flags.c_contiguous
        y = T.gelu(x)
        T.sum_(y).backward()
        ref = t64(np.ascontiguousarray(base.T))
        T.sum_(T.gelu(ref)).backward()
        assert y.shape == (5, 7)
        assert np.array_equal(y.data, T.gelu(ref).data)
        assert np.array_equal(x.grad, ref.grad)

    def test_no_grad_forward_equals_recorded_bitwise(self, rng):
        x = rng.normal(scale=3.0, size=(3, 2900, 32)).astype(np.float32)
        recorded = T.gelu(Tensor(x, requires_grad=True))
        assert recorded.requires_grad
        with T.no_grad():
            free = T.gelu(Tensor(x, requires_grad=True))
        assert not free.requires_grad
        assert same_bytes(free.data, recorded.data)

    def test_blocks_match_per_slice_results_bitwise(self, rng):
        n = int(2.5 * T._BLOCK) + 7
        x = (rng.normal(scale=4.0, size=n)).astype(np.float32)
        g = rng.normal(size=n).astype(np.float32)
        whole = Tensor(x, requires_grad=True)
        T.sum_(T.mul(T.gelu(whole), Tensor(g))).backward()
        # block edges, then cuts that straddle them
        for cuts in ([T._BLOCK, 2 * T._BLOCK], [1000, T._BLOCK + 3, n - 5]):
            ys, grads = [], []
            for xs, gs in zip(np.split(x, cuts), np.split(g, cuts)):
                part = Tensor(xs, requires_grad=True)
                y = T.gelu(part)
                T.sum_(T.mul(y, Tensor(gs))).backward()
                ys.append(y.data)
                grads.append(part.grad)
            assert np.array_equal(np.concatenate(ys), T.gelu(Tensor(x)).data)
            assert np.array_equal(np.concatenate(grads), whole.grad)


# gradient checks: every differentiable op against central differences
OP_CASES = {}


def op_case(name):
    def deco(fn):
        OP_CASES[name] = fn
        return fn

    return deco


@op_case("add")
def _add(rng):
    a, b = t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(3, 4)))
    return {"a": a, "b": b}, lambda: T.sum_(T.mul(T.add(a, b), T.add(a, b)))


@op_case("add_broadcast")
def _add_b(rng):
    a, b = t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(4,)))
    return {"a": a, "b": b}, lambda: T.sum_(T.mul(T.add(a, b), T.add(a, b)))


@op_case("sub")
def _sub(rng):
    a, b = t64(rng.normal(size=(2, 5))), t64(rng.normal(size=(2, 5)))
    return {"a": a, "b": b}, lambda: T.sum_(T.mul(T.sub(a, b), T.sub(a, b)))


@op_case("mul_broadcast")
def _mul(rng):
    a, b = t64(rng.normal(size=(2, 3, 4))), t64(rng.normal(size=(3, 4)))
    return {"a": a, "b": b}, lambda: T.sum_(T.mul(a, b))


@op_case("neg")
def _neg(rng):
    a = t64(rng.normal(size=(4,)))
    return {"a": a}, lambda: T.sum_(T.mul(T.neg(a), a))


@op_case("exp")
def _exp(rng):
    a = t64(rng.normal(size=(3, 4)))
    return {"a": a}, lambda: T.sum_(T.exp(a))


@op_case("log")
def _log(rng):
    a = t64(rng.uniform(0.5, 3.0, size=(3, 4)))
    return {"a": a}, lambda: T.sum_(T.log(a))


@op_case("sqrt")
def _sqrt(rng):
    a = t64(rng.uniform(0.5, 3.0, size=(3, 4)))
    return {"a": a}, lambda: T.sum_(T.sqrt(a))


@op_case("relu")
def _relu(rng):
    a = t64(rng.normal(size=(4, 4)) + 2.0)  # keep away from the kink
    return {"a": a}, lambda: T.sum_(T.mul(T.relu(a), a))


@op_case("gelu")
def _gelu(rng):
    a = t64(rng.normal(size=(4, 4)))
    return {"a": a}, lambda: T.sum_(T.gelu(a))


@op_case("sigmoid")
def _sigmoid(rng):
    a = t64(rng.normal(size=(3, 5)))
    return {"a": a}, lambda: T.sum_(T.sigmoid(a))


@op_case("clip")
def _clip(rng):
    a = t64(rng.uniform(0.2, 0.8, size=(6,)))
    return {"a": a}, lambda: T.sum_(T.mul(T.clip(a, 0.05, 0.95), a))


@op_case("sum_axis")
def _sum_axis(rng):
    a = t64(rng.normal(size=(3, 4, 2)))
    return {"a": a}, lambda: T.sum_(T.mul(T.sum_(a, axis=1), T.sum_(a, axis=1)))


@op_case("sum_weighted")
def _sum_weighted(rng):
    # pooling's shape: a constant 0/1 frame mask broadcast over the last axis
    a = t64(rng.normal(size=(2, 5, 3)))
    m = (rng.random((2, 5, 1)) < 0.7).astype(np.float64)
    return {"a": a}, lambda: T.sum_(T.mul(T.sum_(a, axis=1, weights=m), T.sum_(a, axis=1, weights=m)))


@op_case("mean_axis")
def _mean_axis(rng):
    a = t64(rng.normal(size=(3, 4)))
    return {"a": a}, lambda: T.sum_(T.mul(T.mean_(a, axis=0), T.mean_(a, axis=0)))


@op_case("reshape_transpose")
def _resh(rng):
    a = t64(rng.normal(size=(2, 3, 4)))

    def build():
        r = T.transpose(T.reshape(a, (2, 12, 1)), (1, 0, 2))
        return T.sum_(T.mul(r, r))

    return {"a": a}, build


@op_case("concat")
def _concat(rng):
    a, b = t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(2, 2)))

    def build():
        c = T.concat([a, b], axis=1)
        return T.sum_(T.mul(c, c))

    return {"a": a, "b": b}, build


@op_case("matmul")
def _matmul(rng):
    a, b = t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(4, 2)))
    return {"a": a, "b": b}, lambda: T.sum_(T.mul(T.matmul(a, b), T.matmul(a, b)))


@op_case("matmul_batched")
def _matmul_b(rng):
    a, b = t64(rng.normal(size=(2, 3, 4))), t64(rng.normal(size=(4, 5)))
    return {"a": a, "b": b}, lambda: T.sum_(T.matmul(a, b))


@op_case("softmax")
def _softmax(rng):
    a = t64(rng.normal(size=(3, 5)))
    w = rng.normal(size=(3, 5))
    bias = rng.normal(size=(3, 5))
    return {"a": a}, lambda: T.sum_(T.mul(T.softmax_rows(a, 0.7, bias), Tensor(w)))


@op_case("softmax_masked")
def _softmax_masked(rng):
    # attention's shape: one key per row masked with -inf
    a = t64(rng.normal(size=(2, 3, 4)))
    w = rng.normal(size=(2, 3, 4))
    bias = np.zeros((2, 3, 4))
    bias[np.arange(2)[:, None], np.arange(3)[None, :], rng.integers(0, 4, size=(2, 3))] = -np.inf
    return {"a": a}, lambda: T.sum_(T.mul(T.softmax_rows(a, 0.7, bias), Tensor(w)))


@op_case("layer_norm")
def _layer_norm(rng):
    x = t64(rng.normal(size=(4, 6)))
    g = t64(rng.uniform(0.5, 1.5, size=6))
    b = t64(rng.normal(size=6))
    w = rng.normal(size=(4, 6))
    return {"x": x, "g": g, "b": b}, lambda: T.sum_(T.mul(T.layer_norm(x, g, b), Tensor(w)))


def _conv1d_case(k, stride, t):
    def case(rng):
        x = t64(rng.normal(size=(2, t, 3)))
        w = t64(rng.normal(size=(k, 3, 5)) * 0.3)
        b = t64(rng.normal(size=5))
        return {"x": x, "w": w, "b": b}, lambda: T.sum_(T.mul(T.conv1d(x, w, b, stride), T.conv1d(x, w, b, stride)))

    return case


# the frontend's kernel/stride pairs, plus kernel < stride (skipped samples);
# each length leaves a tail of samples no window reaches
for _name, _k, _s, _t in (
    ("conv1d", 4, 2, 11),
    ("conv1d_k10_s5", 10, 5, 27),
    ("conv1d_k3_s2", 3, 2, 12),
    ("conv1d_k2_s2", 2, 2, 9),
    ("conv1d_k2_s3", 2, 3, 11),
):
    op_case(_name)(_conv1d_case(_k, _s, _t))


@op_case("dropout")
def _dropout(rng):
    a = t64(rng.normal(size=(5, 5)))

    def build():
        # fresh but identical rng per call so finite differences see a fixed mask
        return T.sum_(T.dropout(a, 0.4, np.random.default_rng(99)))

    return {"a": a}, build


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params, build = OP_CASES[name](rng)
    check_op_grads(build, params, tol=1e-4)


def run_all_op_gradchecks():
    """Used by the acceptance suite; returns the worst relative error."""
    worst = 0.0
    for name, case in sorted(OP_CASES.items()):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        params, build = case(rng)
        worst = max(worst, check_op_grads(build, params, tol=1e-4))
    return worst


def test_conv1d_without_input_grad_matches_full_path(rng):
    x, w, b = rng.normal(size=(2, 17, 3)), rng.normal(size=(3, 3, 4)), rng.normal(size=4)
    grads = []
    for x_grad in (True, False):
        xt, wt, bt = t64(x, grad=x_grad), t64(w), t64(b)
        y = T.conv1d(xt, wt, bt, 2)
        T.sum_(T.mul(y, y)).backward()
        grads.append((xt.grad, wt.grad, bt.grad))
    (gx_full, gw_full, gb_full), (gx, gw, gb) = grads
    assert gx_full is not None and gx is None
    assert np.array_equal(gw, gw_full)
    assert np.array_equal(gb, gb_full)


def overlap_add_reference(gcol, shape, stride):
    """Window gradients summed onto zeros tap by tap, in ascending tap order."""
    gx = np.zeros(shape, dtype=gcol.dtype)
    span = stride * (gcol.shape[1] - 1) + 1
    for kk in range(gcol.shape[2]):
        gx[:, kk:kk + span:stride, :] += gcol[:, :, kk, :]
    return gx


# kernel < stride (with a last window past the last whole stride-row), == and >,
# and > 2 * stride, where one sample sums more than two taps
@pytest.mark.parametrize("k,stride,t", [(2, 3, 11), (2, 3, 8), (1, 4, 9), (2, 2, 9), (5, 5, 25), (3, 2, 2888), (10, 5, 27), (7, 2, 31)])
def test_conv1d_input_grad_matches_tap_by_tap_scatter_bitwise(k, stride, t, rng):
    x = rng.normal(size=(3, t, 4)).astype(np.float32)
    w = rng.normal(size=(k, 4, 6)).astype(np.float32)
    b = rng.normal(size=6).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    y = T.conv1d(xt, Tensor(w), Tensor(b), stride)
    g = rng.normal(size=y.shape).astype(np.float32)
    T.sum_(T.mul(y, Tensor(g))).backward()
    gcol = (g @ w.reshape(k * 4, 6).T).reshape(3, y.shape[1], k, 4)
    assert same_bytes(xt.grad, overlap_add_reference(gcol, x.shape, stride))
    gcol[..., ::3] = -0.0  # adding onto zeros makes these 0.0 where no other tap lands
    assert same_bytes(T._overlap_add(gcol, t, stride, gcol.dtype), overlap_add_reference(gcol, x.shape, stride))


def _bad_op(x, grad_of):
    def vjp(g):
        return (grad_of(g),)

    return T._make(x.data * 2.0, (x,), vjp)


@pytest.mark.parametrize(
    "grad_of",
    [lambda g: (2.0 * g).astype(np.float64), lambda g: 2.0 * g[:1]],
    ids=["float64_grad", "wrong_shape_grad"],
)
def test_backward_rejects_gradient_unlike_its_input(grad_of):
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    loss = T.sum_(_bad_op(x, grad_of))
    with pytest.raises(ContractError, match="_bad_op"):
        loss.backward()
    assert x.grad is None


def test_float32_default_and_float64_kept():
    assert Tensor([1, 2]).data.dtype == np.float32
    assert Tensor(np.zeros(2, dtype=np.float64)).data.dtype == np.float64


@pytest.mark.skipif(not T._HEAP_KEPT, reason="glibc mallopt unavailable")
def test_steady_state_steps_take_no_page_faults(corpus16):
    """Freed activations stay in the process: a repeated step faults in no new pages.

    The step's conv frontend activations are up to a few MB each; with
    glibc's default thresholds a step took 2.0k to 15.7k minor faults.
    """
    records = scan_corpus(corpus16)
    net = SpeakerProfiler(tiny_config(conv_channels=32))
    norm = NormStats.fit(records)
    waves = [read_audio(r.utterance_path) for r in records]
    batch = [record_sample(net, r, w) for r, w in zip(records, waves)]

    def step():
        predict_samples(net, norm, batch)
        out = batch_forward(net, batch, training=True)
        T.sum_(T.add(out.age_z, out.height_z)).backward()

    step()
    step()
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 1000, faults
