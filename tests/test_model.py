import numpy as np
import pytest

from moe_profiler import tensor as T
from moe_profiler.audio import read_audio
from moe_profiler.errors import ShapeError
from moe_profiler.losses import LabeledSample, task_losses, uncertainty_loss
from moe_profiler.metrics import NormStats
from moe_profiler.model import (
    GATE_EPS,
    SpeakerProfiler,
    combine_experts,
    gate_predict,
    param_specs,
    statistical_pooling,
)
from moe_profiler.optim import Adam
from moe_profiler.pipeline import record_sample
from moe_profiler.tensor import Tensor
from moe_profiler.training import batch_loss

from .conftest import tiny_config
from .helpers import check_op_grads, numeric_grads, rel_err


def feats_config(**over):
    # feature width == conv_channels lets tests feed forward_features directly
    return tiny_config(conv_channels=6, **over)


class TestPooling:
    def test_constant_frames(self):
        v = np.array([1.5, -2.0, 0.25])
        frames = Tensor(np.tile(v, (1, 4, 1)))
        out = statistical_pooling(frames).data
        assert np.allclose(out[0, :3], v)
        assert np.allclose(out[0, 3:], 0.0)

    def test_hand_example(self):
        frames = Tensor(np.array([[[0.0, 2.0], [2.0, 4.0]]]))
        out = statistical_pooling(frames).data
        assert np.allclose(out, [[1.0, 3.0, 1.0, 1.0]])

    def test_single_frame_std_zero(self, rng):
        frames = Tensor(rng.normal(size=(2, 1, 5)))
        out = statistical_pooling(frames).data
        assert np.allclose(out[:, 5:], 0.0)

    def test_output_length_2d(self, rng):
        out = statistical_pooling(Tensor(rng.normal(size=(3, 7, 9))))
        assert out.shape == (3, 18)

    def test_mask_restricts_pooling(self, rng):
        base = rng.normal(size=(1, 4, 3))
        padded = np.concatenate([base, 100.0 * np.ones((1, 2, 3))], axis=1)
        mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=np.float64)
        got = statistical_pooling(Tensor(padded), mask).data
        want = statistical_pooling(Tensor(base)).data
        assert np.allclose(got, want, atol=1e-6)

    def test_constant_mask_matches_mask_multiplication(self, rng):
        # the mask as a constant of sum_ gives the same pooled values and
        # frame gradients, bit for bit, as multiplying by it with mul nodes
        x = rng.normal(size=(3, 7, 4)).astype(np.float32)
        mask = np.ones((3, 7), dtype=np.float32)
        mask[0, 5:] = mask[2, 3:] = 0.0
        w = rng.normal(size=(3, 8)).astype(np.float32)

        def mul_node_pooling(frames):
            m3 = Tensor(mask[:, :, None])
            inv = 1.0 / mask.sum(axis=1, keepdims=True)
            mean = T.mul(T.sum_(T.mul(frames, m3), axis=1), inv)
            mean_sq = T.mul(T.sum_(T.mul(T.mul(frames, frames), m3), axis=1), inv)
            return T.concat([mean, T.sqrt(T.relu(T.sub(mean_sq, T.mul(mean, mean))))], axis=1)

        grads = []
        for pool in (lambda f: statistical_pooling(f, mask), mul_node_pooling):
            frames = Tensor(x.copy(), requires_grad=True)
            out = pool(frames)
            T.sum_(T.mul(out, Tensor(w))).backward()
            grads.append((out.data, frames.grad))
        (got, got_g), (want, want_g) = grads
        assert np.array_equal(got, want)
        assert np.array_equal(got_g, want_g)
        assert got_g.dtype == np.float32


class TestCombine:
    def test_endpoints(self, rng):
        e_m = Tensor(rng.normal(size=(2, 4)))
        e_f = Tensor(rng.normal(size=(2, 4)))
        assert np.allclose(combine_experts(e_m, e_f, 0.0).data, e_m.data)
        assert np.allclose(combine_experts(e_m, e_f, 1.0).data, e_f.data)

    def test_quarter_mix(self):
        e = combine_experts(Tensor([[4.0, 0.0]]), Tensor([[0.0, 8.0]]), 0.25)
        assert np.allclose(e.data, [[3.0, 2.0]])

    def test_interpolation_bounds(self, rng):
        for _ in range(200):
            e_m = Tensor(rng.normal(size=(1, 6)))
            e_f = Tensor(rng.normal(size=(1, 6)))
            g = float(rng.random())
            e = combine_experts(e_m, e_f, g).data
            lo = np.minimum(e_m.data, e_f.data)
            hi = np.maximum(e_m.data, e_f.data)
            assert np.all(e >= lo - 1e-7) and np.all(e <= hi + 1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            combine_experts(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), 0.5)


class TestGate:
    def test_zero_weights_give_half(self):
        e = Tensor(np.ones((3, 4)))
        g = gate_predict([e, e], Tensor(np.zeros((8, 1))), Tensor(np.zeros(1)))
        assert np.allclose(g.data, 0.5)

    def test_open_interval(self, rng):
        w = Tensor(rng.normal(size=(8, 1)) * 10)
        b = Tensor(rng.normal(size=1))
        for _ in range(100):
            g = gate_predict([Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4)))], w, b).data
            assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_saturation_towards_female(self):
        e = Tensor(np.ones((1, 2)))
        g = gate_predict([e, e], Tensor(np.full((4, 1), 50.0)), Tensor(np.zeros(1)))
        assert g.data[0, 0] > 0.999999

    def test_single_view_is_a_plain_linear_gate(self, rng):
        # a one-view concat is a copy: same gate and gradients as FC(view) itself, bitwise
        v = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 1)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=1).astype(np.float32), requires_grad=True)
        results = []
        for gate in (
            lambda: gate_predict([v], w, b),
            lambda: T.clip(T.sigmoid(T.add(T.matmul(v, w), b)), GATE_EPS, 1.0 - GATE_EPS),
        ):
            for t in (v, w, b):
                t.zero_grad()
            g = gate()
            T.sum_(g).backward()
            results.append([g.data] + [t.grad.copy() for t in (v, w, b)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEncoder:
    def test_shape_preserved(self, rng):
        net = SpeakerProfiler(feats_config())
        for t in (1, 3, 17, 64):
            out = net.forward_features(rng.normal(size=(1, t, 6)).astype(np.float32))
            assert out.age_z.shape == (1,)

    def test_encoder_alone_is_permutation_equivariant(self, rng):
        # positions enter in expert_forward, before the encoder; the encoder itself is order-blind
        net = SpeakerProfiler(feats_config())
        x = rng.normal(size=(1, 9, 6)).astype(np.float32)
        perm = rng.permutation(9)
        proj = net._lin(Tensor(x), "expert_m.proj")
        enc = net.transformer_encoder(proj, "expert_m").data
        proj_p = net._lin(Tensor(x[:, perm]), "expert_m.proj")
        enc_p = net.transformer_encoder(proj_p, "expert_m").data
        assert np.allclose(enc_p, enc[:, perm], atol=1e-5)

    def test_eval_deterministic_with_dropout_config(self, rng):
        net = SpeakerProfiler(feats_config(dropout_p=0.3))
        x = rng.normal(size=(2, 5, 6)).astype(np.float32)
        a = net.forward_features(x, training=False)
        b = net.forward_features(x, training=False)
        assert np.array_equal(a.age_z.data, b.age_z.data)
        assert np.array_equal(a.gender_p.data, b.gender_p.data)


class TestExperts:
    def test_disjoint_params_give_different_views(self, rng):
        net = SpeakerProfiler(feats_config())
        x = Tensor(rng.normal(size=(1, 4, 6)).astype(np.float32))
        e_m = net.expert_forward(x, "expert_m").data
        e_f = net.expert_forward(x, "expert_f").data
        assert not np.allclose(e_m, e_f)

    def test_copying_params_makes_views_identical(self, rng):
        net = SpeakerProfiler(feats_config())
        for name, p in net.parameters().items():
            if name.startswith("expert_m."):
                net.parameters()["expert_f." + name[len("expert_m."):]].data = p.data.copy()
        x = Tensor(rng.normal(size=(1, 4, 6)).astype(np.float32))
        assert np.allclose(net.expert_forward(x, "expert_m").data, net.expert_forward(x, "expert_f").data)

    def test_view_dimension_matches_config(self, rng):
        net = SpeakerProfiler(feats_config(expert_dim=5))
        x = Tensor(rng.normal(size=(2, 4, 6)).astype(np.float32))
        assert net.expert_forward(x, "expert_m").shape == (2, 5)


class TestHeads:
    def test_zero_weights_output_bias(self, rng):
        net = SpeakerProfiler(feats_config())
        for task in ("age", "height"):
            net.params[f"head_{task}.fc2.w"].data[:] = 0.0
            net.params[f"head_{task}.fc2.b"].data[:] = 0.75
        out = net.forward_features(rng.normal(size=(1, 3, 6)).astype(np.float32))
        assert np.allclose(out.age_z.data, 0.75)
        assert np.allclose(out.height_z.data, 0.75)

    def test_age_loss_reaches_both_experts(self, rng):
        net = SpeakerProfiler(feats_config(dropout_p=0.0), dtype=np.float64)
        x = rng.normal(size=(1, 3, 6))
        norm = NormStats(40.0, 10.0, 170.0, 8.0)

        def build():
            out = net.forward_features(Tensor(x))
            _, l_age, _ = task_losses(out, [170.0], [55.0], [0.0], norm)
            return l_age

        probes = {
            "expert_m.proj.w": net.params["expert_m.proj.w"],
            "expert_f.proj.w": net.params["expert_f.proj.w"],
        }
        check_op_grads(build, probes, tol=1e-4)
        assert np.any(probes["expert_m.proj.w"].grad != 0.0)
        assert np.any(probes["expert_f.proj.w"].grad != 0.0)


class TestModes:
    def copy_single_into_bi(self, single, bi):
        for name, p in single.parameters().items():
            if name.startswith("expert."):
                suffix = name[len("expert."):]
                bi.parameters()[f"expert_m.{suffix}"].data = p.data.copy()
                bi.parameters()[f"expert_f.{suffix}"].data = p.data.copy()
            elif name.startswith(("head_", "loss.")):
                bi.parameters()[name].data = p.data.copy()

    def test_bi_equals_single_with_forced_half_gate(self, rng):
        single = SpeakerProfiler(feats_config(mode="single_encoder", seed=21))
        bi = SpeakerProfiler(feats_config(mode="bi_encoder", seed=22))
        self.copy_single_into_bi(single, bi)
        x = rng.normal(size=(3, 5, 6)).astype(np.float32)
        out_s = single.forward_features(x)
        out_b = bi.forward_features(x, force_gate=0.5)
        assert np.allclose(out_b.age_z.data, out_s.age_z.data, atol=1e-6)
        assert np.allclose(out_b.height_z.data, out_s.height_z.data, atol=1e-6)

    def test_single_has_fewer_params(self):
        bi = SpeakerProfiler(feats_config(mode="bi_encoder"))
        single = SpeakerProfiler(feats_config(mode="single_encoder"))
        assert single.num_parameters() < bi.num_parameters()

    @pytest.mark.parametrize("mode", ["bi_encoder", "single_encoder"])
    @pytest.mark.parametrize("kind", ["conv", "fbank"])
    def test_every_parameter_trains(self, corpus4_records, kind, mode):
        # every spec the config builds needs a gradient, gets a finite one from the
        # training loss, and is stepped by Adam
        cfg = tiny_config(feature_kind=kind, mode=mode)
        net = SpeakerProfiler(cfg)
        samples = [record_sample(net, r, read_audio(r.utterance_path)) for r in corpus4_records]
        batch_loss(net, NormStats(40.0, 10.0, 170.0, 8.0), samples)[1].backward()
        names = [name for name, _ in param_specs(cfg)]
        params = net.parameters()
        assert names == list(params)
        for name in names:
            assert params[name].requires_grad, name
            assert params[name].grad is not None and np.all(np.isfinite(params[name].grad)), name
        assert list(Adam(params, cfg.lr).params) == names

    def test_gender_in_unit_interval_both_modes(self, rng):
        for mode in ("bi_encoder", "single_encoder"):
            net = SpeakerProfiler(feats_config(mode=mode))
            out = net.forward_features(rng.normal(size=(4, 6, 6)).astype(np.float32))
            assert np.all(out.gender_p.data > 0.0) and np.all(out.gender_p.data < 1.0)


def build_e2e_net(seed=13, **over):
    """Tiny float64 bi-encoder over the conv frontend for gradient checking."""
    cfg = tiny_config(
        conv_channels=4,
        model_dim=8,
        num_layers=1,
        num_heads=2,
        ff_dim=16,
        expert_dim=8,
        head_hidden=4,
        dropout_p=0.0,
        seed=seed,
        **over,
    )
    return SpeakerProfiler(cfg, dtype=np.float64)


def e2e_grad_check(tol=1e-3, max_params=None, masked=False):
    """Full-model gradient check through frontend, experts, gate, heads, loss.

    masked runs a batch of two utterances of 1360 and 720 samples (4 and 2
    frames), so the shorter one is zero-padded and attention's key mask is
    on the tape. Central differences take a step of 1e-6: at the op-level
    1e-5 their truncation error on this batch misses frontend.conv0.b by
    2.2e-3, at 1e-6 the worst parameter reads about 1.8e-4.
    Returns (worst relative error, params checked).
    """
    net = build_e2e_net()
    rng = np.random.default_rng(77)
    norm = NormStats(40.0, 10.0, 170.0, 8.0)
    if masked:
        samples = [
            LabeledSample(rng.normal(size=n) * 0.3, height, age, gender)
            for n, height, age, gender in zip((1360, 720), (172.0, 160.0), (33.0, 51.0), (1.0, 0.0))
        ]

        def build():
            # the training step's own loss; dropout is 0, so training mode changes nothing
            return batch_loss(net, norm, samples)[1]
    else:
        wav = rng.normal(size=(1, 720)) * 0.3

        def build():
            l_h, l_a, l_g = task_losses(net.forward(Tensor(wav)), [172.0], [33.0], [1.0], norm)
            return uncertainty_loss(l_h, l_a, l_g, *net.log_vars())

    loss = build()
    for p in net.parameters().values():
        p.zero_grad()
    loss.backward()

    def f():
        return float(build().data)

    worst = 0.0
    checked = 0
    for name, p in sorted(net.parameters().items()):
        if max_params is not None and checked >= max_params:
            break
        assert p.grad is not None, f"no gradient for {name}"
        (num,) = numeric_grads(f, [p.data], 1e-6)
        err = rel_err(p.grad, num)
        assert err < tol, f"{name}: rel err {err:.2e}"
        worst = max(worst, err)
        checked += 1
    return worst, checked


def test_end_to_end_gradients_sampled():
    # fast spot check; the acceptance suite sweeps every parameter
    worst, checked = e2e_grad_check(tol=1e-3, max_params=12)
    assert checked == 12
    assert worst < 1e-3


def test_masked_end_to_end_gradients_sampled():
    # the first 12 parameters by name are expert_f's attention and feed-forward
    worst, checked = e2e_grad_check(tol=1e-3, max_params=12, masked=True)
    assert checked == 12
    assert worst < 1e-3


@pytest.mark.parametrize("wav_dtype", [np.float32, np.float64])
def test_float32_step_keeps_every_gradient_float32(wav_dtype):
    net = SpeakerProfiler(tiny_config(), dtype=np.float32)
    wav = (np.random.default_rng(5).normal(size=(2, 900)) * 0.3).astype(wav_dtype)
    out = net.forward(wav, training=True)
    norm = NormStats(40.0, 10.0, 170.0, 8.0)
    l_h, l_a, l_g = task_losses(out, [172.0, 160.0], [33.0, 51.0], [1.0, 0.3], norm)
    loss = uncertainty_loss(l_h, l_a, l_g, *net.log_vars())
    for p in net.parameters().values():
        p.zero_grad()
    loss.backward()
    dtypes = {name: p.grad.dtype for name, p in net.parameters().items()}
    assert sum(name.startswith("frontend.") for name in dtypes) == 28
    assert {"gate.w", "head_age.fc2.b", "loss.s_gender"} <= dtypes.keys()
    assert {name for name, dt in dtypes.items() if dt != np.float32} == set()
