import numpy as np
import pytest

from moe_profiler.errors import LengthError
from moe_profiler.frontend import CONV_LAYERS, ConvFrontendConfig, frontend_forward, frontend_param_specs
from moe_profiler.model import init_params
from moe_profiler import tensor as T


def make_frontend(channels=4, frozen=0, dtype=np.float64, seed=0):
    cfg = ConvFrontendConfig.default(channels, frozen)
    return cfg, init_params(frontend_param_specs(cfg), np.random.default_rng(seed), dtype=dtype)


def stride_oracle(n, layers):
    # closed-form frame count, written out independently of the config method
    t = n
    for kernel, stride in layers:
        if t < kernel:
            return None
        t = (t - kernel) // stride + 1
    return t


def test_default_shape_is_wav2vec_like():
    cfg = ConvFrontendConfig.default()
    assert [kernel for kernel, _ in CONV_LAYERS] == [10, 3, 3, 3, 3, 2, 2]
    assert [stride for _, stride in CONV_LAYERS] == [5, 2, 2, 2, 2, 2, 2]
    assert cfg.receptive_field() == 400


def test_16000_samples_give_49_frames():
    cfg, params = make_frontend()
    out = frontend_forward(params, np.zeros((1, 16000)), cfg)
    assert out.shape == (1, 49, 4)
    assert cfg.out_frames(16000) == 49


def test_frame_count_matches_oracle_for_random_lengths(rng):
    cfg, params = make_frontend(channels=2)
    for _ in range(100):
        n = int(rng.integers(400, 20000))
        expect = stride_oracle(n, CONV_LAYERS)
        got = frontend_forward(params, rng.normal(size=(1, n)) * 0.1, cfg)
        assert got.shape[1] == expect == cfg.out_frames(n)


def test_too_short_mentions_receptive_field():
    cfg, params = make_frontend()
    with pytest.raises(LengthError, match="400"):
        frontend_forward(params, np.zeros((1, 399)), cfg)


def test_frozen_layers_get_no_gradient(rng):
    cfg, params = make_frontend(frozen=5)
    x = rng.normal(size=(1, 800)) * 0.2
    out = frontend_forward(params, x, cfg)
    loss = T.sum_(T.mul(out, out))
    for p in params.values():
        p.zero_grad()
    loss.backward()
    for i in range(7):
        w = params[f"frontend.conv{i}.w"]
        if i < 5:
            assert not w.requires_grad and w.grad is None
        else:
            assert w.requires_grad and w.grad is not None and np.any(w.grad != 0.0)


def test_frozen_layers_rebuild_no_windows_and_keep_trainable_grads(rng, monkeypatch):
    # a waveform that needs a gradient makes the frozen layers record nodes, so their vjps run
    x = (rng.normal(size=(2, 1200)) * 0.2).astype(np.float32)
    runs = {}
    for frozen in (0, 2):
        cfg, params = make_frontend(frozen=frozen, dtype=np.float32)
        wave = T.Tensor(x, requires_grad=True)
        out = frontend_forward(params, wave, cfg)
        loss = T.sum_(T.mul(out, out))
        rebuilt = []
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda *a: rebuilt.append(a) or im2col(*a))
        loss.backward()
        monkeypatch.undo()
        runs[frozen] = params, wave.grad, len(rebuilt)
    (full, full_gx, full_rebuilt), (part, part_gx, part_rebuilt) = runs[0], runs[2]
    assert (full_rebuilt, part_rebuilt) == (7, 5)
    assert part_gx.tobytes() == full_gx.tobytes()
    for name, p in part.items():
        if name.startswith(("frontend.conv0.", "frontend.conv1.", "frontend.ln0.", "frontend.ln1.")):
            assert not p.requires_grad and p.grad is None, name
        else:
            assert p.grad.tobytes() == full[name].grad.tobytes(), name


def test_all_layers_trainable_when_unfrozen(rng):
    cfg, params = make_frontend(frozen=0)
    x = rng.normal(size=(1, 800)) * 0.2
    loss = T.sum_(frontend_forward(params, x, cfg))
    for p in params.values():
        p.zero_grad()
    loss.backward()
    for i in range(7):
        assert params[f"frontend.conv{i}.w"].grad is not None
