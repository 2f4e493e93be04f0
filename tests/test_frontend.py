import numpy as np
import pytest

from moe_profiler.errors import LengthError
from moe_profiler.frontend import CONV_LAYERS, ConvFrontendConfig, frontend_forward, frontend_param_specs
from moe_profiler.model import init_params
from moe_profiler import tensor as T


def make_frontend(channels=4, dtype=np.float64, seed=0):
    cfg = ConvFrontendConfig.default(channels)
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


def test_waveform_gradient_rebuilds_each_layers_windows_once(rng, monkeypatch):
    # a waveform that needs a gradient makes every layer's vjp build its input
    # gradient too; the im2col windows are still rebuilt once per layer, for the weight gradient
    cfg, params = make_frontend(dtype=np.float32)
    wave = T.Tensor((rng.normal(size=(2, 1200)) * 0.2).astype(np.float32), requires_grad=True)
    out = frontend_forward(params, wave, cfg)
    loss = T.sum_(T.mul(out, out))
    rebuilt = []
    im2col = T._im2col
    monkeypatch.setattr(T, "_im2col", lambda *a: rebuilt.append(a) or im2col(*a))
    loss.backward()
    assert len(rebuilt) == len(CONV_LAYERS) == 7
    assert wave.grad.shape == wave.shape and np.all(np.isfinite(wave.grad))
