"""Bi-encoder mixture-of-experts network for age/height/gender estimation.

Two transformer-encoder experts (one per gender) share the same input
features; statistical pooling turns frame sequences into utterance vectors,
a sigmoid gate predicted from both expert views mixes them, and small FC
heads regress normalized age and height. A single-encoder variant drops the
second expert and the gating mixture.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE
from .config import TrainConfig
from .dsp import FEATURE_DIMS, num_frames
from .errors import LengthError, ShapeError
from .frontend import ConvFrontendConfig, frontend_forward, frontend_param_specs
from . import tensor as T
from .tensor import Tensor


@dataclass
class ModelOutput:
    """Per-utterance predictions: normalized age/height plus gender in [0, 1]."""

    age_z: Tensor
    height_z: Tensor
    gender_p: Tensor


def sinusoidal_positions(t, d, dtype=np.float32):
    """Standard sin/cos positional table of shape (t, d)."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def statistical_pooling(frames, frame_mask=None):
    """Concatenate per-dim mean and population std over the frame axis.

    frames: (B, T, D) tensor; frame_mask: optional (B, T) 0/1 array marking
    the frames to pool over (all frames when None).
    """
    if frames.ndim != 3:
        raise ShapeError(f"pooling expects (B, T, D) frames, got {frames.shape}")
    b, t, d = frames.shape
    dtype = frames.data.dtype
    mask = np.ones((b, t), dtype=dtype) if frame_mask is None else np.asarray(frame_mask, dtype=dtype)
    if mask.shape != (b, t):
        raise ShapeError(f"frame mask shape {mask.shape} does not match frames {(b, t)}")
    counts = mask.sum(axis=1, keepdims=True)
    if (counts <= 0).any():
        raise ShapeError("frame mask leaves an utterance with no frames")
    inv = (1.0 / counts).astype(dtype)
    m3 = mask[:, :, None]
    mean = T.mul(T.sum_(frames, axis=1, weights=m3), inv)
    mean_sq = T.mul(T.sum_(T.mul(frames, frames), axis=1, weights=m3), inv)
    var = T.relu(T.sub(mean_sq, T.mul(mean, mean)))  # clamp tiny negatives from rounding
    std = T.sqrt(var)
    return T.concat([mean, std], axis=1)


def combine_experts(e_m, e_f, g):
    """Convex mixture e = (1 - g) * e_m + g * e_f; g is a (B, 1) tensor or float."""
    if e_m.shape != e_f.shape:
        raise ShapeError(f"expert views disagree in shape: {e_m.shape} vs {e_f.shape}")
    if not isinstance(g, Tensor):
        g = Tensor(np.full((e_m.shape[0], 1), float(g), dtype=e_m.data.dtype))
    return T.add(T.mul(T.sub(1.0, g), e_m), T.mul(g, e_f))


# keeps the gate strictly inside (0, 1) even when the sigmoid saturates in
# float arithmetic; the true gradient there is ~0 anyway
GATE_EPS = 1e-7


def gate_predict(views, w, b):
    """Gender gate g = sigmoid(FC(concat(views))); (B, 1) strictly in (0, 1).

    views lists the expert views, (e_m, e_f) or the single encoder's one.
    """
    z = T.add(T.matmul(T.concat(views, axis=1), w), b)
    return T.clip(T.sigmoid(z), GATE_EPS, 1.0 - GATE_EPS)


def frontend_config(cfg: TrainConfig):
    """The conv frontend cfg builds, or None when the model takes fbank/mfcc frames."""
    return ConvFrontendConfig(cfg.conv_channels) if cfg.feature_kind == "conv" else None


def param_specs(cfg: TrainConfig):
    """(name, shape) of every parameter a config builds, in init order.

    Shapes only: a checkpoint is checked against these before any model
    is allocated. Loss log-variances are included.
    """
    conv_cfg = frontend_config(cfg)
    specs = frontend_param_specs(conv_cfg) if conv_cfg is not None else []
    in_dim = conv_cfg.channels if conv_cfg is not None else FEATURE_DIMS[cfg.feature_kind]

    def linear(name, din, dout):
        specs.extend([(f"{name}.w", (din, dout)), (f"{name}.b", (dout,))])

    def ln(name, d):
        specs.extend([(f"{name}.gain", (d,)), (f"{name}.bias", (d,))])

    d = cfg.model_dim
    prefixes = expert_prefixes(cfg)
    for prefix in prefixes:
        linear(f"{prefix}.proj", in_dim, d)
        for l in range(cfg.num_layers):
            base = f"{prefix}.enc.l{l}"
            ln(f"{base}.ln1", d)
            for part in ("wq", "wk", "wv", "wo"):
                linear(f"{base}.attn.{part}", d, d)
            ln(f"{base}.ln2", d)
            linear(f"{base}.ff.fc1", d, cfg.ff_dim)
            linear(f"{base}.ff.fc2", cfg.ff_dim, d)
        ln(f"{prefix}.enc.lnf", d)
        linear(f"{prefix}.fc", 2 * d, cfg.expert_dim)
    linear("gate", len(prefixes) * cfg.expert_dim, 1)
    for task in ("age", "height"):
        linear(f"head_{task}.fc1", cfg.expert_dim, cfg.head_hidden)
        linear(f"head_{task}.fc2", cfg.head_hidden, 1)
    specs += [(f"loss.{s}", ()) for s in ("s_height", "s_age", "s_gender")]
    return specs


def expert_prefixes(cfg: TrainConfig):
    """Parameter prefixes of the expert encoders: one per gender, or one shared."""
    return ("expert_m", "expert_f") if cfg.mode == "bi_encoder" else ("expert",)


def init_params(specs, rng, dtype=np.float32):
    """name -> trainable Tensor for each (name, shape) spec, drawn from rng in spec order.

    A '.w' weight is uniform in +-sqrt(6 / (fan_in + fan_out)), fan_out
    being its last axis and fan_in the product of the others; a '.gain'
    starts at ones; every other parameter at zeros.
    """
    params = {}
    for name, shape in specs:
        if name.endswith(".w"):
            limit = np.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
            data = rng.uniform(-limit, limit, size=shape).astype(dtype)
        else:
            data = (np.ones if name.endswith(".gain") else np.zeros)(shape, dtype=dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


class SpeakerProfiler:
    """The full network: optional conv frontend, expert encoder(s), gate, heads.

    Parameters live in a flat name -> Tensor dict so checkpoints and the
    optimizer can treat them uniformly; loss log-variances are included.
    A model instance is confined to one thread during forward/backward.
    """

    def __init__(self, cfg: TrainConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.conv_cfg = frontend_config(cfg)
        rng = np.random.default_rng(cfg.seed)
        self.params = init_params(param_specs(cfg), rng, dtype)
        self._droprng = np.random.default_rng(rng.integers(2**63))

    def parameters(self):
        return self.params

    def num_parameters(self):
        return sum(p.data.size for p in self.params.values())

    def log_vars(self):
        return (self.params["loss.s_height"], self.params["loss.s_age"], self.params["loss.s_gender"])

    # -- forward ------------------------------------------------------------

    def _drop(self, x, training):
        if training:
            return T.dropout(x, self.cfg.dropout_p, self._droprng)
        return x

    def _lin(self, x, name):
        return T.add(T.matmul(x, self.params[f"{name}.w"]), self.params[f"{name}.b"])

    def _ln(self, x, name):
        return T.layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _mha(self, x, base, key_bias):
        """Multi-head self-attention; key_bias (B, 1, 1, T) is added to every query's key scores."""
        b, t, d = x.shape
        h = self.cfg.num_heads
        dk = d // h

        def split(v):
            return T.transpose(T.reshape(v, (b, t, h, dk)), (0, 2, 1, 3))

        q = split(self._lin(x, f"{base}.wq"))
        k = split(self._lin(x, f"{base}.wk"))
        v = split(self._lin(x, f"{base}.wv"))
        attn = T.softmax_rows(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dk), key_bias)
        ctx = T.matmul(attn, v)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
        return self._lin(ctx, f"{base}.wo")

    def transformer_encoder(self, x, prefix, training=False, frame_mask=None):
        """Pre-norm self-attention stack; preserves (B, T, model_dim).

        frame_mask: optional (B, T) 0/1 array (all frames real when None);
        frames marked 0 are hidden from attention as keys by an additive -inf
        (key-padding mask), so the frames marked 1 see only each other.
        """
        if x.shape[1] == 0:
            raise LengthError("encoder needs at least one frame")
        frame_mask = np.ones(x.shape[:2]) if frame_mask is None else np.asarray(frame_mask)
        if frame_mask.shape != x.shape[:2]:
            raise ShapeError(f"frame mask shape {frame_mask.shape} does not match frames {x.shape[:2]}")
        key_bias = np.where(frame_mask > 0, 0.0, -np.inf).astype(x.data.dtype)[:, None, None, :]
        for l in range(self.cfg.num_layers):
            base = f"{prefix}.enc.l{l}"
            att = self._mha(self._ln(x, f"{base}.ln1"), f"{base}.attn", key_bias)
            x = T.add(x, self._drop(att, training))
            ff = self._lin(T.relu(self._lin(self._ln(x, f"{base}.ln2"), f"{base}.ff.fc1")), f"{base}.ff.fc2")
            x = T.add(x, self._drop(ff, training))
        return self._ln(x, f"{prefix}.enc.lnf")

    def expert_forward(self, x, prefix, training=False, frame_mask=None):
        """Projection + sinusoidal positions -> encoder -> statistical pooling -> dropout -> FC expert view (B, E)."""
        proj = self._lin(x, f"{prefix}.proj")
        pe = sinusoidal_positions(proj.shape[1], self.cfg.model_dim, dtype=proj.data.dtype)
        proj = T.add(proj, Tensor(pe[None, :, :]))
        enc = self.transformer_encoder(proj, prefix, training, frame_mask)
        pooled = statistical_pooling(enc, frame_mask)
        return self._lin(self._drop(pooled, training), f"{prefix}.fc")

    def _head(self, e, task):
        out = self._lin(T.relu(self._lin(e, f"head_{task}.fc1")), f"head_{task}.fc2")
        return T.reshape(out, (e.shape[0],))

    def forward_features(self, feats, training=False, frame_mask=None, force_gate=None) -> ModelOutput:
        """Run the network on a (B, T, D) feature batch."""
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats, dtype=self.dtype))
        if x.ndim != 3:
            raise ShapeError(f"expected (B, T, D) features, got {x.shape}")
        b = x.shape[0]
        views = [self.expert_forward(x, prefix, training, frame_mask) for prefix in expert_prefixes(self.cfg)]
        if force_gate is not None:
            g = Tensor(np.full((b, 1), float(force_gate), dtype=x.data.dtype))
        else:
            g = gate_predict(views, self.params["gate.w"], self.params["gate.b"])
        e = combine_experts(*views, g) if len(views) == 2 else views[0]
        return ModelOutput(
            age_z=self._head(e, "age"),
            height_z=self._head(e, "height"),
            gender_p=T.reshape(g, (b,)),
        )

    def forward(self, inputs, training=False, frame_mask=None) -> ModelOutput:
        """Run a padded batch: (B, N) samples through the conv frontend if any, else (B, T, D) frames."""
        if self.conv_cfg is not None:
            inputs = frontend_forward(self.params, inputs, self.conv_cfg)
        return self.forward_features(inputs, training, frame_mask)

    def frames_for_samples(self, n_samples):
        """Frame count the feature pipeline will produce for a given length at SAMPLE_RATE."""
        if self.conv_cfg is not None:
            return self.conv_cfg.out_frames(n_samples)
        return num_frames(n_samples, SAMPLE_RATE)
