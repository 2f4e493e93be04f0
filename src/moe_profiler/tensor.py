"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed tape. A recorded op returns a ``Tensor`` that carries
its ``data`` and a tape node; the node holds its inputs' nodes (never their
tensors), its backward closure and the output's shape and dtype, and each
closure keeps only the arrays it reads (for ``add``, just shapes). A leaf
that requires gradients is its own node. So once a caller drops an
intermediate tensor, its data is freed unless a vjp reads it, while its node
stays on the tape. ``backward()`` on a scalar walks the nodes in reverse
topological order and consumes them as it goes: once a node's backward
closure has run, the node drops it and its inputs, so each layer's saved
buffers are freed before the layers below are differentiated. A graph can
therefore be backpropagated once; to train on several losses, sum them
first, as ``uncertainty_loss`` does. Leaf gradients accumulate into
``.grad`` across separately built graphs until they are zeroed. Inside
``no_grad()`` no tape is recorded, so a forward-only pass frees each
intermediate array as soon as the next op has used it.

float32 is the working precision. Constructing a tensor from a float64 array
keeps float64; the gradient-check tests rely on this to run the whole stack
in double precision. A gradient keeps the shape and dtype of the tensor it
belongs to, so a float32 graph stays float32 through backward; ``backward()``
raises ``ContractError`` naming the op when a vjp breaks this.

``gelu`` takes ``erf`` from a rational fit accurate to float32 rounding, in
both dtypes, so a float64 graph computes the float32 model's GELU in double
precision.

Importing this module sets glibc's mmap and trim thresholds for the whole
process (through ``mallopt``; a no-op where that is absent), so freed heap
memory stays mapped until the process exits. The conv frontend's activations
are several MB each. With glibc's defaults each one is returned to the OS
when freed, and the next one page-faults its pages in again, zeroed. At the
quick-start shape, one ``perfbench`` ``analyze`` iteration took a median of
118k minor page faults and 0.25 s of system time out of 1.62 s of CPU time.
With the thresholds set it takes about one fault and 0.01 s of system time,
and its peak RSS does not rise.
"""

import ctypes
import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ContractError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32
LN_EPS = 1e-5

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Serve arrays below 32 MiB from the heap and never trim it; True if glibc took both.

    Setting either threshold turns off glibc's dynamic adjustment of both,
    so both are set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1  # the largest glibc accepts on 64-bit
    trim_set = mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1
    return mmap_set and trim_set


_HEAP_KEPT = _keep_freed_heap()


class Tensor:
    """A dense float array, an optional same-shape gradient buffer and, if recorded, its tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """A recorded op on the tape: its inputs' nodes, its vjp, and its output's shape and dtype.

    parents holds one entry per op input: the input's node, the input
    tensor itself for a leaf that requires gradients, or None for a
    constant. The node holds no array; the vjp's closure holds what it reads.
    backward() sets vjp to None once it has run it, marking the node consumed.
    """

    __slots__ = ("parents", "vjp", "shape", "dtype")

    def __init__(self, parents, vjp, shape, dtype):
        self.parents = parents
        self.vjp = vjp
        self.shape = shape
        self.dtype = dtype


def _node_of(t):
    """t's tape node: its recorded node, t itself for a leaf that requires gradients, else None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


# False inside no_grad(); a context variable, so the block covers only the
# thread (or task) that entered it
_recording = ContextVar("moe_profiler_recording", default=True)


@contextmanager
def no_grad():
    """Record no tape inside the block; forward values are unchanged.

    Ops return tensors with no tape node, so nothing built inside can be
    backpropagated. Recording resumes when the block exits, also
    when it raises.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _will_record(parents):
    """Whether _make records a node with these parents; an op saves vjp buffers only then."""
    return _recording.get() and any(p.requires_grad for p in parents)


def _make(data, parents, vjp):
    """The op's output tensor; if recording, with a node on its parents' nodes (not the tensors)."""
    out = Tensor(data)
    if _will_record(parents):
        out.requires_grad = True
        out._node = _Node(tuple(_node_of(p) for p in parents), vjp, out.data.shape, out.data.dtype)
    return out


def _sum_to_shape(g, shape):
    """Reduce a broadcast gradient back to the shape of its source."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ------------------------------------------------


def add(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    data = a.data + b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _sum_to_shape(g, sa), _sum_to_shape(g, sb)

    return _make(data, (a, b), vjp)


def sub(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    data = a.data - b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _sum_to_shape(g, sa), _sum_to_shape(-g, sb)

    return _make(data, (a, b), vjp)


def mul(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    ad, bd = a.data, b.data
    data = ad * bd

    def vjp(g):
        return _sum_to_shape(g * bd, ad.shape), _sum_to_shape(g * ad, bd.shape)

    return _make(data, (a, b), vjp)


def neg(x):
    x = _as_tensor(x)

    def vjp(g):
        return (-g,)

    return _make(-x.data, (x,), vjp)


def exp(x):
    x = _as_tensor(x)
    data = np.exp(x.data)

    def vjp(g):
        return (g * data,)

    return _make(data, (x,), vjp)


def log(x):
    x = _as_tensor(x)
    xd = x.data
    data = np.log(xd)

    def vjp(g):
        return (g / xd,)

    return _make(data, (x,), vjp)


def sqrt(x):
    """Elementwise square root; the derivative is taken as 0 at x == 0.

    The vjp tests sqrt(x) > 0, which holds exactly where x > 0 (NaN and
    negative x give NaN), so it keeps only the output.
    """
    x = _as_tensor(x)
    data = np.sqrt(x.data)

    def vjp(g):
        denom = 2.0 * data
        safe = np.where(denom == 0.0, 1.0, denom)
        return (np.where(data > 0.0, g / safe, 0.0),)

    return _make(data, (x,), vjp)


def relu(x):
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (data > 0.0),)

    return _make(data, (x,), vjp)


def sigmoid(x):
    x = _as_tensor(x)
    # split by sign to keep exp() in the underflow-only regime
    pos = x.data >= 0
    e = np.exp(np.where(pos, -x.data, x.data))
    data = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.data.dtype)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _make(data, (x,), vjp)


# gelu's constants are python floats, which NEP 50 treats as weak: they take
# the array's dtype, so a float32 graph stays float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# erf(z) ~ z P(z^2) / Q(z^2) on z in [-4, 4], where float32 erf is already
# +-1: the minimax fit Eigen and XLA use for float32. Highest power first.
_ERF_P = (
    -2.72614225801306e-10,
    2.77068142495902e-08,
    -2.10102402082508e-06,
    -5.69250639462346e-05,
    -7.34990630326855e-04,
    -2.95459980854025e-03,
    -1.60960333262415e-02,
)
_ERF_Q = (
    -1.45660718464996e-05,
    -2.13374055278905e-04,
    -1.68282697438203e-03,
    -7.37332916720468e-03,
    -1.42647390514189e-02,
)
# elements per pass of gelu and layer_norm: a block's temporaries stay in L2
# cache across the elementwise passes, where whole frontend activations would not
_BLOCK = 1 << 17


def _blocks(n, step=_BLOCK):
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _poly(coeffs, z2, out):
    """Horner's rule in z2 (highest power first), in place into out."""
    np.multiply(z2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= z2
    out += coeffs[-1]
    return out


def _normal_cdf(x, out, z2, p, q):
    """out = (1 + erf(x / sqrt(2))) / 2 with the rational erf; z2, p, q are work buffers."""
    z = np.multiply(x, _INV_SQRT2, out=out)
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=z2)
    _poly(_ERF_P, z2, p)
    _poly(_ERF_Q, z2, q)
    p *= z
    np.divide(p, q, out=out)
    out += 1.0
    out *= 0.5
    return out


def gelu(x):
    """GELU x * Phi(x), computed in the input's dtype over blocks of _BLOCK elements.

    Phi uses the float32-accurate rational erf above in both dtypes: the
    float32 result is within 2e-6 of the exact GELU on [-8, 8], and exactly
    0 for x <= -6 and exactly x for x >= 6. In float64 the clipped tail
    leaves an error of about 2.5e-8 * |x| beyond |x| = 4 * sqrt(2). The vjp
    is g * (Phi(x) + x * phi(x)) with the exact normal pdf phi; a recorded
    call computes that derivative in its forward and keeps it instead of x.
    Without a tape Phi is computed into the output and not kept.
    """
    x = _as_tensor(x)
    shape = x.shape
    xf = np.ascontiguousarray(x.data).reshape(-1)
    n = xf.size
    data = np.empty_like(xf)
    record = _will_record((x,))
    dydx = np.empty_like(xf) if record else data
    z2, p, q = (np.empty(min(n, _BLOCK), dtype=xf.dtype) for _ in range(3))
    for s in _blocks(n):
        m = s.stop - s.start
        cdf = _normal_cdf(xf[s], dydx[s], z2[:m], p[:m], q[:m])
        np.multiply(xf[s], cdf, out=data[s])
        if record:  # cdf += x * phi(x)
            pdf = np.multiply(xf[s], xf[s], out=z2[:m])
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf *= _INV_SQRT2PI
            pdf *= xf[s]
            cdf += pdf

    def vjp(g):
        return (np.multiply(dydx, np.ascontiguousarray(g).reshape(-1)).reshape(shape),)

    return _make(data.reshape(shape), (x,), vjp)


def clip(x, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only strictly inside."""
    x = _as_tensor(x)
    data = np.clip(x.data, lo, hi)

    def vjp(g):
        return (g * ((data > lo) & (data < hi)),)

    return _make(data, (x,), vjp)


# -- reductions and shape ops ------------------------------------------------


def sum_(x, axis=None, weights=None):
    """Sum of x, or of x * weights, over axis.

    weights is an optional constant array broadcast onto x (pooling's frame
    mask); it is applied in the op's own buffer, records no node and gets no
    gradient.
    """
    x = _as_tensor(x)
    if weights is not None:
        weights = np.asarray(weights, dtype=x.data.dtype)
    data = (x.data if weights is None else x.data * weights).sum(axis=axis)
    shape, dtype = x.shape, x.data.dtype

    def vjp(g):
        if axis is None:
            gx = np.broadcast_to(g, shape).astype(dtype, copy=True)
        else:
            gx = np.broadcast_to(np.expand_dims(g, axis), shape).copy()
        if weights is not None:
            gx *= weights
        return (gx,)

    return _make(data, (x,), vjp)


def mean_(x):
    x = _as_tensor(x)
    return mul(sum_(x), 1.0 / x.data.size)


def reshape(x, shape):
    x = _as_tensor(x)
    data = x.data.reshape(shape)
    x_shape = x.shape

    def vjp(g):
        return (g.reshape(x_shape),)

    return _make(data, (x,), vjp)


def transpose(x, axes):
    x = _as_tensor(x)
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _make(data, (x,), vjp)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tuple(tensors), vjp)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b):
    """Matrix product with numpy batch broadcasting on leading axes.

    backward accumulates dA = dC @ B^T and dB = A^T @ dC, reduced over any
    broadcast batch dimensions.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    data = ad @ bd

    def vjp(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _sum_to_shape(ga, ad.shape), _sum_to_shape(gb, bd.shape)

    return _make(data, (a, b), vjp)


def softmax_rows(x, scale=1.0, bias=None):
    """Row-wise softmax of x * scale + bias over the last axis, with max subtraction.

    scale is a constant; bias is an optional constant array broadcast onto x
    (attention's key mask: 0 on real keys, -inf on masked ones). Both are
    applied in the one buffer the softmax is computed in, so neither records
    a node of its own.
    """
    x = _as_tensor(x)
    scale = x.data.dtype.type(scale)
    s = np.multiply(x.data, scale)
    if bias is not None:
        s += bias
    m = s.max(axis=-1, keepdims=True)
    if np.isnan(m).any():  # the row max is NaN exactly where a row holds one
        raise NumericError("softmax input contains NaN")
    s -= m
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        gx = g - dot
        gx *= s
        gx *= scale
        return (gx,)

    return _make(s, (x,), vjp)


def layer_norm(x, gain, bias):
    """Per-row (last axis) normalization to zero mean/unit variance, then affine.

    Uses the population variance with LN_EPS inside the square root. Works
    in place over blocks of whole (T, d) items (the last two axes), as many
    as fit in _BLOCK elements and at least one: each item's row means stay
    one BLAS matvec, so the result does not depend on the blocking. Without
    a tape the normalized rows go straight into the output and are not kept.
    """
    x = _as_tensor(x)
    gain = _as_tensor(gain, x)
    bias = _as_tensor(bias, x)
    d = x.shape[-1]
    if d < 2:
        raise ShapeError(f"layer_norm needs at least 2 features per row, got {d}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {d}")
    xs = np.atleast_2d(x.data)
    xs = xs.reshape((-1,) + xs.shape[-2:])
    n, rows = xs.shape[:2]
    per = max(1, _BLOCK // (rows * d))
    # last-axis means as a BLAS matvec, faster than ndarray.mean on these shapes
    avg = np.full((d, 1), 1.0 / d, dtype=xs.dtype)
    data = np.empty(xs.shape, dtype=xs.dtype)
    xhat = np.empty_like(data) if _will_record((x, gain, bias)) else data
    inv = np.empty((n, rows, 1), dtype=xs.dtype)
    work = np.empty_like(data[:per])
    for s in _blocks(n, per):
        xh, sq = xhat[s], work[: s.stop - s.start]
        np.subtract(xs[s], xs[s] @ avg, out=xh)
        var = np.multiply(xh, xh, out=sq) @ avg
        var += LN_EPS
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=inv[s])
        xh *= inv[s]
        np.multiply(xh, gain.data, out=data[s])
        data[s] += bias.data

    shape, gd = x.shape, gain.data  # the vjp reads xhat and inv, not x

    def vjp(g):
        dgain = _sum_to_shape(g * xhat.reshape(shape), (d,))
        dbias = _sum_to_shape(g, (d,))
        gs = g.reshape(xhat.shape)
        dx = np.empty_like(xhat)
        work = np.empty_like(xhat[:per])
        for s in _blocks(n, per):
            dxh, sq = dx[s], work[: s.stop - s.start]
            np.multiply(gs[s], gd, out=dxh)
            m1 = dxh @ avg
            m2 = np.multiply(dxh, xhat[s], out=sq) @ avg
            dxh -= m1
            dxh -= np.multiply(xhat[s], m2, out=sq)
            dxh *= inv[s]
        return dx.reshape(shape), dgain, dbias

    return _make(data.reshape(shape), (x, gain, bias), vjp)


def _overlap_add(gcol, t, stride, dtype):
    """Sum (B, T', K, C) window gradients onto the (B, t, C) dtype samples the windows read.

    Tap kk of window j lands on sample stride * j + kk, and every sample
    sums its taps in ascending kk order, bitwise as adding them one by one
    onto zeros. The first min(K, stride) taps never overlap, so they are
    written through a (T', stride) view of the samples as 0.0 + tap (which
    turns -0.0 into 0.0, as adding onto zeros does); the other taps are then
    added in order.
    """
    bsz, tp, k, cin = gcol.shape
    gx = np.empty((bsz, t, cin), dtype=dtype)
    n = min(k, stride)
    rows = min(tp, t // stride)  # windows whose whole stride-row lies inside the samples
    head = gx[:, : stride * rows].reshape(bsz, rows, stride, cin)
    np.add(gcol[:, :rows, :n], 0.0, out=head[:, :, :n])
    head[:, :, n:] = 0.0  # k < stride: samples between windows
    tail = gx[:, stride * rows :]
    tail[...] = 0.0
    if rows < tp:  # k < stride: the last window starts in a tail shorter than a stride
        np.add(gcol[:, rows], 0.0, out=tail[:, :k])
    span = stride * (tp - 1) + 1
    for kk in range(n, k):
        gx[:, kk : kk + span : stride] += gcol[:, :, kk]
    return gx


def _im2col(x, k, stride):
    """(B, T, C_in) -> (B, T', K*C_in) windows, k-major to match w.reshape(K*C_in, C_out)."""
    bsz, _, cin = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)[:, ::stride]  # (B, T', C_in, K)
    return np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(bsz, win.shape[1], k * cin)


def conv1d(x, w, b, stride):
    """Valid (no padding) strided 1D convolution.

    x: (B, T, C_in), w: (K, C_in, C_out), b: (C_out,). Output frames are
    1 + floor((T - K) / stride). The im2col windows are not kept for
    backward: the vjp rebuilds them from x, bitwise the same, for the weight
    gradient, and builds the input gradient only when x needs one.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    b = _as_tensor(b)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects (B,T,C) x (K,C,O), got {x.shape} x {w.shape}")
    bsz, t, cin = x.shape
    k, cw, cout = w.shape
    if cw != cin:
        raise ShapeError(f"conv1d channel mismatch: input {cin} vs kernel {cw}")
    if t < k:
        raise ShapeError(f"conv1d input of {t} samples is shorter than kernel {k}")
    stride = int(stride)
    tp = (t - k) // stride + 1
    xd = x.data
    w2 = w.data.reshape(k * cin, cout)
    data = _im2col(xd, k, stride) @ w2
    data += b.data
    need_x = x.requires_grad

    def vjp(g):
        # the rebuilt windows are a temporary, freed before gx's taps are built
        gw = _im2col(xd, k, stride).reshape(bsz * tp, k * cin).T @ g.reshape(bsz * tp, cout)
        gb = g.sum(axis=(0, 1))
        gx = None
        if need_x:  # not for the waveform
            gx = _overlap_add((g @ w2.T).reshape(bsz, tp, k, cin), t, stride, xd.dtype)
        return gx, gw.reshape(k, cin, cout), gb

    return _make(data, (x, w, b), vjp)


def dropout(x, p, rng):
    """Inverted dropout: scales kept values by 1/(1-p). Call only in training."""
    x = _as_tensor(x)
    if p <= 0.0:
        return x
    if p >= 1.0:
        raise ContractError(f"dropout probability must be < 1, got {p}")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / np.asarray(1.0 - p, dtype=x.data.dtype)

    def vjp(g):
        return (g * mask,)

    return _make(x.data * mask, (x,), vjp)


# -- backward pass -----------------------------------------------------------


def backward(loss):
    """Populate .grad on every reachable leaf that requires gradients, consuming the graph.

    loss must be a scalar built from recorded operations. The walk goes over
    tape nodes, not tensors: a node holds its inputs' nodes, its vjp and its
    output's shape and dtype, so the data of any tensor the caller dropped
    is already gone unless a vjp reads it. Each node's vjp runs once, after
    which the node drops its vjp (and the buffers that closure saved) and
    its parents, so memory falls as the walk goes down the graph.
    Backpropagating through a consumed node raises ContractError before any
    .grad changes. A leaf tensor is its own node; its .grad buffer
    accumulates across separately built graphs until it is zeroed.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = _node_of(loss)
    if root is None:
        return

    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node is None or id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            if node.vjp is None:  # consumed by an earlier backward(); raise before any gradient flows
                raise ContractError(
                    "this graph was already backpropagated: backward() frees the graph it walks, "
                    "so sum the losses and call backward() once"
                )
            stack.extend((p, False) for p in node.parents)

    # once popped, a node is held only by these locals, so it and the buffers
    # its vjp saved are freed when the next iteration rebinds them
    flow = {id(root): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = flow.pop(id(node), None)
        if isinstance(node, Tensor):
            if g is not None:  # leaf: accumulate into the persistent buffer
                node.grad = g if node.grad is None else node.grad + g
            continue
        vjp, parents = node.vjp, node.parents
        node.vjp, node.parents = None, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or parent is None:
                continue
            if pg.shape != parent.shape or pg.dtype != parent.dtype:
                op = vjp.__qualname__.rsplit(".<locals>.", 1)[0]
                raise ContractError(
                    f"{op} backward gave a {pg.dtype} gradient of shape {pg.shape} "
                    f"for a {parent.dtype} input of shape {parent.shape}"
                )
            key = id(parent)
            flow[key] = pg if key not in flow else flow[key] + pg
