"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed tape: every operation records its input tensors and a
backward closure, and ``backward()`` on a scalar walks the recorded graph in
reverse topological order. Gradients accumulate into ``.grad`` buffers across
repeated backward calls until they are explicitly zeroed, which keeps
multi-loss graphs explicit. Inside ``no_grad()`` no tape is recorded, so
a forward-only pass frees each intermediate array as soon as the next op has
used it.

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
    """A dense float array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

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

    Ops return tensors with no parents and no vjp, so nothing built inside
    can be backpropagated. Recording resumes when the block exits, also
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
    out = Tensor(data)
    if _will_record(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
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

    def vjp(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape)

    return _make(data, (a, b), vjp)


def sub(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    data = a.data - b.data

    def vjp(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(-g, b.shape)

    return _make(data, (a, b), vjp)


def mul(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    data = a.data * b.data

    def vjp(g):
        return _sum_to_shape(g * b.data, a.shape), _sum_to_shape(g * a.data, b.shape)

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
    data = np.log(x.data)

    def vjp(g):
        return (g / x.data,)

    return _make(data, (x,), vjp)


def sqrt(x):
    """Elementwise square root; the derivative is taken as 0 at x == 0."""
    x = _as_tensor(x)
    data = np.sqrt(x.data)

    def vjp(g):
        denom = 2.0 * data
        safe = np.where(denom == 0.0, 1.0, denom)
        return (np.where(x.data > 0.0, g / safe, 0.0),)

    return _make(data, (x,), vjp)


def relu(x):
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (x.data > 0.0),)

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
    is the closed form g * (Phi(x) + x * phi(x)) with the exact normal pdf
    phi. Without a tape Phi is computed into the output and not kept.
    """
    x = _as_tensor(x)
    xf = np.ascontiguousarray(x.data).reshape(-1)
    n = xf.size
    data = np.empty_like(xf)
    cdf = np.empty_like(xf) if _will_record((x,)) else data
    z2, p, q = (np.empty(min(n, _BLOCK), dtype=xf.dtype) for _ in range(3))
    for s in _blocks(n):
        m = s.stop - s.start
        _normal_cdf(xf[s], cdf[s], z2[:m], p[:m], q[:m])
        np.multiply(xf[s], cdf[s], out=data[s])

    def vjp(g):
        gf = np.ascontiguousarray(g).reshape(-1)
        gx = np.empty_like(xf)
        for s in _blocks(n):
            out = np.multiply(xf[s], xf[s], out=gx[s])
            out *= -0.5
            np.exp(out, out=out)
            out *= _INV_SQRT2PI
            out *= xf[s]
            out += cdf[s]
            out *= gf[s]
        return (gx.reshape(x.shape),)

    return _make(data.reshape(x.shape), (x,), vjp)


def clip(x, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only strictly inside."""
    x = _as_tensor(x)
    data = np.clip(x.data, lo, hi)

    def vjp(g):
        inside = (x.data > lo) & (x.data < hi)
        return (g * inside,)

    return _make(data, (x,), vjp)


# -- reductions and shape ops ------------------------------------------------


def sum_(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.data.dtype, copy=True),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _make(data, (x,), vjp)


def mean_(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        n = x.shape[axis]
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x, shape):
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

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
    data = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _sum_to_shape(ga, a.shape), _sum_to_shape(gb, b.shape)

    return _make(data, (a, b), vjp)


def softmax_rows(x):
    """Row-wise softmax over the last axis, computed with max subtraction."""
    x = _as_tensor(x)
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

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

    def vjp(g):
        dgain = _sum_to_shape(g * xhat.reshape(x.shape), gain.shape)
        dbias = _sum_to_shape(g, bias.shape)
        gs = g.reshape(xs.shape)
        dx = np.empty_like(xhat)
        work = np.empty_like(xhat[:per])
        for s in _blocks(n, per):
            dxh, sq = dx[s], work[: s.stop - s.start]
            np.multiply(gs[s], gain.data, out=dxh)
            m1 = dxh @ avg
            m2 = np.multiply(dxh, xhat[s], out=sq) @ avg
            dxh -= m1
            dxh -= np.multiply(xhat[s], m2, out=sq)
            dxh *= inv[s]
        return dx.reshape(x.shape), dgain, dbias

    return _make(data.reshape(x.shape), (x, gain, bias), vjp)


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


def conv1d(x, w, b, stride):
    """Valid (no padding) strided 1D convolution.

    x: (B, T, C_in), w: (K, C_in, C_out), b: (C_out,). Output frames are
    1 + floor((T - K) / stride).
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
    win = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)[:, ::stride]
    # (B, T', C_in, K) -> (B, T', K*C_in), k-major to match w.reshape
    col = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(bsz, tp, k * cin)
    w2 = w.data.reshape(k * cin, cout)
    data = col @ w2
    data += b.data

    def vjp(g):
        gw2 = col.reshape(bsz * tp, k * cin).T @ g.reshape(bsz * tp, cout)
        gb = g.sum(axis=(0, 1))
        gx = None
        if x.requires_grad:  # not for the waveform or a layer above frozen ones
            gx = _overlap_add((g @ w2.T).reshape(bsz, tp, k, cin), t, stride, x.data.dtype)
        return gx, gw2.reshape(w.shape), gb

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
    """Populate .grad on every reachable leaf that requires gradients.

    loss must be a scalar built from recorded operations. Repeated calls
    accumulate into .grad until the buffers are zeroed.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    flow = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            # leaf: accumulate into the persistent buffer
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.data.shape or pg.dtype != parent.data.dtype:
                op = node._vjp.__qualname__.rsplit(".<locals>.", 1)[0]
                raise ContractError(
                    f"{op} backward gave a {pg.dtype} gradient of shape {pg.shape} "
                    f"for a {parent.data.dtype} input of shape {parent.data.shape}"
                )
            key = id(parent)
            flow[key] = pg if key not in flow else flow[key] + pg
