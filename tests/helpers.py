"""Shared test oracles: finite differences and brute-force DSP references.

These stay independent of the implementation paths they check: gradients
come from central differences, spectra from an explicit DFT sum, cepstra
from an explicit cosine-sum DCT.
"""

import numpy as np

from moe_profiler.tensor import no_grad

FD_EPS = 1e-5


def numeric_grads(f, arrays, eps=FD_EPS):
    """Central-difference gradients of scalar f() w.r.t. arrays mutated in place.

    f() runs under no_grad(): only its value is read, and forward values do
    not depend on whether a tape is recorded.
    """
    grads = []
    with no_grad():
        for a in arrays:
            g = np.zeros_like(a)
            flat = a.reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f()
                flat[i] = orig - eps
                fm = f()
                flat[i] = orig
                gf[i] = (fp - fm) / (2.0 * eps)
            grads.append(g)
    return grads


def rel_err(a, b, atol=1e-6):
    """Max elementwise |a-b| / (|a| + |b|), skipping pairs below atol.

    Pairs where both sides sit under atol count as agreeing zeros: central
    differences resolve a true zero gradient only up to roundoff noise
    (~1e-9 here), which would otherwise dominate the ratio.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mask = (np.abs(a) > atol) | (np.abs(b) > atol)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a - b)[mask] / (np.abs(a) + np.abs(b) + 1e-8)[mask]))


def check_op_grads(build, params, tol=1e-4):
    """Compare backward() gradients of build() against central differences.

    build: closure returning a fresh scalar Tensor from the given Tensors;
    params: dict name -> Tensor (float64) whose .data is perturbed in place.
    Returns the worst relative error seen.
    """
    loss = build()
    for p in params.values():
        p.zero_grad()
    loss.backward()
    analytic = {}
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        analytic[name] = p.grad.copy()

    def f():
        return float(build().data)

    worst = 0.0
    for name, p in params.items():
        (num,) = numeric_grads(f, [p.data])
        err = rel_err(analytic[name], num)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e} >= {tol}"
        worst = max(worst, err)
    return worst


# -- brute-force DSP references ----------------------------------------------


def brute_dft_power(frame, nfft):
    """|DFT|^2 on bins 0..nfft/2 via explicit sums (frame zero-padded)."""
    frame = np.asarray(frame, dtype=np.float64)
    n = np.arange(len(frame))
    out = np.zeros(nfft // 2 + 1)
    for k in range(nfft // 2 + 1):
        ang = -2.0 * np.pi * k * n / nfft
        re = float(np.sum(frame * np.cos(ang)))
        im = float(np.sum(frame * np.sin(ang)))
        out[k] = re * re + im * im
    return out


def brute_dct2_ortho(v):
    """Orthonormal DCT-II via explicit cosine sums."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    out = np.zeros(n)
    for k in range(n):
        out[k] = np.sum(v * np.cos(np.pi * (2.0 * np.arange(n) + 1.0) * k / (2.0 * n)))
    out *= np.sqrt(2.0 / n)
    out[0] /= np.sqrt(2.0)
    return out


def brute_mel_weights(n_mels, nfft, sample_rate):
    """Triangular mel filters built with explicit loops (HTK mel scale)."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [from_mel(m) for m in np.linspace(0.0, to_mel(sample_rate / 2.0), n_mels + 2)]
    weights = np.zeros((n_mels, nfft // 2 + 1))
    for j in range(n_mels):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        for i in range(nfft // 2 + 1):
            hz = i * sample_rate / nfft
            if lo < hz <= mid:
                weights[j, i] = (hz - lo) / (mid - lo)
            elif mid < hz < hi:
                weights[j, i] = (hi - hz) / (hi - mid)
            elif hz == mid:
                weights[j, i] = 1.0
    return weights


def brute_log_mel_frame(samples, frame_index, sample_rate=16000, nfft=512, n_mels=80):
    """Log-mel energies of one 25 ms/10 ms frame, recomputed from scratch."""
    x = np.asarray(samples, dtype=np.float64)
    y = np.concatenate([[x[0]], x[1:] - 0.97 * x[:-1]])
    flen, fshift = 400, 160
    start = frame_index * fshift
    frame = y[start : start + flen] * np.hamming(flen)
    power = brute_dft_power(frame, nfft)
    mel = brute_mel_weights(n_mels, nfft, sample_rate)
    energies = mel @ power
    return np.log(np.maximum(energies, 1e-10))


def brute_delta_row(static_rows, center=2):
    """Window +/-2 regression delta for the middle row of a 5-row stack."""
    s = np.asarray(static_rows, dtype=np.float64)
    return ((s[center + 1] - s[center - 1]) + 2.0 * (s[center + 2] - s[center - 2])) / 10.0


def tone_wave(freq_hz, seconds=1.0, sample_rate=16000, amp=0.4):
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    return amp * np.sin(2.0 * np.pi * freq_hz * t)


def write_sphere(path, samples, rate=16000, byte_format="01", coding="pcm"):
    """Minimal NIST SPHERE writer for ingestion tests."""
    pcm = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767)
    data = pcm.astype(">i2" if byte_format == "10" else "<i2").tobytes()
    header = (
        "NIST_1A\n   1024\n"
        f"sample_rate -i {rate}\n"
        "channel_count -i 1\n"
        "sample_n_bytes -i 2\n"
        f"sample_count -i {len(samples)}\n"
        f"sample_byte_format -s{len(byte_format)} {byte_format}\n"
        f"sample_coding -s{len(coding)} {coding}\n"
        "end_head\n"
    ).encode("ascii")
    with open(path, "wb") as f:
        f.write(header + b" " * (1024 - len(header)))
        f.write(data)
