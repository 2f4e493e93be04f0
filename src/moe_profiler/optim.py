"""Adam optimizer over named parameter tensors."""

import numpy as np

from .errors import NumericError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam; updates parameters in place from their .grad buffers."""

    def __init__(self, params: dict, lr: float):
        self.params = {n: p for n, p in params.items() if isinstance(p, Tensor) and p.requires_grad}
        self.lr = lr
        self.steps = 0  # completed updates; m and v hold each parameter's moments by name
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.steps += 1
        bc1 = 1.0 - BETA1 ** self.steps
        bc2 = 1.0 - BETA2 ** self.steps
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
