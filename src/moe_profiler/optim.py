"""Adam optimizer over named parameter tensors."""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Moment buffers and step counter; step counts completed updates."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class Adam:
    """Bias-corrected Adam; updates parameters in place from their .grad buffers."""

    def __init__(self, params: dict, lr: float):
        self.params = {n: p for n, p in params.items() if isinstance(p, Tensor) and p.requires_grad}
        self.lr = lr
        self.state = AdamState(
            step=0,
            m={n: np.zeros_like(p.data) for n, p in self.params.items()},
            v={n: np.zeros_like(p.data) for n, p in self.params.items()},
        )

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        st = self.state
        st.step += 1
        bc1 = 1.0 - BETA1 ** st.step
        bc2 = 1.0 - BETA2 ** st.step
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            m = st.m[name] = BETA1 * st.m[name] + (1.0 - BETA1) * g
            v = st.v[name] = BETA2 * st.v[name] + (1.0 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
