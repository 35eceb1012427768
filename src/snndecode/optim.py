"""AdamW with decoupled weight decay, plus the decay-factor clamp.

Weight decay touches only the weight matrices: the per-neuron decay
factors and the normalizer's affine parameters are excluded, and decay
factors are clamped back into [0, 1] after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backprop import Gradients
from .errors import NumericError
from .network import TRAINED, NetworkParams, _check_writable

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    """First/second moment accumulators and the shared step counter."""

    step: int
    m: list        # one dict per layer: array name -> accumulator array
    v: list


def adamw_init(params: NetworkParams) -> AdamWState:
    """Zeroed optimizer state matching the parameter shapes."""
    m = [{name: np.zeros_like(getattr(layer, name)) for name in TRAINED}
         for layer in params.layers]
    v = [{name: np.zeros_like(a) for name, a in moments.items()}
         for moments in m]
    return AdamWState(step=0, m=m, v=v)


def adamw_step(params: NetworkParams, grads: Gradients, state: AdamWState,
               *, learning_rate: float, weight_decay: float) -> None:
    """One optimizer step, in place: updates ``params`` and the moments of
    ``state`` and advances its step counter.

    Decoupled decay multiplies weights by ``1 - lr * weight_decay``
    independently of the gradient; decay factors are clamped to [0, 1]
    afterwards.  The gradients are left untouched.  A step whose update
    overflows (a finite gradient near the largest float can do that)
    raises :class:`NumericError`; the parameters are then partly updated
    and must not be used.  A decoded, read-only set is refused with
    ``ValueError`` before anything is written.
    """
    _check_writable(params, TRAINED)
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t

    for l, (layer, grad, m, v) in enumerate(zip(
            params.layers, grads.layers, state.m, state.v)):
        for name in TRAINED:
            p = getattr(layer, name)
            g = np.asarray(getattr(grad, name), dtype=p.dtype)
            if name == "weight" and weight_decay:
                p *= 1.0 - learning_rate * weight_decay
            m[name] *= BETA1
            m[name] += (1.0 - BETA1) * g
            v[name] *= BETA2
            v[name] += (1.0 - BETA2) * (g * g)
            m_hat = m[name] / bias1
            v_hat = v[name] / bias2
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
            if not np.isfinite(p).all():
                raise NumericError(
                    f"AdamW step {t} left a non-finite {name} in layer {l}")
        np.clip(layer.tau, 0.0, 1.0, out=layer.tau)
