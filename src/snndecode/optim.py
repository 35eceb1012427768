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
from .network import TRAINED, NetworkParams

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
    m, v = [], []
    for layer in params.layers:
        arrays = layer.arrays()
        m.append({name: np.zeros_like(arrays[name]) for name in TRAINED})
        v.append({name: np.zeros_like(arrays[name]) for name in TRAINED})
    return AdamWState(step=0, m=m, v=v)


def adamw_step(params: NetworkParams, grads: Gradients, state: AdamWState,
               *, learning_rate: float, weight_decay: float):
    """One optimizer step; returns ``(new_params, new_state)``.

    Decoupled decay multiplies weights by ``1 - lr * weight_decay``
    independently of the gradient; decay factors are clamped to [0, 1]
    afterwards.  Inputs are left untouched.  A step whose update overflows
    (a finite gradient near the largest float can do that) raises
    :class:`NumericError` instead of returning a non-finite parameter.
    """
    new_params = params.copy()
    t = state.step + 1
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t

    new_m, new_v = [], []
    for l, (layer, grad, m, v) in enumerate(zip(
            new_params.layers, grads.layers, state.m, state.v)):
        arrays = layer.arrays()
        layer_m, layer_v = {}, {}
        for name in TRAINED:
            p = arrays[name]
            g = np.asarray(getattr(grad, name), dtype=p.dtype)
            if name == "weight" and weight_decay:
                p *= 1.0 - learning_rate * weight_decay
            layer_m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
            layer_v[name] = BETA2 * v[name] + (1.0 - BETA2) * (g * g)
            m_hat = layer_m[name] / bias1
            v_hat = layer_v[name] / bias2
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
            if not np.isfinite(p).all():
                raise NumericError(
                    f"AdamW step {t} left a non-finite {name} in layer {l}")
        np.clip(layer.tau, 0.0, 1.0, out=layer.tau)
        new_m.append(layer_m)
        new_v.append(layer_v)

    return new_params, AdamWState(step=t, m=new_m, v=new_v)
