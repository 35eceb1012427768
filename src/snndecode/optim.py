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
from .network import NetworkParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

_FIELDS = ("weight", "tau", "gamma", "beta")


@dataclass
class AdamWState:
    """First/second moment accumulators and the shared step counter."""

    step: int
    m: list        # one dict per layer: field name -> accumulator array
    v: list


def _param_arrays(layer):
    return {
        "weight": layer.weight,
        "tau": layer.tau,
        "gamma": layer.norm.gamma,
        "beta": layer.norm.beta,
    }


def adamw_init(params: NetworkParams) -> AdamWState:
    """Zeroed optimizer state matching the parameter shapes."""
    m, v = [], []
    for layer in params.layers:
        arrays = _param_arrays(layer)
        m.append({k: np.zeros_like(a) for k, a in arrays.items()})
        v.append({k: np.zeros_like(a) for k, a in arrays.items()})
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
        arrays = _param_arrays(layer)
        grad_arrays = {
            "weight": grad.weight,
            "tau": grad.tau,
            "gamma": grad.gamma,
            "beta": grad.beta,
        }
        layer_m, layer_v = {}, {}
        for name in _FIELDS:
            p = arrays[name]
            g = np.asarray(grad_arrays[name], dtype=p.dtype)
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
