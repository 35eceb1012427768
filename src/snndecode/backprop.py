"""Manual reverse-mode pass through the unfolded decoder.

The forward pass is a chain of matmuls, pooled normalizations, and two
kinds of membrane recurrence (spiking hidden layers, integrator
readout).  :func:`backward` walks that chain in reverse, layer-major
like the forward: for each layer it first resolves the time recurrence
back to front, then the normalizer, then the weights, handing the
remaining gradient to the layer below.

Spike generation is a step function, so its true derivative is useless;
gradient crosses it through the box-window surrogate.  What `backward`
computes is therefore the exact gradient of the *linearized* network,
with every spike replaced by its first-order model around the recorded
trajectory; the test suite checks it against a scalar tape autodiff and
against central differences of that linearized network.

The weight and input gradients are products over the flattened
(batch * time) rows and over the layer width.  They go through the same
fixed-depth blocked product as the training forward, so a trained model
is bit-identical at any BLAS thread count, whatever the layer widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batchnorm
from .errors import NumericError
from .network import (
    NetworkParams,
    NetworkSpec,
    TrainingCache,
    _blocked_gemm,
    _layer_normalized,
)
from .neuron import RESET_SUBTRACT, surrogate_grad


@dataclass
class LayerGrads:
    """Gradient of the loss w.r.t. one layer's parameters."""

    weight: np.ndarray
    tau: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class Gradients:
    """Per-layer gradients, same nesting as the parameter set."""

    layers: list

    def scale(self, factor: float) -> "Gradients":
        return Gradients([
            LayerGrads(g.weight * factor, g.tau * factor,
                       g.gamma * factor, g.beta * factor)
            for g in self.layers
        ])


def window_loss(predictions: np.ndarray, targets: np.ndarray,
                warmup_discard: int) -> float:
    """Mean squared error over the kept tail of each window.

    The first ``warmup_discard`` frames of every window are excluded:
    the decoder state is still settling there.  The mean runs over every
    remaining (sample, frame, output) entry.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} != target shape "
            f"{targets.shape}"
        )
    T = predictions.shape[-2]
    if not 0 <= warmup_discard < T:
        raise ValueError(
            f"warmup_discard={warmup_discard} must lie in [0, {T})"
        )
    diff = predictions[..., warmup_discard:, :] - targets[..., warmup_discard:, :]
    return float(np.mean(diff * diff))


def _loss_grad(predictions, targets, warmup_discard):
    """d window_loss / d predictions, zero on the discarded frames."""
    grad = np.zeros_like(predictions)
    kept = predictions[..., warmup_discard:, :]
    n_terms = kept.size
    grad[..., warmup_discard:, :] = (
        2.0 * (kept - targets[..., warmup_discard:, :]) / n_terms
    )
    return grad


def backward(cache: TrainingCache, params: NetworkParams, spec: NetworkSpec,
             targets: np.ndarray, warmup_discard: int = 0) -> Gradients:
    """Gradients of the windowed loss for every parameter.

    ``cache`` must come from ``forward_unfolded(..., mode="train")`` on
    the same parameters; training-mode normalization statistics are part
    of the differentiated graph.  Gradient flows through the spike
    nonlinearity via the box surrogate, through the membrane recurrence
    (including the reset term), through the pooled normalizer, and into
    weights, decay factors, and the normalizer's affine parameters,
    accumulated over batch and time.
    """
    if cache.mode != batchnorm.TRAIN:
        raise ValueError("backward needs a training-mode forward cache")
    if len(cache.potentials) != spec.n_layers:
        raise ValueError("cache does not match the network topology")

    preds = cache.potentials[-1]
    targets = np.asarray(targets, dtype=preds.dtype)
    if targets.ndim == 2:
        targets = targets[None]
    if targets.shape != preds.shape:
        raise ValueError(
            f"target shape {targets.shape} does not match predictions "
            f"{preds.shape}"
        )
    B, T, _ = preds.shape
    thr = spec.threshold

    grads = [None] * spec.n_layers
    grad_fed = None                               # dL/d(activation into layer)
    for l in reversed(range(spec.n_layers)):
        layer = params.layers[l]
        tau = layer.tau
        u = cache.potentials[l]
        is_output = l == spec.n_layers - 1

        grad_norm = np.empty_like(u)              # dL/d(normalized current)
        grad_tau = np.zeros_like(tau)
        if is_output:
            dpred = _loss_grad(preds, targets, warmup_discard)
            gu_next = np.zeros_like(u[:, 0, :])
            for t in reversed(range(T)):
                gu = dpred[:, t, :] + gu_next * tau
                if t > 0:
                    grad_tau += (gu * u[:, t - 1, :]).sum(axis=0)
                grad_norm[:, t, :] = gu
                gu_next = gu
        else:
            s = cache.spikes[l]
            mask = cache.masks[l]
            grad_spike = grad_fed * mask if mask is not None else grad_fed
            gu_next = np.zeros_like(u[:, 0, :])
            for t in reversed(range(T)):
                window = surrogate_grad(u[:, t, :], thr)
                if spec.reset_mode == RESET_SUBTRACT:
                    gs = grad_spike[:, t, :] - gu_next * (tau * thr)
                    gu = gs * window + gu_next * tau
                    if t > 0:
                        dtau_t = u[:, t - 1, :] - thr * s[:, t - 1, :]
                        grad_tau += (gu * dtau_t).sum(axis=0)
                else:
                    gs = grad_spike[:, t, :] - gu_next * (tau * u[:, t, :])
                    gu = gs * window + gu_next * (tau * (1.0 - s[:, t, :]))
                    if t > 0:
                        dtau_t = u[:, t - 1, :] * (1.0 - s[:, t - 1, :])
                        grad_tau += (gu * dtau_t).sum(axis=0)
                grad_norm[:, t, :] = gu
                gu_next = gu

        if _layer_normalized(spec, l):
            grad_cur, grad_gamma, grad_beta = batchnorm.tdbn_backward(
                grad_norm, cache.xhat[l], cache.inv_std[l],
                layer.norm.gamma, thr)
        else:
            grad_cur = grad_norm
            grad_gamma = np.zeros_like(layer.norm.gamma)
            grad_beta = np.zeros_like(layer.norm.beta)

        act_in = cache.fed[l - 1] if l > 0 else cache.inputs
        grad_rows = grad_cur.reshape(B * T, -1)
        grad_weight = _blocked_gemm(grad_rows.T, act_in.reshape(B * T, -1))
        if l > 0:                   # the network input needs no gradient
            grad_fed = _blocked_gemm(grad_rows, layer.weight)
            grad_fed = grad_fed.reshape(act_in.shape)

        bad = ~np.isfinite(grad_weight).all() or ~np.isfinite(grad_tau).all()
        if bad or not np.isfinite(grad_cur).all():
            t_bad = 0
            nonfinite = ~np.isfinite(grad_cur).all(axis=(0, 2))
            if nonfinite.any():
                t_bad = int(np.argmax(nonfinite))
            raise NumericError(
                f"non-finite gradient in layer {l} around timestep {t_bad}"
            )

        grads[l] = LayerGrads(weight=grad_weight, tau=grad_tau,
                              gamma=grad_gamma, beta=grad_beta)

    return Gradients(grads)
