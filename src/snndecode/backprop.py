"""Manual reverse-mode pass through the unfolded decoder.

The forward pass is a chain of matmuls, pooled normalizations, and two
kinds of membrane recurrence (spiking hidden layers, integrator
readout).  :func:`backward` walks that chain in reverse, layer-major
like the forward: for each layer it first resolves the time recurrence
back to front, then the normalizer, then the weights, handing the
remaining gradient to the layer below.

Spike generation is a step function, so its true derivative is useless;
gradient crosses it through the box-window surrogate.  The companion
:func:`numeric_grad_oracle` differentiates the matching *linearized*
network (spikes replaced by their first-order model around a recorded
trajectory) by central differences, which is the correct reference for
what `backward` computes.

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
    if len(cache.currents) != spec.n_layers:
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


def _linearized_loss(weights, taus, gammas, betas, spec, window, targets,
                     masks, anchors, warmup_discard):
    """Loss of the spike-linearized network at the given raw parameters.

    ``anchors`` holds, per hidden layer, the recorded ``(u_ref, s_ref,
    g_ref)`` trajectory; each spike is replaced by
    ``s_ref + g_ref * (u - u_ref)``, the first-order model whose exact
    gradient the analytic backward pass computes.  Everything runs in
    float64, training-mode normalization statistics included.
    """
    act = window
    B, T, _ = window.shape
    preds = None
    for l in range(spec.n_layers):
        is_output = l == spec.n_layers - 1
        width = weights[l].shape[0]
        cur = np.einsum("bti,ji->btj", act, weights[l])
        if _layer_normalized(spec, l):
            mean, var = batchnorm.batch_stats(cur)
            normed, _, _ = batchnorm.normalize(
                cur, mean, var, gammas[l], betas[l], spec.threshold,
                spec.bn_eps)
        else:
            normed = cur

        if is_output:
            preds = np.empty((B, T, width))
            u_t = np.zeros((B, width))
            for t in range(T):
                u_t = taus[l] * u_t + normed[:, t, :]
                preds[:, t, :] = u_t
        else:
            u_ref, s_ref, g_ref = anchors[l]
            out = np.empty((B, T, width))
            u_t = np.zeros((B, width))
            s_t = np.zeros((B, width))
            for t in range(T):
                if spec.reset_mode == RESET_SUBTRACT:
                    u_t = taus[l] * (u_t - s_t * spec.threshold) + normed[:, t, :]
                else:
                    u_t = taus[l] * (u_t * (1.0 - s_t)) + normed[:, t, :]
                s_t = s_ref[:, t, :] + g_ref[:, t, :] * (u_t - u_ref[:, t, :])
                out[:, t, :] = s_t
            act = out * masks[l] if masks[l] is not None else out

    diff = preds[:, warmup_discard:, :] - targets[:, warmup_discard:, :]
    return float(np.mean(diff * diff))


def numeric_grad_oracle(params: NetworkParams, spec: NetworkSpec,
                        window: np.ndarray, targets: np.ndarray,
                        coordinate, *, warmup_discard: int = 0,
                        masks=None, h: float = 1e-3) -> float:
    """Central-difference derivative of the linearized-network loss.

    ``coordinate`` is ``(layer_index, field, flat_index)`` with field one
    of ``"weight"``, ``"tau"``, ``"gamma"``, ``"beta"``.  The reference
    trajectory (spike values and surrogate windows) is recorded at the
    unperturbed parameters and frozen, so the finite difference probes
    exactly the function whose gradient :func:`backward` computes.
    ``masks`` may carry the scaled dropout masks of a recorded training
    forward (one entry per layer, None where dropout did not act).

    Intended for validation on tiny networks only.
    """
    window = np.asarray(window, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if window.ndim == 2:
        window = window[None]
    if targets.ndim == 2:
        targets = targets[None]
    if masks is None:
        masks = [None] * spec.n_layers

    weights = [l.weight.astype(np.float64) for l in params.layers]
    taus = [l.tau.astype(np.float64) for l in params.layers]
    gammas = [l.norm.gamma.astype(np.float64) for l in params.layers]
    betas = [l.norm.beta.astype(np.float64) for l in params.layers]
    masks = [None if m is None else np.asarray(m, dtype=np.float64)
             for m in masks]

    # reference trajectory: exact forward, anchors for the linearization
    anchors = []
    act = window
    for l in range(spec.n_layers - 1):
        cur = np.einsum("bti,ji->btj", act, weights[l])
        mean, var = batchnorm.batch_stats(cur)
        normed, _, _ = batchnorm.normalize(
            cur, mean, var, gammas[l], betas[l], spec.threshold, spec.bn_eps)
        B, T, width = normed.shape
        u_ref = np.empty_like(normed)
        s_ref = np.empty_like(normed)
        u_t = np.zeros((B, width))
        s_t = np.zeros((B, width))
        for t in range(T):
            if spec.reset_mode == RESET_SUBTRACT:
                u_t = taus[l] * (u_t - s_t * spec.threshold) + normed[:, t, :]
            else:
                u_t = taus[l] * (u_t * (1.0 - s_t)) + normed[:, t, :]
            s_t = (u_t >= spec.threshold).astype(np.float64)
            u_ref[:, t, :] = u_t
            s_ref[:, t, :] = s_t
        g_ref = surrogate_grad(u_ref, spec.threshold)
        anchors.append((u_ref, s_ref, g_ref))
        fed = s_ref * masks[l] if masks[l] is not None else s_ref
        act = fed

    field_map = {"weight": weights, "tau": taus, "gamma": gammas,
                 "beta": betas}
    layer_idx, field, flat = coordinate
    target_arr = field_map[field][layer_idx]
    base = target_arr.flat[flat]
    if base + h == base or base - h == base:
        raise ValueError(f"step size {h} underflows at value {base}")

    losses = []
    for delta in (h, -h):
        target_arr.flat[flat] = base + delta
        losses.append(_linearized_loss(
            weights, taus, gammas, betas, spec, window, targets, masks,
            anchors, warmup_discard))
    target_arr.flat[flat] = base
    return (losses[0] - losses[1]) / (2.0 * h)
