"""Manual reverse-mode pass through the unfolded decoder.

The forward pass is a chain of matmuls, pooled normalizations, and two
kinds of membrane recurrence (spiking hidden layers, integrator
readout).  :func:`backward` walks that chain in reverse, layer-major
like the forward and on the time-major ``(T, B, width)`` arrays the
training pass recorded in its :class:`~snndecode.network.TrainingCache`;
only the predictions, their gradient and the dropout masks are
batch-major, as the callers hold them.  The cache keeps no spikes: a
hidden layer's spikes are its recorded potentials at or above the
threshold, as the forward pass fired them.  For each layer `backward`
first resolves the time recurrence back to front, then the normalizer,
then the weights, handing the remaining gradient to the layer below.
One loop serves both reset modes and the readout: each differs only in
what a spike removes and in the leak, which are set once per layer
before the loop.  The loop writes each timestep's gradient straight into
one buffer per layer, which the normalizer's backward then overwrites
with the gradient to the currents; the cache itself is only read.

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
from .network import NetworkParams, NetworkSpec, TrainingCache, _blocked_gemm
from .neuron import RESET_SUBTRACT, surrogate_grad


@dataclass
class LayerGrads:
    """Gradient of the loss w.r.t. one layer's trained arrays
    (:data:`~snndecode.network.TRAINED`)."""

    weight: np.ndarray
    tau: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class Gradients:
    """Per-layer gradients, same nesting as the parameter set."""

    layers: list


def window_loss(predictions: np.ndarray, targets: np.ndarray,
                warmup_discard: int) -> float:
    """Mean squared error over the kept tail of each window.

    The first ``warmup_discard`` frames of every window are excluded:
    the decoder state is still settling there.  The mean runs over every
    remaining (sample, frame, output) entry.
    """
    diff = _kept_error(np.asarray(predictions), np.asarray(targets),
                       warmup_discard)
    return float(np.mean(diff * diff))


def _kept_error(predictions: np.ndarray, targets: np.ndarray,
                warmup_discard: int) -> np.ndarray:
    """``predictions - targets`` on the frames the loss keeps: all but the
    first ``warmup_discard`` of every window, frames on the second-last
    axis.  Arrays of two shapes, and a discard outside ``[0, T)``, raise
    ``ValueError``."""
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
    return predictions[..., warmup_discard:, :] - targets[..., warmup_discard:, :]


def _loss_grad(predictions, targets, warmup_discard):
    """d window_loss / d predictions, zero on the discarded frames."""
    diff = _kept_error(predictions, targets, warmup_discard)
    grad = np.zeros_like(predictions)
    grad[..., warmup_discard:, :] = 2.0 * diff / diff.size
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
    accumulated over batch and time.  ``targets`` are shaped like the
    predictions, ``(B, T, out_width)``, and ``warmup_discard`` must lie
    in ``[0, T)``, as in :func:`window_loss`.
    """
    if not isinstance(cache, TrainingCache):
        raise ValueError("backward needs a training-mode forward cache")
    if len(cache.potentials) != spec.n_layers:
        raise ValueError("cache does not match the network topology")

    preds = cache.potentials[-1].transpose(1, 0, 2)
    targets = np.asarray(targets, dtype=preds.dtype)
    B, T, _ = preds.shape
    thr = spec.threshold

    grads = [None] * spec.n_layers
    # dL/d(output of layer l), time-major like every array below
    grad_out = _loss_grad(preds, targets, warmup_discard).transpose(1, 0, 2)
    for l in reversed(range(spec.n_layers)):
        layer = params.layers[l]
        tau = layer.tau
        u = cache.potentials[l]
        # u[t+1] = tau * (u[t] - r[t] * s[t]) + current with the spikes
        # s[t] = u[t] >= thr: a spike removes r, the threshold or the whole
        # potential (u - u * s == u * (1 - s) exactly, as s is 0 or 1).
        # The readout is the case that never spikes and whose output is
        # its potential.
        leak = np.broadcast_to(tau, u.shape)            # d u[t+1] / d u[t]
        if l == spec.n_layers - 1:
            window = np.ones_like(u)
            r = s = 0.0
        else:
            if cache.masks[l] is not None:
                grad_out *= cache.masks[l].transpose(1, 0, 2)
            window = surrogate_grad(u, thr)             # d s[t] / d u[t]
            s = u >= thr
            if spec.reset_mode == RESET_SUBTRACT:
                # a Python float times a bool array would be float64
                r = u.dtype.type(thr)
            else:
                r = u
                leak = tau * ~s
        kick = np.broadcast_to(tau * r, u.shape)        # -d u[t+1] / d s[t]
        dtau = u - r * s                                # d u[t+1] / d tau

        # dL/d(normalized current), then in place dL/d(current)
        grad_norm = np.empty_like(u)
        grad_tau = np.zeros_like(tau)
        gu_next = np.zeros_like(u[0])
        for t in reversed(range(T)):
            gs = grad_out[t] - gu_next * kick[t]
            gu = np.multiply(gs, window[t], out=grad_norm[t])
            gu += gu_next * leak[t]
            if t > 0:
                grad_tau += (gu * dtau[t - 1]).sum(axis=0)
            gu_next = gu

        grad_cur, grad_gamma, grad_beta = batchnorm.tdbn_backward(
            grad_norm, cache.xhat[l], cache.inv_std[l], layer.gamma, thr,
            out=grad_norm)

        act_in = cache.fed[l - 1] if l > 0 else cache.inputs
        grad_rows = grad_cur.reshape(T * B, -1)
        grad_weight = _blocked_gemm(grad_rows.T, act_in.reshape(T * B, -1))
        if l > 0:                   # the network input needs no gradient
            grad_out = _blocked_gemm(grad_rows, layer.weight).reshape(T, B, -1)

        # a non-finite entry of grad_cur makes its whole row of grad_weight
        # non-finite, so grad_cur is read only to name the timestep
        if not (np.isfinite(grad_weight).all()
                and np.isfinite(grad_tau).all()):
            finite = np.isfinite(grad_cur).all(axis=(1, 2))
            raise NumericError(f"non-finite gradient in layer {l} around "
                               f"timestep {int(np.argmin(finite))}")

        grads[l] = LayerGrads(weight=grad_weight, tau=grad_tau,
                              gamma=grad_gamma, beta=grad_beta)

    return Gradients(grads)
