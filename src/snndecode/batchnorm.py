"""Threshold-scaled batch normalization over joint batch and time statistics.

Input currents of every layer are normalized per channel before membrane
integration.  During training the statistics pool the batch and time axes
together, and the normalized value is rescaled by the firing threshold so
that a unit-gain channel has standard deviation equal to the threshold:

    out = threshold * gamma * (x - mean) / sqrt(var + eps) + beta

That scaling keeps layer firing rates in a workable range and is what
makes deep spike-driven stacks trainable.  At inference time the running
(exponential-moving-average) statistics are used instead, which makes the
transform a fixed per-channel affine map, applicable one frame at a time.
The trainer advances the running statistics after every batch.

Variances are population (biased) moments throughout, including the
running ones.
"""

from __future__ import annotations

import numpy as np

TRAIN = "train"
EVAL = "eval"


def batch_stats(currents: np.ndarray):
    """Per-channel mean and population variance over every leading axis.

    ``currents`` has shape ``(..., channels)``; all axes except the last
    are pooled, so a ``(batch, time, channels)`` tensor is reduced over
    batch and time jointly.
    """
    currents = np.asarray(currents)
    pop = int(np.prod(currents.shape[:-1]))
    if pop < 1:
        raise ValueError("normalization population is empty")
    flat = currents.reshape(pop, currents.shape[-1])
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    return mean, var


def normalize(currents, mean, var, gamma, beta, threshold, eps):
    """Apply the threshold-scaled affine normalization with given statistics.

    Returns ``(out, xhat, inv_std)`` where ``xhat`` is the standardized
    input, kept because the backward pass needs it.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (currents - mean) * inv_std
    out = threshold * gamma * xhat + beta
    return out, xhat, inv_std


def tdbn_backward(grad_out, xhat, inv_std, gamma, threshold):
    """Backward pass through training-mode normalization.

    ``grad_out`` and ``xhat`` have shape ``(..., channels)`` with the same
    pooled population the forward pass used.  Returns the gradient with
    respect to the raw currents plus the per-channel gamma and beta
    gradients.
    """
    channels = grad_out.shape[-1]
    flat_grad = grad_out.reshape(-1, channels)
    pop = len(flat_grad)
    grad_beta = flat_grad.sum(axis=0)
    grad_xhat_dot = np.einsum("ij,ij->j", flat_grad,
                              xhat.reshape(-1, channels))
    # standard batch-norm backward on xhat, with the extra threshold*gamma
    # factor folded into one per-channel scale
    scale = (threshold * gamma) * inv_std
    grad_in = grad_out * scale
    grad_in -= xhat * (scale * grad_xhat_dot / pop)
    grad_in -= scale * grad_beta / pop
    return grad_in, threshold * grad_xhat_dot, grad_beta
