"""Threshold-scaled batch normalization over joint batch and time statistics.

Input currents of every layer are normalized per channel before membrane
integration.  During training the statistics pool the batch and time axes
together, and the normalized value is rescaled by the firing threshold so
that a unit-gain channel has standard deviation equal to the threshold:

    out = threshold * gamma * (x - mean) / sqrt(var + eps) + beta

That scaling keeps layer firing rates in a workable range and is what
makes deep spike-driven stacks trainable.  At inference time the running
(exponential-moving-average) statistics are used instead, which makes the
transform a fixed per-channel affine map.  The inference pass therefore
does not call :func:`normalize`: it folds the map into the layer's
weights and a bias (``network._fold``), with ``sigma = sqrt(run_var +
eps)``:

    W' = (threshold * gamma / sigma) * W
    b  = beta - run_mean * threshold * gamma / sigma

The trainer advances the running statistics after every batch.

Variances are population (biased) moments throughout, including the
running ones.
"""

from __future__ import annotations

import numpy as np

TRAIN = "train"
EVAL = "eval"


def batch_stats(currents: np.ndarray, out: np.ndarray | None = None):
    """Per-channel mean and population variance over every leading axis.

    ``currents`` has shape ``(..., channels)``; all axes except the last
    are pooled, so a ``(batch, time, channels)`` tensor is reduced over
    batch and time jointly.  The variance is ``np.var``'s arithmetic, bit
    for bit: the mean of the squared deviations from the mean.  ``out``,
    when given, is an array of ``currents``' shape that receives those
    squared deviations, so the caller can reuse it.
    """
    currents = np.asarray(currents)
    pop = int(np.prod(currents.shape[:-1]))
    if pop < 1:
        raise ValueError("normalization population is empty")
    flat = currents.reshape(pop, currents.shape[-1])
    mean = flat.mean(axis=0)
    dev = np.subtract(currents, mean, out=out)
    return mean, np.square(dev, out=dev).reshape(flat.shape).mean(axis=0)


def normalize(currents, mean, var, gamma, beta, threshold, eps,
              out=(None, None)):
    """Apply the threshold-scaled affine normalization with given statistics.

    Returns ``(out, xhat, inv_std)`` where ``xhat`` is the standardized
    input, kept because the backward pass needs it.  ``out`` is the pair
    of arrays of ``currents``' shape that receive ``out`` and ``xhat``, in
    that order, where either is not None; ``xhat``'s may be ``currents``
    itself, which is otherwise left untouched.  The bits are the same
    either way.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.subtract(currents, mean, out=out[1])
    xhat *= inv_std
    normed = np.multiply(threshold * gamma, xhat, out=out[0])
    return np.add(normed, beta, out=normed), xhat, inv_std


def tdbn_backward(grad_out, xhat, inv_std, gamma, threshold, out=None):
    """Backward pass through training-mode normalization.

    ``grad_out`` and ``xhat`` have shape ``(..., channels)`` with the same
    pooled population the forward pass used.  Returns the gradient with
    respect to the raw currents plus the per-channel gamma and beta
    gradients.  ``out``, when given, is an array of ``grad_out``'s shape
    that receives the gradient to the currents; it may be ``grad_out``
    itself, which is otherwise left untouched.
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
    grad_in = np.multiply(grad_out, scale, out=out)
    grad_in -= xhat * (scale * grad_xhat_dot / pop)
    grad_in -= scale * grad_beta / pop
    return grad_in, threshold * grad_xhat_dot, grad_beta
