"""Leaky integrate-and-fire kernels.

Discrete-time neuron dynamics used by every layer of the decoder:

* hidden neurons leak, integrate input current, and emit a binary spike
  whenever the membrane potential reaches the firing threshold,
* output neurons are non-spiking integrators whose membrane voltage is
  read out directly as the continuous prediction,
* the spike nonlinearity gets a box-window surrogate derivative so the
  trainer can push gradients through it.

Everything here is purely functional: no hidden state, outputs depend
only on the arguments, and the same inputs always produce the same
outputs.
"""

from __future__ import annotations

import numpy as np

RESET_SUBTRACT = "subtract"
RESET_ZERO = "zero"
RESET_MODES = (RESET_SUBTRACT, RESET_ZERO)

# Half-width of the box window that stands in for the spike derivative.
SURROGATE_HALF_WIDTH = 0.5


def lif_step(potential: np.ndarray, last_spikes: np.ndarray,
             current: np.ndarray, tau: np.ndarray, threshold: float,
             reset_mode: str):
    """Advance a spiking layer by one frame.

    The membrane first undergoes the reset implied by the previous step's
    spikes, then leaks by ``tau`` and integrates ``current``.  A neuron
    fires when its updated potential reaches ``threshold``.
    ``reset_mode`` ``"subtract"`` removes one threshold's worth of
    potential after a spike, keeping any super-threshold residue;
    ``"zero"`` clears the membrane entirely.  The threshold, reset mode
    and the range of ``tau`` are validated where they are set
    (:class:`~snndecode.network.NetworkSpec`, parameter initialization,
    the optimizer's clamp and the checkpoint loader), not per step, and
    the array shapes by the callers that build them: arrays of different
    shapes broadcast.

    Returns
    -------
    (ndarray, ndarray)
        The new potentials and the spike vector (0/1 floats), which is
        the next step's ``last_spikes``.  The arguments are not modified.
    """
    if reset_mode == RESET_SUBTRACT:
        u_next = tau * (potential - last_spikes * threshold) + current
    else:
        u_next = tau * potential * (1.0 - last_spikes) + current
    return u_next, (u_next >= threshold).astype(u_next.dtype)


def output_step(potential: np.ndarray, input_current: np.ndarray, tau: np.ndarray):
    """Advance the non-spiking output integrators by one frame.

    The output neurons never fire and never reset; their membrane voltage
    after integration is the prediction itself.  As in :func:`lif_step`,
    the shapes are not checked.

    Returns
    -------
    (ndarray, ndarray)
        ``(new_potential, prediction)`` where both are the same array.
    """
    u_next = tau * potential + input_current
    return u_next, u_next


def surrogate_grad(potential, threshold: float):
    """Surrogate derivative of the spike function.

    Returns 1 where the membrane potential lies strictly within
    :data:`SURROGATE_HALF_WIDTH` of the threshold and 0 elsewhere, so the
    window has unit area regardless of where the threshold sits.
    """
    potential = np.asarray(potential)
    out = (np.abs(potential - threshold) < SURROGATE_HALF_WIDTH).astype(
        potential.dtype if potential.dtype.kind == "f" else np.float64
    )
    return out
