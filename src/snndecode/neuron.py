"""Leaky integrate-and-fire kernels.

Discrete-time neuron dynamics used by every layer of the decoder:

* hidden neurons leak, integrate input current, and emit a binary spike
  whenever the membrane potential reaches the firing threshold; the
  potential is a neuron's whole state, as its spike is ``potential >=
  threshold``,
* output neurons are non-spiking integrators whose membrane voltage is
  read out directly as the continuous prediction,
* the spike nonlinearity gets a box-window surrogate derivative so the
  trainer can push gradients through it.

Everything here is purely functional: no hidden state, outputs depend
only on the arguments, and the same inputs always produce the same
outputs.  The only array written is an ``out`` given to receive the new
potentials.
"""

from __future__ import annotations

import numpy as np

RESET_SUBTRACT = "subtract"
RESET_ZERO = "zero"
RESET_MODES = (RESET_SUBTRACT, RESET_ZERO)

# Half-width of the box window that stands in for the spike derivative.
SURROGATE_HALF_WIDTH = 0.5


def lif_step(potential: np.ndarray, current: np.ndarray, tau: np.ndarray,
             threshold: float, reset_mode: str,
             out: np.ndarray | None = None) -> np.ndarray:
    """Advance a spiking layer by one frame.

    A neuron whose ``potential`` is at or above ``threshold`` fired on the
    previous step.  The membrane first undergoes the reset that spike
    implies, then leaks by ``tau`` and integrates ``current``.
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
    ndarray
        The new potentials, written into ``out`` when it is given; the
        neurons at or above ``threshold`` in them fire this step.  The
        arguments other than ``out`` are not modified; ``out`` gets the
        same bits as a fresh array would.
    """
    # 0/1 in the potentials' dtype: the float products below run without
    # the buffered casts a bool operand would need
    fired = (potential >= threshold).astype(potential.dtype)
    if reset_mode == RESET_SUBTRACT:
        leaked = tau * (potential - fired * threshold)
    else:
        leaked = tau * potential * (1.0 - fired)
    return np.add(leaked, current, out=out)


def output_step(potential: np.ndarray, input_current: np.ndarray,
                tau: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Advance the non-spiking output integrators by one frame.

    The output neurons never fire and never reset; their membrane voltage
    after integration is the prediction itself.  As in :func:`lif_step`,
    the shapes are not checked, and ``out``, when given, receives the new
    potentials, which are returned.
    """
    return np.add(tau * potential, input_current, out=out)


def surrogate_grad(potential, threshold: float):
    """Surrogate derivative of the spike function.

    Returns 1 where the membrane potential lies strictly within
    :data:`SURROGATE_HALF_WIDTH` of the threshold and 0 elsewhere, so the
    window has unit area regardless of where the threshold sits.
    """
    potential = np.asarray(potential)
    dtype = potential.dtype if potential.dtype.kind == "f" else np.float64
    return (np.abs(potential - threshold) < SURROGATE_HALF_WIDTH).astype(dtype)
