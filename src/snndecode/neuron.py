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

from dataclasses import dataclass

import numpy as np

RESET_SUBTRACT = "subtract"
RESET_ZERO = "zero"
RESET_MODES = (RESET_SUBTRACT, RESET_ZERO)

# Half-width of the box window that stands in for the spike derivative.
SURROGATE_HALF_WIDTH = 0.5


@dataclass
class LifParams:
    """Parameters of one spiking layer.

    Attributes
    ----------
    threshold : float
        Firing threshold, shared by every neuron in the network.
    tau : ndarray
        Per-neuron membrane decay factor, each in [0, 1].
    reset_mode : str
        ``"subtract"`` removes one threshold's worth of potential after a
        spike, keeping any super-threshold residue; ``"zero"`` clears the
        membrane entirely.
    """

    threshold: float
    tau: np.ndarray
    reset_mode: str = RESET_SUBTRACT

    def __post_init__(self):
        self.tau = np.asarray(self.tau)
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"unknown reset mode {self.reset_mode!r}")
        if self.tau.size and (self.tau.min() < 0.0 or self.tau.max() > 1.0):
            raise ValueError("decay factors must lie in [0, 1]")


@dataclass
class LifLayerState:
    """Persistent state of one spiking layer: membrane potentials and the
    spike vector emitted on the previous step."""

    potential: np.ndarray
    last_spikes: np.ndarray


def lif_step(state: LifLayerState, input_current: np.ndarray, params: LifParams):
    """Advance a spiking layer by one frame.

    The membrane first undergoes the reset implied by the previous step's
    spikes, then leaks by ``tau`` and integrates ``input_current``.  A
    neuron fires when its updated potential reaches the threshold.

    Parameters
    ----------
    state : LifLayerState
        Potentials and previous spikes; not modified.
    input_current : ndarray
        Summed synaptic current, same trailing width as the layer.
    params : LifParams

    Returns
    -------
    (LifLayerState, ndarray)
        The new state and the spike vector (0/1 floats).  The new state's
        ``last_spikes`` is the returned spike vector.
    """
    u, s_prev = state.potential, state.last_spikes
    input_current = np.asarray(input_current)
    if input_current.shape != u.shape or s_prev.shape != u.shape:
        raise ValueError(
            f"shape mismatch: potential {u.shape}, previous spikes "
            f"{s_prev.shape}, current {input_current.shape}"
        )
    if params.reset_mode == RESET_SUBTRACT:
        u_next = params.tau * (u - s_prev * params.threshold) + input_current
    else:
        u_next = params.tau * u * (1.0 - s_prev) + input_current
    spikes = (u_next >= params.threshold).astype(u_next.dtype)
    return LifLayerState(potential=u_next, last_spikes=spikes), spikes


def output_step(potential: np.ndarray, input_current: np.ndarray, tau: np.ndarray):
    """Advance the non-spiking output integrators by one frame.

    The output neurons never fire and never reset; their membrane voltage
    after integration is the prediction itself.

    Returns
    -------
    (ndarray, ndarray)
        ``(new_potential, prediction)`` where both are the same array.
    """
    potential = np.asarray(potential)
    input_current = np.asarray(input_current)
    if input_current.shape != potential.shape:
        raise ValueError(
            f"shape mismatch: potential {potential.shape}, "
            f"current {input_current.shape}"
        )
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
