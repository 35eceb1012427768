"""Sparse spiking-network regression decoder.

Training via unfolded surrogate-gradient descent, frame-by-frame
streaming inference, a Kalman-filter reference decoder, and an
operation-count profiler for the trained networks.
"""

from .neuron import lif_step, surrogate_grad
from .batchnorm import EVAL, TRAIN
from .network import (
    NetworkSpec,
    forward_streaming,
    forward_unfolded,
    init_params,
    reset_state,
)

__version__ = "0.1.0"

__all__ = [
    "EVAL",
    "TRAIN",
    "NetworkSpec",
    "forward_streaming",
    "forward_unfolded",
    "init_params",
    "reset_state",
    "lif_step",
    "surrogate_grad",
    "__version__",
]
