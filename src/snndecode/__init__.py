"""Sparse spiking-network regression decoder.

Training via unfolded surrogate-gradient descent, frame-by-frame
streaming inference, a Kalman-filter reference decoder, and an
operation-count profiler for the trained networks.
"""

from .errors import DataError, NumericError
from .neuron import (
    RESET_MODES,
    RESET_SUBTRACT,
    RESET_ZERO,
    LifLayerState,
    lif_step,
    output_step,
    surrogate_grad,
)
from .batchnorm import EVAL, TRAIN, batch_stats, normalize
from .network import (
    LayerParams,
    NetworkParams,
    NetworkSpec,
    NetworkState,
    NormParams,
    TrainingCache,
    forward_streaming,
    forward_unfolded,
    init_params,
    reset_state,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "NumericError",
    "RESET_MODES",
    "RESET_SUBTRACT",
    "RESET_ZERO",
    "LifLayerState",
    "lif_step",
    "output_step",
    "surrogate_grad",
    "EVAL",
    "TRAIN",
    "batch_stats",
    "normalize",
    "LayerParams",
    "NetworkParams",
    "NetworkSpec",
    "NetworkState",
    "NormParams",
    "TrainingCache",
    "forward_streaming",
    "forward_unfolded",
    "init_params",
    "reset_state",
    "__version__",
]
