"""Fully connected spiking decoder network.

Stacks spiking layers and a non-spiking integrator readout into the
velocity decoder, with threshold-scaled batch normalization on each
layer's input current and per-timestep dropout on hidden spike vectors
during training.

There is one training pass and one inference pass, both layer-major:

* the training pass (:func:`forward_unfolded` in ``"train"`` mode) runs
  each layer's matmul as one blocked product over all batch and time
  rows, normalizes with the pooled batch and time statistics, applies
  dropout and records every intermediate the backward pass needs;
* the inference pass runs one matmul per frame, normalizes with the
  running statistics and carries the membrane state on from a given
  start.  :func:`forward_unfolded` in ``"eval"`` mode runs it from a zero
  state; :func:`forward_streaming` runs it over a one-frame window from
  the state a real-time session carries.  Streamed rows therefore equal
  the unfolded rows by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import batchnorm
from .neuron import (
    RESET_MODES,
    RESET_SUBTRACT,
    LifLayerState,
    lif_step,
    output_step,
)

TRAIN = batchnorm.TRAIN
EVAL = batchnorm.EVAL

# Reduction depth of one block in the batched training products.  BLAS
# may split a longer reduction differently depending on its thread count,
# which changes the rounding; blocks no deeper than this, added in a
# fixed order, give the same bits at any thread count.
GEMM_BLOCK = 256


@dataclass
class NetworkSpec:
    """Topology and fixed hyperparameters of the decoder.

    ``layer_widths`` runs input -> hidden... -> output; the default is the
    96-channel, three-hidden-layer, two-output decoder.  ``window_len`` is
    the number of frames a training sample spans.
    """

    layer_widths: tuple = (96, 256, 256, 256, 2)
    threshold: float = 0.4
    dropout_p: float = 0.2
    window_len: int = 10
    reset_mode: str = RESET_SUBTRACT
    normalize_output: bool = True    # normalize the readout's input current too
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        self.layer_widths = tuple(int(w) for w in self.layer_widths)
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError(f"layer widths must be positive: {self.layer_widths}")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout probability must lie in [0, 1)")
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"unknown reset mode {self.reset_mode!r}")
        if self.window_len < 1:
            raise ValueError("window length must be at least 1")

    @property
    def n_layers(self) -> int:
        """Number of weight layers, output included."""
        return len(self.layer_widths) - 1

    @property
    def n_hidden(self) -> int:
        return self.n_layers - 1

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    @property
    def neuron_count(self) -> int:
        """All neurons that hold a membrane potential, readout included."""
        return int(sum(self.layer_widths[1:]))


@dataclass
class NormParams:
    """Learnable affine and running statistics of one layer's normalizer."""

    gamma: np.ndarray
    beta: np.ndarray
    run_mean: np.ndarray
    run_var: np.ndarray


@dataclass
class LayerParams:
    """Weights, per-neuron decay factors, and normalizer of one layer."""

    weight: np.ndarray          # (out_width, in_width)
    tau: np.ndarray             # (out_width,)
    norm: NormParams

    def copy(self) -> "LayerParams":
        n = self.norm
        return LayerParams(
            weight=self.weight.copy(),
            tau=self.tau.copy(),
            norm=NormParams(n.gamma.copy(), n.beta.copy(),
                            n.run_mean.copy(), n.run_var.copy()),
        )


@dataclass
class NetworkParams:
    """All trainable parameters plus running statistics, one entry per layer."""

    layers: list

    def copy(self) -> "NetworkParams":
        return NetworkParams([layer.copy() for layer in self.layers])

    @property
    def dtype(self):
        return self.layers[0].weight.dtype


@dataclass
class NetworkState:
    """Persistent streaming state: one spiking-layer state per hidden layer
    plus the readout integrator potentials."""

    hidden: list
    output_potential: np.ndarray


@dataclass
class TrainingCache:
    """Every intermediate of one unfolded forward pass, layer-indexed.

    Index ``l`` runs over weight layers; the last entry is the readout.
    ``fed[l]`` is the activation that actually reached layer ``l + 1``
    (spikes after dropout), ``masks[l]`` the scaled dropout mask or None,
    and ``xhat``/``inv_std`` are the normalizer intermediates (None when a
    layer is not normalized).  ``mean``/``var`` hold the batch statistics
    so the trainer can advance the running averages.
    """

    mode: str
    inputs: np.ndarray                      # (B, T, in_width)
    xhat: list = field(default_factory=list)
    inv_std: list = field(default_factory=list)
    mean: list = field(default_factory=list)
    var: list = field(default_factory=list)
    potentials: list = field(default_factory=list)
    spikes: list = field(default_factory=list)
    masks: list = field(default_factory=list)
    fed: list = field(default_factory=list)


def init_params(spec: NetworkSpec, rng: np.random.Generator,
                tau_init=(0.25, 0.75), dtype=np.float32) -> NetworkParams:
    """Draw fresh parameters for the given topology.

    Weights are uniform with fan-in scaling, decay factors either uniform
    over a ``(low, high)`` range or a constant when ``tau_init`` is a
    scalar.  Normalizer gain starts at 1, shift at 0, running statistics
    at the standard-normal values.
    """
    layers = []
    for l in range(spec.n_layers):
        fan_in = spec.layer_widths[l]
        width = spec.layer_widths[l + 1]
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(width, fan_in))
        if np.isscalar(tau_init):
            tau = np.full(width, float(tau_init))
        else:
            low, high = tau_init
            tau = rng.uniform(low, high, size=width)
        if tau.min() < 0.0 or tau.max() > 1.0:
            raise ValueError("initial decay factors must lie in [0, 1]")
        layers.append(LayerParams(
            weight=weight.astype(dtype),
            tau=tau.astype(dtype),
            norm=NormParams(
                gamma=np.ones(width, dtype=dtype),
                beta=np.zeros(width, dtype=dtype),
                run_mean=np.zeros(width, dtype=dtype),
                run_var=np.ones(width, dtype=dtype),
            ),
        ))
    return NetworkParams(layers)


def reset_state(spec: NetworkSpec, dtype=np.float32) -> NetworkState:
    """A zeroed streaming state matching the topology."""
    return _zero_state(spec, (), dtype)


def _zero_state(spec: NetworkSpec, batch: tuple, dtype) -> NetworkState:
    """A zeroed state whose arrays are shaped ``batch + (width,)``."""
    hidden = [
        LifLayerState(potential=np.zeros(batch + (w,), dtype=dtype),
                      last_spikes=np.zeros(batch + (w,), dtype=dtype))
        for w in spec.layer_widths[1:-1]
    ]
    return NetworkState(
        hidden=hidden,
        output_potential=np.zeros(batch + (spec.output_width,), dtype=dtype),
    )


def _check_params(params: NetworkParams, spec: NetworkSpec):
    if len(params.layers) != spec.n_layers:
        raise ValueError(
            f"parameter set has {len(params.layers)} layers, "
            f"topology wants {spec.n_layers}"
        )
    for l, layer in enumerate(params.layers):
        want = (spec.layer_widths[l + 1], spec.layer_widths[l])
        if layer.weight.shape != want:
            raise ValueError(
                f"layer {l} weight shape {layer.weight.shape}, expected {want}"
            )


def _layer_normalized(spec: NetworkSpec, l: int) -> bool:
    return l < spec.n_hidden or spec.normalize_output


def _blocked_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, independent of the BLAS thread count.

    The shared axis is cut into blocks of :data:`GEMM_BLOCK`; each block is
    one BLAS product and the partial products are added first to last.
    A reduction no deeper than one block is a single plain product.
    """
    out = a[:, :GEMM_BLOCK] @ b[:GEMM_BLOCK]
    for lo in range(GEMM_BLOCK, a.shape[1], GEMM_BLOCK):
        out += a[:, lo:lo + GEMM_BLOCK] @ b[lo:lo + GEMM_BLOCK]
    return out


def _infer(params: NetworkParams, spec: NetworkSpec, frames: np.ndarray,
           state: NetworkState):
    """The inference pass over checked, time-major ``(T, ..., in_width)``
    frames, starting from ``state``.

    The state's arrays have the shape of one frame's activations,
    ``(..., width)``; they are read, never written.  Returns the
    predictions ``(T, ..., out_width)``, one ``(T, ..., width)`` spike
    array per hidden layer, and the end state.
    """
    act = frames
    spikes = []
    hidden = []
    for l, layer in enumerate(params.layers):
        # a stack of one product per frame, each rounded as it would be
        # alone: a streamed frame is a window of T = 1
        cur = act @ layer.weight.T
        if _layer_normalized(spec, l):
            n = layer.norm
            cur, _, _ = batchnorm.normalize(
                cur, n.run_mean, n.run_var, n.gamma, n.beta,
                spec.threshold, spec.bn_eps)
        out = np.empty(cur.shape, dtype=params.dtype)
        if l < spec.n_hidden:
            u, s = state.hidden[l].potential, state.hidden[l].last_spikes
            for t in range(len(cur)):
                u, s = lif_step(u, s, cur[t], layer.tau,
                                spec.threshold, spec.reset_mode)
                out[t] = s
            hidden.append(LifLayerState(potential=u, last_spikes=s))
            spikes.append(out)
            act = out
        else:
            u = state.output_potential
            for t in range(len(cur)):
                u, _ = output_step(u, cur[t], layer.tau)
                out[t] = u
    return out, spikes, NetworkState(hidden=hidden, output_potential=u)


def forward_unfolded(params: NetworkParams, spec: NetworkSpec,
                     windows: np.ndarray, mode: str = EVAL,
                     rng: np.random.Generator | None = None):
    """Run whole windows through the network, layer-major.

    Parameters
    ----------
    windows : ndarray
        ``(T, in_width)`` for a single sample or ``(B, T, in_width)`` for
        a batch.  State starts at zero.
    mode : str
        ``"train"`` runs the training pass: pooled batch+time
        normalization statistics and a fresh dropout mask per timestep
        (requires ``rng`` when dropout is active).  ``"eval"`` runs the
        inference pass: running statistics and no dropout.

    Returns
    -------
    (ndarray, TrainingCache)
        Predictions of shape ``(B, T, out_width)`` (leading axis dropped
        if the input was 2-D) and the cache of intermediates.  An
        ``"eval"`` cache holds only the spikes.
    """
    _check_params(params, spec)
    windows = np.asarray(windows, dtype=params.dtype)
    squeeze = windows.ndim == 2
    if squeeze:
        windows = windows[None]
    if windows.ndim != 3 or windows.shape[-1] != spec.input_width:
        raise ValueError(
            f"expected windows shaped (batch, time, {spec.input_width}), "
            f"got {windows.shape}"
        )
    if not np.isfinite(windows).all():
        raise ValueError("input features contain non-finite values")
    if mode not in (TRAIN, EVAL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == TRAIN and spec.dropout_p > 0.0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")
    if mode == EVAL:
        start = _zero_state(spec, (len(windows),), params.dtype)
        preds, spikes, _ = _infer(params, spec, windows.transpose(1, 0, 2),
                                  start)
        preds = preds.transpose(1, 0, 2)
        cache = TrainingCache(mode=EVAL, inputs=windows, spikes=[
            s.transpose(1, 0, 2) for s in spikes] + [None])
        return (preds[0] if squeeze else preds), cache

    B, T, _ = windows.shape
    dtype = params.dtype
    cache = TrainingCache(mode=TRAIN, inputs=windows)
    act = windows                                  # (B, T, w) at each stage

    for l, layer in enumerate(params.layers):
        width = spec.layer_widths[l + 1]
        # one blocked matmul over all (batch*time) rows: fastest path
        cur = _blocked_gemm(act.reshape(B * T, -1), layer.weight.T)
        cur = cur.reshape(B, T, width)

        if _layer_normalized(spec, l):
            n = layer.norm
            mean, var = batchnorm.batch_stats(cur)
            normed, xhat, inv_std = batchnorm.normalize(
                cur, mean, var, n.gamma, n.beta, spec.threshold, spec.bn_eps)
        else:
            mean = var = xhat = inv_std = None
            normed = cur

        u = np.empty((B, T, width), dtype=dtype)
        u_t = np.zeros((B, width), dtype=dtype)
        if l == spec.n_hidden:
            spikes = fed = mask = None
            for t in range(T):
                u_t, _ = output_step(u_t, normed[:, t, :], layer.tau)
                u[:, t, :] = u_t
            preds = u
        else:
            spikes = np.empty((B, T, width), dtype=dtype)
            s_t = np.zeros((B, width), dtype=dtype)
            for t in range(T):
                u_t, s_t = lif_step(u_t, s_t, normed[:, t, :], layer.tau,
                                    spec.threshold, spec.reset_mode)
                u[:, t, :] = u_t
                spikes[:, t, :] = s_t
            if spec.dropout_p > 0.0:
                keep = 1.0 - spec.dropout_p
                mask = (rng.random(size=spikes.shape) < keep).astype(dtype)
                mask = mask / keep          # inverted scaling: eval needs none
                fed = spikes * mask
            else:
                mask = None
                fed = spikes
            act = fed

        cache.xhat.append(xhat)
        cache.inv_std.append(inv_std)
        cache.mean.append(mean)
        cache.var.append(var)
        cache.potentials.append(u)
        cache.spikes.append(spikes)
        cache.masks.append(mask)
        cache.fed.append(fed)

    return (preds[0] if squeeze else preds), cache


def forward_streaming(params: NetworkParams, spec: NetworkSpec,
                      frame: np.ndarray, state: NetworkState):
    """Advance the persistent decoder state by one frame.

    Runs the inference pass of :func:`forward_unfolded` over a one-frame
    window from ``state``: running normalization statistics, no dropout.
    The passed-in state is left untouched; a fresh state is returned
    alongside the prediction.  A frame holding a NaN or infinity is
    rejected with ``ValueError``, as in :func:`forward_unfolded`, before
    any state is computed, so one bad frame cannot poison the membrane
    potentials of the frames after it.

    Returns
    -------
    (ndarray, NetworkState)
        ``(prediction, new_state)`` with the prediction of output width.
    """
    _check_params(params, spec)
    frame = np.asarray(frame, dtype=params.dtype)
    if frame.shape != (spec.input_width,):
        raise ValueError(
            f"expected a frame of shape ({spec.input_width},), got {frame.shape}"
        )
    if not np.isfinite(frame).all():
        raise ValueError("input features contain non-finite values")
    if len(state.hidden) != spec.n_hidden:
        raise ValueError(
            f"state has {len(state.hidden)} hidden layers, "
            f"topology wants {spec.n_hidden}"
        )
    preds, _, new_state = _infer(params, spec, frame[None], state)
    return preds[0], new_state
