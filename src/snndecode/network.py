"""Fully connected spiking decoder network.

Stacks spiking layers and a non-spiking integrator readout into the
velocity decoder, with threshold-scaled batch normalization on every
layer's input current, the readout's included, and per-timestep dropout
on hidden spike vectors during training.

Both window passes run on time-major ``(T, ..., width)`` arrays, and one
recurrence, :func:`_recurrence`, advances the membranes in both:

* the training pass (:func:`forward_unfolded` in ``"train"`` mode) runs
  layer-major: each layer's matmul as one blocked product over all time
  and batch rows, normalizes with the pooled batch and time statistics,
  keeps the potentials, applies dropout, and records every intermediate
  the backward pass needs in a :class:`TrainingCache`, time-major as it
  computed them.  It makes two full-size arrays per layer for the
  normalizer and reuses each: the product's buffer receives the
  standardized currents ``xhat``, and the squared deviations'
  buffer from :func:`~snndecode.batchnorm.batch_stats` receives the
  normalized currents, which the recurrence turns into the potentials in
  place.  Spikes and the dropout draw stay bool until the scaled mask and
  the fed activation are made from them.  Every buffer is new to the
  call, so each call's cache owns its arrays, and no later call or
  backward pass overwrites them;
* the inference pass (:func:`_eval_pass`, :func:`forward_unfolded` in
  ``"eval"`` mode) runs one matmul per frame on weights with the
  normalizer folded in (:func:`_fold`), adds the folded bias and advances
  the membranes from a zero state.  Its hidden layers run as a skewed
  pipeline over chunks of :data:`EVAL_CHUNK` frames, in which one kernel
  call advances every hidden layer of a stage by one frame; its readout
  runs last, over all frames.  It returns the predictions and the hidden
  layers' spikes.

:func:`forward_streaming` advances the state a real-time session carries
by one frame, in a step of its own: per layer the same folded operands,
the same one-row product and the same kernels,
:func:`~snndecode.neuron.lif_step` and
:func:`~snndecode.neuron.output_step`, in the same order as the
inference pass applies them to each frame, so streamed rows equal its
rows bit for bit (pinned by the streaming tests and the ``stream``
command's bit check).  Both drivers refuse non-finite end potentials
with one rule, :func:`_check_finite`.

A layer, :class:`LayerParams`, is six flat arrays named once in
:data:`LAYER_ARRAYS`, in checkpoint order: its weights, its decay factors
and its normalizer's ``gamma``, ``beta``, ``run_mean`` and ``run_var``.
Every reader takes them from the layer by those names.

One rule, :func:`_check_params`, says what a parameter set must be: the
topology's layer count and array shapes, one dtype of :data:`DTYPES`
shared by every layer array, finite values, decay factors in [0, 1] and
running variances of at least 0.  A checkpoint meets it when it loads, a
hand-built set at its first inference, and training at every step.  A
streaming state must be in the decoder's dtype too.

A parameter set keeps its folded form once the first inference built it,
and building it makes the source arrays read-only: an in-place write to a
decoded parameter set raises instead of decoding with stale weights.
Rebinding an array (``layer.weight = other``) is allowed and refolds on
the next inference; a copy or an unpickled set folds its own.  Training
writes its parameters in place, so its per-epoch validation folds afresh
and leaves them writable, and a training step refuses a decoded set
(:func:`_check_writable`) before it writes anything: the set must be
copied first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import ClassVar

import numpy as np

from . import batchnorm
from .errors import NumericError
from .neuron import RESET_MODES, RESET_SUBTRACT, lif_step, output_step

TRAIN = batchnorm.TRAIN
EVAL = batchnorm.EVAL

# Reduction depth of one block in the batched training products.  BLAS
# may split a longer reduction differently depending on its thread count,
# which changes the rounding; blocks no deeper than this, added in a
# fixed order, give the same bits at any thread count.
GEMM_BLOCK = 256

# Frames per chunk of the inference pass's hidden-layer pipeline
# (:func:`_eval_pass`).  Any size gives the same bits; it sets how many
# kernel calls a decode makes and how large its one stage buffer is.
EVAL_CHUNK = 128

# The arrays of one layer, the fields of LayerParams, in checkpoint order:
# weights, per-neuron decay factors, then the normalizer's affine and
# running statistics.  The optimizer trains the first four.
LAYER_ARRAYS = ("weight", "tau", "gamma", "beta", "run_mean", "run_var")
TRAINED = LAYER_ARRAYS[:4]

# The dtypes a decoder runs in, every layer array in the same one: the two
# in which the fold and streaming-equals-batch are tested.
DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass
class NetworkSpec:
    """Topology and fixed hyperparameters of the decoder.

    ``layer_widths`` runs input -> hidden... -> output; the default is the
    96-channel, three-hidden-layer, two-output decoder.  ``window_len`` is
    the number of frames a training sample spans.  Every layer, the
    readout included, is normalized with one epsilon: both are constants.
    Building one is the rule of every field, also for the run settings a
    :class:`~snndecode.train.TrainConfig` shares with its decoder.
    """

    layer_widths: tuple = (96, 256, 256, 256, 2)
    threshold: float = 0.4
    dropout_p: float = 0.2
    window_len: int = 10
    reset_mode: str = RESET_SUBTRACT
    normalize_output: ClassVar[bool] = True
    bn_eps: ClassVar[float] = 1e-5

    def __post_init__(self):
        if not all(_is_int(w) and w > 0 for w in self.layer_widths):
            raise ValueError(f"layer widths must be positive integers: "
                             f"{self.layer_widths!r}")
        self.layer_widths = tuple(int(w) for w in self.layer_widths)
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output widths")
        t, p = self.threshold, self.dropout_p
        if isinstance(t, bool) or not (isinstance(t, Real) and 0 < t < np.inf):
            raise ValueError(f"threshold={t!r} is not a positive and finite "
                             f"number")
        if isinstance(p, bool) or not (isinstance(p, Real) and 0 <= p < 1):
            raise ValueError(f"dropout_p={p!r}: the dropout probability "
                             f"must be a number in [0, 1)")
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"unknown reset mode {self.reset_mode!r}")
        if not _is_int(self.window_len) or self.window_len < 1:
            raise ValueError(f"window_len={self.window_len!r} is not an "
                             f"integer of at least 1")

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
class LayerParams:
    """The six arrays of one layer as fields, declared in
    :data:`LAYER_ARRAYS` order: weights, per-neuron decay factors, and the
    normalizer's affine and running statistics.  ``LayerParams(*arrays)``
    builds one from arrays in that order; ``norm`` is the layer itself."""

    weight: np.ndarray          # (out_width, in_width)
    tau: np.ndarray             # (out_width,)
    gamma: np.ndarray           # (out_width,) each of the rest
    beta: np.ndarray
    run_mean: np.ndarray
    run_var: np.ndarray

    @property
    def norm(self) -> "LayerParams":
        # the layer itself; kept for the frozen acceptance gate and oracle,
        # which read layer.norm.gamma
        return self

    def arrays(self) -> dict:
        """The layer's arrays by name, in :data:`LAYER_ARRAYS` order.  The
        values are the layer's own arrays, not copies."""
        return {name: getattr(self, name) for name in LAYER_ARRAYS}


@dataclass
class NetworkParams:
    """All trainable parameters plus running statistics, one entry per layer.

    ``folded`` holds the inference operands built by :func:`_folded`
    with what they were built from; it is never copied or pickled.
    """

    layers: list
    folded: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def dtype(self):
        """The dtype every layer array shares: a set whose arrays do not
        share one is refused at its first inference."""
        return self.layers[0].weight.dtype

    def __getstate__(self):
        # a copy's arrays are new (and writable), so it folds its own
        return {**self.__dict__, "folded": None}


@dataclass
class NetworkState:
    """Persistent streaming state: the membrane potentials, one
    ``(..., width)`` array per weight layer with the readout last.  A
    hidden layer's previous spikes are its potentials at or above the
    threshold, so they are not stored."""

    potentials: list


@dataclass
class TrainingCache:
    """Every intermediate of one training pass, layer-indexed.

    Index ``l`` runs over weight layers; the last entry is the readout,
    whose ``masks`` and ``fed`` entries are None.  The per-step fields
    are the pass's own time-major ``(T, B, width)`` arrays, except
    ``masks[l]``, the scaled dropout mask or None, which is ``(B, T,
    width)`` like the windows.  ``inputs`` is the windows, time-major
    too; ``fed[l]`` is the activation that actually reached layer
    ``l + 1`` (its spikes, ``potentials[l] >= threshold``, after
    dropout), and ``xhat``/``inv_std`` are the normalizer intermediates.
    ``mean``/``var`` hold the batch statistics so the trainer can advance
    the running averages.  The arrays belong to this cache alone: the
    pass that made it allocated them, and neither a later pass nor
    :func:`~snndecode.backprop.backward` writes them.
    """

    inputs: np.ndarray                      # (T, B, in_width)
    xhat: list = field(default_factory=list)
    inv_std: list = field(default_factory=list)
    mean: list = field(default_factory=list)
    var: list = field(default_factory=list)
    potentials: list = field(default_factory=list)
    masks: list = field(default_factory=list)
    fed: list = field(default_factory=list)


def _is_int(value) -> bool:
    """An integer of Python or numpy, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_tau_init(tau_init):
    """Refuse anything but a ``(low, high)`` pair of numbers with
    ``0 <= low <= high <= 1``; a fixed value ``v`` is ``(v, v)``."""
    pair = tau_init if isinstance(tau_init, (tuple, list)) else ()
    if not (len(pair) == 2
            and all(isinstance(v, Real) and not isinstance(v, bool)
                    for v in pair)
            and 0.0 <= pair[0] <= pair[1] <= 1.0):      # NaN fails too
        raise ValueError(f"tau_init={tau_init!r}: initial decay factors "
                         f"must be a (low, high) pair with "
                         f"0 <= low <= high <= 1")


def init_params(spec: NetworkSpec, rng: np.random.Generator,
                tau_init=(0.25, 0.75), dtype=np.float32) -> NetworkParams:
    """Draw fresh parameters for the given topology.

    Weights are uniform with fan-in scaling, decay factors uniform over
    the ``(low, high)`` range ``tau_init`` (``(v, v)`` fixes them at
    ``v``).  Normalizer gain starts at 1, shift at 0, running statistics
    at the standard-normal values.
    """
    _check_tau_init(tau_init)
    low, high = tau_init
    layers = []
    for l in range(spec.n_layers):
        fan_in = spec.layer_widths[l]
        width = spec.layer_widths[l + 1]
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(width, fan_in))
        tau = rng.uniform(low, high, size=width)
        layers.append(LayerParams(
            weight=weight.astype(dtype),
            tau=tau.astype(dtype),
            gamma=np.ones(width, dtype=dtype),
            beta=np.zeros(width, dtype=dtype),
            run_mean=np.zeros(width, dtype=dtype),
            run_var=np.ones(width, dtype=dtype),
        ))
    return NetworkParams(layers)


def reset_state(spec: NetworkSpec, dtype=np.float32) -> NetworkState:
    """A zeroed streaming state matching the topology."""
    return NetworkState([np.zeros(w, dtype=dtype)
                         for w in spec.layer_widths[1:]])


def _check_params(params: NetworkParams, spec: NetworkSpec):
    """Raise ``ValueError`` if ``params`` breaks the rule the module
    docstring states, naming the array as a checkpoint does:
    ``layer<l>.<name>``."""
    if len(params.layers) != spec.n_layers:
        raise ValueError(
            f"parameter set has {len(params.layers)} layers, "
            f"topology wants {spec.n_layers}"
        )
    dtype = params.dtype
    for l, layer in enumerate(params.layers):
        width, fan_in = spec.layer_widths[l + 1], spec.layer_widths[l]
        for name, arr in layer.arrays().items():
            want = (width, fan_in) if name == "weight" else (width,)
            if arr.shape != want:
                raise ValueError(f"layer{l}.{name} has shape {arr.shape}, "
                                 f"expected {want}")
            if arr.dtype != dtype or dtype not in DTYPES:
                raise ValueError(f"layer{l}.{name} is {arr.dtype}; layer "
                                 f"arrays must all be float32 or all float64")
            if not np.isfinite(arr).all():
                raise ValueError(f"layer{l}.{name} holds non-finite values")
        if not 0.0 <= layer.tau.min() <= layer.tau.max() <= 1.0:
            raise ValueError(f"layer{l}.tau has a decay factor out of "
                             f"[0, 1]")
        if layer.run_var.min() < 0.0:
            raise ValueError(f"layer{l}.run_var has a negative variance")


def _dtype(params: NetworkParams, spec: NetworkSpec):
    """``params.dtype``, which an inference casts its input to before it
    checks that input and folds the set.  A set never folded meets
    :func:`_check_params` first, so a set and an input that are both
    wrong are refused for the set, and a refused input leaves a set
    unfolded and writable."""
    if params.folded is None:
        _check_params(params, spec)
    return params.dtype


def _check_writable(params: NetworkParams, names) -> None:
    """Raise ``ValueError`` unless the ``names`` arrays of every layer are
    writable, naming the first that is not: a training step writes them
    in place."""
    for l, layer in enumerate(params.layers):
        for name in names:
            if not getattr(layer, name).flags.writeable:
                raise ValueError(f"layer{l}.{name} is read-only: a decoded "
                                 f"parameter set must be copied "
                                 f"(copy.deepcopy) before it is trained")


def _fold(params: NetworkParams, spec: NetworkSpec) -> list:
    """Every layer's inference operands with the normalizer folded in.

    Per layer ``(W'ᵀ, b, tau)`` with ``W' = (thr·γ/σ)·W``,
    ``b = β − μ·thr·γ/σ`` and ``σ = √(run_var + eps)``, so that
    ``act @ W'ᵀ + b`` is the normalized current of ``act @ Wᵀ`` up to
    rounding.  The threshold scales the standardized current only, not β.
    """
    folded = []
    for n in params.layers:
        scale = spec.threshold * n.gamma / np.sqrt(n.run_var + spec.bn_eps)
        # the operand is laid out for act @ W'ᵀ: faster on one frame
        weight_t = np.ascontiguousarray((scale[:, None] * n.weight).T)
        folded.append((weight_t, n.beta - n.run_mean * scale, n.tau))
    return folded


def _folded(params: NetworkParams, spec: NetworkSpec) -> list:
    """:func:`_fold` of ``params``, built once per parameter set.

    The folded form is kept on ``params`` with the topology, the threshold
    and the source arrays themselves, and reused while all of them are the
    same.  Building it checks the parameters against ``spec`` and makes
    every source array read-only, so the arrays cannot change under it.
    """
    sources = []
    for n in params.layers:
        sources += (n.weight, n.tau, n.gamma, n.beta, n.run_mean, n.run_var)
    key = (spec.layer_widths, spec.threshold)
    held = params.folded
    if (held is not None and held[0] == key and len(held[1]) == len(sources)
            and all(map(operator.is_, held[1], sources))):
        return held[2]
    _check_params(params, spec)
    folded = _fold(params, spec)
    for a in sources:
        a.setflags(write=False)
    params.folded = (key, sources, folded)
    return folded


def _layer_normalized(spec: NetworkSpec, l: int) -> bool:
    # every layer is; kept for the test suite's scalar oracle
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


def _recurrence(cur: np.ndarray, tau: np.ndarray, u: np.ndarray,
                spec: NetworkSpec | None = None) -> None:
    """The membrane recurrence over time-major ``(T, ..., width)``
    currents from potentials ``u``: hidden layers firing at
    ``spec.threshold`` and resetting by ``spec.reset_mode``, or with
    ``spec=None`` the readout integrator.  The columns may be several
    hidden layers side by side, each with its own ``tau``.  Each frame's
    new potentials overwrite its currents, so on return ``cur`` holds
    every frame's potentials.  A hidden layer's spikes are its potentials
    at or above the threshold, as :func:`~snndecode.neuron.lif_step`
    reads them.
    """
    if spec is None:
        for t in range(len(cur)):
            u = output_step(u, cur[t], tau, out=cur[t])
        return
    for t in range(len(cur)):
        u = lif_step(u, cur[t], tau, spec.threshold, spec.reset_mode,
                     out=cur[t])


def _check_finite(ends: list, joined: np.ndarray) -> None:
    """Raise :class:`NumericError` naming the first layer whose end
    potentials ``ends[l]`` are not all finite; ``joined`` holds all of them
    and is checked first.  Neither membrane update makes a NaN or an
    infinity finite again, so the end potentials show an overflow on any
    frame."""
    if not np.isfinite(joined).all():
        bad = next(l for l, e in enumerate(ends) if not np.isfinite(e).all())
        raise NumericError(f"non-finite membrane potential in layer {bad}")


def _eval_pass(folded: list, spec: NetworkSpec, windows: np.ndarray):
    """The inference pass of the :func:`_fold` layers ``folded`` over
    checked ``(B, T, in_width)`` windows from a zero state: ``(B, T,
    out_width)`` predictions and one ``(B, T, width)`` spike array per
    hidden layer.  End potentials that are not all finite raise
    :class:`NumericError` (:func:`_check_finite`).

    The hidden layers run as a skewed pipeline over chunks of
    :data:`EVAL_CHUNK` frames: at stage ``k`` hidden layer ``l`` advances
    chunk ``k - l``, whose input spikes its lower layer made at stage
    ``k - 1``.  The stage's currents go into one ``(chunk, B, Σ widths)``
    buffer, and one :func:`_recurrence` over its columns advances every
    layer at once, carrying each layer's potentials from one of its chunks
    to the next.  Every element sees the arithmetic of a layer-major
    pass: the kernels are elementwise, and each frame's row product is
    rounded alone.  The readout then runs over all frames.
    """
    B, T, _ = windows.shape
    n_hidden, thr = spec.n_hidden, spec.threshold
    cols = [0]
    for width in spec.layer_widths[1:n_hidden + 1]:
        cols.append(cols[-1] + width)
    spikes = [np.empty((T, B, cols[l + 1] - cols[l]), windows.dtype)
              for l in range(n_hidden)]
    taus = np.concatenate([tau for _, _, tau in folded])[:cols[-1]]
    buf = np.empty((min(EVAL_CHUNK, T), B, cols[-1]), windows.dtype)
    u = np.zeros((B, cols[-1]), windows.dtype)
    act = windows.transpose(1, 0, 2)
    n_chunks = -(-T // EVAL_CHUNK)
    for k in range(n_chunks + n_hidden - 1 if n_chunks and n_hidden else 0):
        lo, hi = max(0, k - n_chunks + 1), min(k, n_hidden - 1)
        stage = [(l, slice((k - l) * EVAL_CHUNK, (k - l + 1) * EVAL_CHUNK))
                 for l in range(lo, hi + 1)]
        for l, rows in stage:
            weight_t, bias, _ = folded[l]
            # a stack of one (B, in) product per frame, each rounded as it
            # would be alone: forward_streaming's (1, in) products round
            # alike
            cur = (spikes[l - 1] if l else act)[rows] @ weight_t
            np.add(cur, bias, out=buf[:len(cur), :, cols[l]:cols[l + 1]])
        # only layer lo can be on the short last chunk: after its frames,
        # the layers above it go on alone
        short = len(spikes[lo][stage[0][1]])
        for r0, r1, c0 in ((0, short, cols[lo]),
                           (short, len(buf) if lo < hi else short,
                            cols[lo + 1])):
            if r0 < r1:
                c = slice(c0, cols[hi + 1])
                _recurrence(buf[r0:r1, :, c], taus[c], u[:, c], spec)
                u[:, c] = buf[r1 - 1, :, c]
        for l, rows in stage:
            out = spikes[l][rows]
            np.greater_equal(buf[:len(out), :, cols[l]:cols[l + 1]], thr,
                             out=out)
    weight_t, bias, tau = folded[-1]
    pot = (spikes[-1] if n_hidden else act) @ weight_t
    pot += bias
    zero = np.zeros(pot.shape[1:], dtype=pot.dtype)
    _recurrence(pot, tau, zero)
    ends = [u[:, cols[l]:cols[l + 1]] for l in range(n_hidden)]
    ends.append(pot[-1] if T else zero)
    _check_finite(ends, np.concatenate([u, ends[-1]], axis=-1))
    return pot.transpose(1, 0, 2), [a.transpose(1, 0, 2) for a in spikes]


def _check_windows(windows, spec: NetworkSpec, dtype) -> np.ndarray:
    """``windows`` as a ``(B, T, in_width)`` array of ``dtype``; a wrong
    shape or a non-finite value raises ``ValueError``."""
    windows = np.asarray(windows, dtype=dtype)
    if windows.ndim != 3 or windows.shape[-1] != spec.input_width:
        raise ValueError(
            f"expected windows shaped (batch, time, {spec.input_width}), "
            f"got {windows.shape}"
        )
    if not np.isfinite(windows).all():
        raise ValueError("input features contain non-finite values")
    return windows


def forward_unfolded(params: NetworkParams, spec: NetworkSpec,
                     windows: np.ndarray, mode: str = EVAL,
                     rng: np.random.Generator | None = None):
    """Run whole windows through the network.

    Parameters
    ----------
    windows : ndarray
        A batch of ``(B, T, in_width)`` windows; a single sequence goes
        through :func:`~snndecode.train.decode_sequence`.  State starts
        at zero.
    mode : str
        ``"train"`` runs the training pass: pooled batch+time
        normalization statistics and a fresh dropout mask per timestep
        (requires ``rng`` when dropout is active).  ``"eval"`` runs the
        inference pass: the running statistics folded into the weights,
        no dropout.  It makes the parameter arrays read-only (see the
        module docstring), once the windows have passed their checks.

    Returns
    -------
    (ndarray, TrainingCache) or (ndarray, list)
        Predictions of shape ``(B, T, out_width)``, and in ``"train"``
        mode the :class:`TrainingCache` that
        :func:`~snndecode.backprop.backward` takes, in ``"eval"`` mode
        one ``(B, T, width)`` spike array per hidden layer.
    """
    if mode not in (TRAIN, EVAL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == EVAL:
        windows = _check_windows(windows, spec, _dtype(params, spec))
        return _eval_pass(_folded(params, spec), spec, windows)
    _check_params(params, spec)
    windows = _check_windows(windows, spec, params.dtype)
    if spec.dropout_p > 0.0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")

    # the training pass runs time-major, (T, B, w)
    B, T, _ = windows.shape
    inputs = act = np.ascontiguousarray(windows.transpose(1, 0, 2))
    keep = 1.0 - spec.dropout_p
    per_layer = []
    for l, layer in enumerate(params.layers):
        # one blocked matmul over all (time*batch) rows: fastest path
        cur = _blocked_gemm(act.reshape(-1, act.shape[-1]), layer.weight.T)
        cur = cur.reshape(T, B, cur.shape[-1])

        # the squared deviations' buffer becomes the normalized currents,
        # which the recurrence turns into the potentials in place; the
        # product becomes xhat
        u = np.empty_like(cur)
        mean, var = batchnorm.batch_stats(cur, out=u)
        u, xhat, inv_std = batchnorm.normalize(
            cur, mean, var, layer.gamma, layer.beta,
            spec.threshold, spec.bn_eps, out=(u, cur))

        _recurrence(u, layer.tau, np.zeros_like(u[0]),
                    None if l == spec.n_hidden else spec)
        mask = act = None
        if l < spec.n_hidden:
            fired = u >= spec.threshold
            if spec.dropout_p > 0.0:
                kept = rng.random(size=u.shape) < keep
                # inverted scaling: eval needs none
                mask = np.divide(kept, keep, dtype=u.dtype)
                fired &= kept
            act = np.divide(fired, keep, dtype=u.dtype)

        per_layer.append((xhat, inv_std, mean, var, u, None if mask is None
                          else mask.transpose(1, 0, 2), act))

    # one list per cache field, in the order TrainingCache declares them
    cache = TrainingCache(inputs, *map(list, zip(*per_layer)))
    return u.transpose(1, 0, 2), cache


def forward_streaming(params: NetworkParams, spec: NetworkSpec,
                      frame: np.ndarray, state: NetworkState):
    """Advance the persistent decoder state by one frame.

    Makes the inference pass's arithmetic for one frame from ``state``
    (see the module docstring): the running statistics folded into the
    weights, no dropout.  The first frame that passes the checks below
    folds the parameters and makes their arrays read-only; later frames
    reuse the folded form.  Every state array must be shaped ``(width,)``
    and be of the decoder's dtype, ``params.dtype``.  The passed-in state
    is left untouched.  A frame holding a NaN or infinity is rejected
    with ``ValueError``, as in :func:`forward_unfolded`, before any state
    is computed, so one bad frame cannot poison the membrane potentials
    of the frames after it; non-finite new potentials raise
    :class:`NumericError` naming the first such layer, and no state is
    returned.

    Returns
    -------
    (ndarray, NetworkState)
        ``(prediction, new_state)``.  The new state's arrays are views of
        one buffer holding every layer's potentials; the prediction, of
        output width, is an array of its own.
    """
    dtype = _dtype(params, spec)
    frame = np.asarray(frame, dtype=dtype)
    if frame.shape != (spec.input_width,):
        raise ValueError(
            f"expected a frame of shape ({spec.input_width},), got {frame.shape}"
        )
    if not np.isfinite(frame).all():
        raise ValueError("input features contain non-finite values")
    if len(state.potentials) != spec.n_layers:
        raise ValueError(
            f"state has {len(state.potentials)} layers, "
            f"topology wants {spec.n_layers}"
        )
    # the recurrence does not check shapes: a (1,) potential would
    # broadcast, and another dtype would promote away from the batch rows
    for l, (u, width) in enumerate(zip(state.potentials,
                                       spec.layer_widths[1:])):
        if u.shape != (width,):
            raise ValueError(f"state shape mismatch in layer {l}: "
                             f"{u.shape}, expected ({width},)")
        if u.dtype != dtype:
            raise ValueError(f"state dtype mismatch in layer {l}: "
                             f"{u.dtype}, the decoder's is {dtype}")
    folded = _folded(params, spec)
    # the new potentials, layer after layer, go into one buffer
    buf = np.empty(spec.neuron_count, dtype=dtype)
    ends = []
    act = frame
    lo = 0
    n_hidden = spec.n_hidden
    # the value numpy casts the Python float to in every use, cast once
    threshold = dtype.type(spec.threshold)
    for l, ((weight_t, bias, tau), u) in enumerate(zip(folded,
                                                       state.potentials)):
        # the (1, in) row product the window pass makes for each frame
        cur = act[None] @ weight_t
        cur += bias
        end = buf[lo:lo + u.size]
        lo += u.size
        if l < n_hidden:
            lif_step(u, cur[0], tau, threshold, spec.reset_mode, out=end)
            act = (end >= threshold).astype(dtype)
        else:
            output_step(u, cur[0], tau, out=end)
        ends.append(end)
    _check_finite(ends, buf)
    return ends[-1].copy(), NetworkState(ends)
