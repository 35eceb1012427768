"""Training loop: sliding windows, batched gradient descent, logging.

One epoch shuffles the window dataset with the run's seeded generator,
walks it in batches, and for each batch runs the training-mode forward,
the manual backward pass, and one AdamW step.  Normalizer running
statistics advance by their exponential moving average after every
batch.  Everything downstream of the seed is deterministic, so a rerun
with the same config and data reproduces the log bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from numbers import Real

import numpy as np

from .backprop import backward, window_loss
from .batchnorm import EVAL, TRAIN
from .errors import NumericError
from .metrics import check_targets, evaluate
from .network import (
    NetworkParams,
    NetworkSpec,
    _check_tau_init,
    _check_windows,
    _check_writable,
    _eval_pass,
    _fold,
    _is_int,
    forward_unfolded,
    init_params,
)
from .neuron import RESET_SUBTRACT
from .optim import adamw_init, adamw_step

# The settings a training run and the network it trains both carry; their
# rule is :class:`NetworkSpec`'s.
_SPEC_FROM_CONFIG = ("window_len", "reset_mode", "dropout_p")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    The settings it shares with the decoder (``_SPEC_FROM_CONFIG``) are
    checked by building a :class:`NetworkSpec` of them; the others, and
    ``warmup_discard < window_len``, are checked here.
    """

    learning_rate: float = 2e-3
    weight_decay: float = 1e-2
    batch_size: int = 128
    window_len: int = 10
    warmup_discard: int = 2
    epochs: int = 25
    seed: int = 0
    reset_mode: str = RESET_SUBTRACT
    trainable_tau: bool = True
    tau_init: tuple = (0.25, 0.75)      # (low, high) range of decay factors
    dropout_p: float = 0.2

    def __post_init__(self):
        for name in ("batch_size", "warmup_discard", "epochs", "seed"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ValueError(
                    f"{name}={value!r} is not a non-negative integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        NetworkSpec(**{name: getattr(self, name)
                       for name in _SPEC_FROM_CONFIG})
        if not 0 <= self.warmup_discard < self.window_len:
            raise ValueError(
                f"warmup_discard={self.warmup_discard} must lie in "
                f"[0, {self.window_len})"
            )
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ValueError(f"{name}={value!r} is not a number")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate={self.learning_rate!r} is not "
                             f"positive and finite")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay={self.weight_decay!r} is not "
                             f"non-negative and finite")
        if not isinstance(self.trainable_tau, bool):
            raise ValueError(f"trainable_tau={self.trainable_tau!r} is not "
                             f"true or false")
        _check_tau_init(self.tau_init)


@dataclass
class WindowDataset:
    """Sliding windows over a frame sequence, one starting at every frame
    that leaves room for a whole window; stored as the base arrays so
    materialization happens per batch."""

    features: np.ndarray        # (frames, channels)
    velocities: np.ndarray      # (frames, outputs)
    window_len: int

    def __len__(self) -> int:
        return len(self.features) - self.window_len + 1

    def gather(self, idx):
        """Materialize a batch: ``(B, T, channels)`` and ``(B, T, outputs)``;
        window ``i`` spans frames ``i`` to ``i + window_len - 1``."""
        offsets = idx[:, None] + np.arange(self.window_len)
        return self.features[offsets], self.velocities[offsets]


def make_windows(features: np.ndarray, velocities: np.ndarray,
                 window_len: int) -> WindowDataset:
    """Cut a frame sequence into training windows.

    Consecutive windows shift by one frame, giving
    ``n_frames - window_len + 1`` samples in chronological order.  Arrays
    of the wrong rank or length raise ``ValueError``, and so does a NaN or
    an infinity in either, naming the array.
    """
    features = np.asarray(features)
    velocities = np.asarray(velocities)
    if features.ndim != 2 or velocities.ndim != 2:
        raise ValueError("expected (frames, channels) and (frames, outputs)")
    if len(features) != len(velocities):
        raise ValueError(
            f"{len(features)} feature frames vs {len(velocities)} "
            f"velocity frames"
        )
    for name, arr in (("features", features), ("velocities", velocities)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contain non-finite values")
    n = len(features)
    if n < window_len:
        raise ValueError(
            f"need at least {window_len} frames to cut one window, got {n}"
        )
    return WindowDataset(features=features, velocities=velocities,
                         window_len=window_len)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_r: tuple | None         # per-output correlation, None without val data
    wall_s: float

    def line(self, include_wall: bool = True) -> str:
        parts = [f"epoch={self.epoch:03d}",
                 f"train_loss={self.train_loss:.6f}"]
        if self.val_r is not None:
            for i, r in enumerate(self.val_r):
                parts.append(f"val_r{i + 1}={r:.4f}")
            parts.append(f"val_r_mean={float(np.mean(self.val_r)):.4f}")
        if include_wall:
            parts.append(f"wall_s={self.wall_s:.2f}")
        return " ".join(parts)


@dataclass
class TrainingLog:
    """Append-only per-epoch records plus the effective configuration:
    the ``TrainConfig`` fields and, under ``"spec"``, the ``NetworkSpec``
    that was trained.

    ``canonical()`` leaves out wall-clock times, so two runs with the
    same seed produce byte-identical canonical logs.
    """

    config: dict
    records: list = field(default_factory=list)

    def canonical(self) -> str:
        import json
        lines = ["# config " + json.dumps(self.config, sort_keys=True)]
        lines += [r.line(include_wall=False) for r in self.records]
        return "\n".join(lines) + "\n"


def decode_sequence(params: NetworkParams, spec: NetworkSpec,
                    features: np.ndarray) -> np.ndarray:
    """Decode a whole frame sequence in inference mode.

    Runs the unfolded evaluation pass over the sequence as one long
    window, which is arithmetically identical to streaming the frames
    through :func:`forward_streaming` one by one.
    """
    preds, _ = forward_unfolded(params, spec, np.asarray(features)[None],
                                mode=EVAL)
    return preds[0]


def decoder_spec(config: TrainConfig, input_width: int, output_width: int,
                 threshold: float = NetworkSpec.threshold) -> NetworkSpec:
    """The decoder a run of ``config`` trains: ``NetworkSpec``'s default
    hidden layers between the given widths, with the config's window
    length, reset mode and dropout."""
    hidden = NetworkSpec.layer_widths[1:-1]
    return NetworkSpec(
        layer_widths=(input_width, *hidden, output_width),
        threshold=threshold,
        **{name: getattr(config, name) for name in _SPEC_FROM_CONFIG},
    )


# Weight of a batch's statistics in the normalizers' running averages.
BN_MOMENTUM = 0.1


def _advance_running_stats(params: NetworkParams, cache):
    """Move every layer's running statistics, in place, toward the batch
    statistics ``cache`` recorded.  Statistics that overflow (a finite
    loss can come with an infinite batch variance) raise
    :class:`NumericError`; a decoded, read-only set raises ``ValueError``
    before anything is written."""
    _check_writable(params, ("run_mean", "run_var"))
    mom = BN_MOMENTUM
    for l, (n, mean, var) in enumerate(zip(params.layers, cache.mean,
                                           cache.var)):
        n.run_mean *= 1.0 - mom
        n.run_mean += mom * mean.astype(n.run_mean.dtype)
        n.run_var *= 1.0 - mom
        n.run_var += mom * var.astype(n.run_var.dtype)
        if not all(np.isfinite(a).all() for a in (n.run_mean, n.run_var)):
            raise NumericError(f"training diverged: non-finite running "
                               f"statistics in layer {l}")


def _validation_r(params, spec, features, velocities):
    """Per-output correlation of the decode of checked ``(1, T, in)``
    features.  The parameters are still being trained, so they are folded
    afresh, not cached and frozen; the kernel is the one
    :func:`decode_sequence` runs, so the rows are the same bits."""
    preds, _ = _eval_pass(_fold(params, spec), spec, features)
    return evaluate(preds[0], velocities).r_per_dim


def fit(dataset: WindowDataset, config: TrainConfig,
        spec: NetworkSpec | None = None,
        val_features: np.ndarray | None = None,
        val_velocities: np.ndarray | None = None):
    """Train a decoder on a window dataset; returns ``(params, log)``.

    When ``spec`` is omitted it is :func:`decoder_spec` of the config and
    the dataset's widths; a given ``spec`` must agree with the config on
    the settings both carry, or ``ValueError`` names the first that
    differs.  Training starts from :func:`init_params` drawn from the
    run's seed.  If validation arrays are given (both of them), each
    epoch records per-output Pearson correlations of the validation
    decode.  Either array without the other, velocities the metrics
    cannot score (:func:`metrics.check_targets`), misshaped or
    non-finite validation features, and velocities of another length
    than the features or another width than the outputs are refused with
    ``ValueError`` before the first epoch.  A non-finite
    loss aborts with a diagnostic.  The returned parameters are
    writable: validation does not freeze them.
    """
    if len(dataset) == 0:
        raise ValueError("empty window dataset")
    if (val_features is None) != (val_velocities is None):
        raise ValueError("validation needs both val_features and "
                         "val_velocities")
    if spec is None:
        spec = decoder_spec(config, dataset.features.shape[1],
                            dataset.velocities.shape[1])
    for name in _SPEC_FROM_CONFIG:
        if getattr(spec, name) != getattr(config, name):
            raise ValueError(
                f"spec {name}={getattr(spec, name)!r} disagrees with "
                f"config {name}={getattr(config, name)!r}"
            )
    if dataset.window_len != spec.window_len:
        raise ValueError(
            f"dataset windows span {dataset.window_len} frames, "
            f"topology wants {spec.window_len}"
        )

    rng = np.random.default_rng(config.seed)
    params = init_params(spec, rng, tau_init=config.tau_init)
    if val_features is not None:
        check_targets(val_velocities)
        val_features = _check_windows(np.asarray(val_features)[None], spec,
                                      params.dtype)
        val_velocities = np.asarray(val_velocities)
        want = (val_features.shape[1], spec.output_width)
        if val_velocities.shape != want:
            raise ValueError(f"val_velocities shaped {val_velocities.shape},"
                             f" expected {want}")
    opt_state = adamw_init(params)
    log = TrainingLog(config={"spec": asdict(spec), **asdict(config)})

    for epoch in range(config.epochs):
        tic = time.perf_counter()
        order = rng.permutation(len(dataset))
        loss_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x, y = dataset.gather(idx)
            preds, cache = forward_unfolded(params, spec, x, mode=TRAIN,
                                            rng=rng)
            loss = window_loss(preds, y, config.warmup_discard)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {lo // config.batch_size}"
                )
            grads = backward(cache, params, spec, y, config.warmup_discard)
            if not config.trainable_tau:
                for g in grads.layers:
                    g.tau = np.zeros_like(g.tau)
            adamw_step(params, grads, opt_state,
                       learning_rate=config.learning_rate,
                       weight_decay=config.weight_decay)
            _advance_running_stats(params, cache)
            loss_sum += loss * len(idx)

        val_r = None
        if val_features is not None:
            val_r = _validation_r(params, spec, val_features, val_velocities)
        log.records.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / len(dataset),
            val_r=val_r,
            wall_s=time.perf_counter() - tic,
        ))

    return params, log
