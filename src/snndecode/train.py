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

import numpy as np

from .backprop import backward, window_loss
from .batchnorm import EVAL, TRAIN
from .errors import NumericError
from .metrics import pearson
from .network import (
    NetworkParams,
    NetworkSpec,
    _layer_normalized,
    forward_unfolded,
    init_params,
)
from .neuron import RESET_MODES, RESET_SUBTRACT
from .optim import adamw_init, adamw_step


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    learning_rate: float = 2e-3
    weight_decay: float = 1e-2
    batch_size: int = 128
    window_len: int = 10
    warmup_discard: int = 2
    epochs: int = 25
    seed: int = 0
    reset_mode: str = RESET_SUBTRACT
    trainable_tau: bool = True
    tau_init: object = (0.25, 0.75)     # (low, high) range or a fixed scalar
    dropout_p: float = 0.2
    grad_clip: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not 0 <= self.warmup_discard < self.window_len:
            raise ValueError(
                f"warmup_discard={self.warmup_discard} must lie in "
                f"[0, {self.window_len})"
            )
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"unknown reset mode {self.reset_mode!r}")

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        if isinstance(d["tau_init"], tuple):
            d["tau_init"] = list(d["tau_init"])
        return d


@dataclass
class WindowDataset:
    """Sliding windows over a frame sequence, stored as base arrays plus
    start offsets so materialization happens per batch."""

    features: np.ndarray        # (frames, channels)
    velocities: np.ndarray      # (frames, outputs)
    starts: np.ndarray          # (samples,)
    window_len: int

    def __len__(self) -> int:
        return len(self.starts)

    def gather(self, idx):
        """Materialize a batch: ``(B, T, channels)`` and ``(B, T, outputs)``."""
        offsets = self.starts[idx][:, None] + np.arange(self.window_len)
        return self.features[offsets], self.velocities[offsets]


def make_windows(features: np.ndarray, velocities: np.ndarray,
                 window_len: int, overlap: int | None = None) -> WindowDataset:
    """Cut a frame sequence into overlapping training windows.

    With the default ``overlap = window_len - 1`` consecutive windows
    shift by one frame, giving ``n_frames - window_len + 1`` samples in
    chronological order.
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
    if overlap is None:
        overlap = window_len - 1
    if not 0 <= overlap < window_len:
        raise ValueError(f"overlap={overlap} must lie in [0, {window_len})")
    n = len(features)
    if n < window_len:
        raise ValueError(
            f"need at least {window_len} frames to cut one window, got {n}"
        )
    stride = window_len - overlap
    starts = np.arange(0, n - window_len + 1, stride)
    return WindowDataset(features=features, velocities=velocities,
                         starts=starts, window_len=window_len)


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

    def to_text(self, include_wall: bool = True) -> str:
        import json
        header = "# config " + json.dumps(self.config, sort_keys=True)
        lines = [header]
        lines += [r.line(include_wall) for r in self.records]
        return "\n".join(lines) + "\n"

    def canonical(self) -> str:
        return self.to_text(include_wall=False)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())


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


# The settings a training run and the network it trains both carry.
_SPEC_FROM_CONFIG = ("window_len", "reset_mode", "dropout_p")


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


def _advance_running_stats(params: NetworkParams, cache, spec: NetworkSpec):
    mom = spec.bn_momentum
    for l, layer in enumerate(params.layers):
        if not _layer_normalized(spec, l):
            continue
        n = layer.norm
        mean = cache.mean[l].astype(n.run_mean.dtype)
        var = cache.var[l].astype(n.run_var.dtype)
        n.run_mean = (1.0 - mom) * n.run_mean + mom * mean
        n.run_var = (1.0 - mom) * n.run_var + mom * var


def _grad_global_norm(grads) -> float:
    total = 0.0
    for g in grads.layers:
        for arr in (g.weight, g.tau, g.gamma, g.beta):
            total += float((arr * arr).sum())
    return float(np.sqrt(total))


def _validation_r(params, spec, features, velocities):
    preds = decode_sequence(params, spec, features)
    rs = []
    for d in range(preds.shape[1]):
        try:
            rs.append(pearson(preds[:, d], velocities[:, d]))
        except ValueError:          # flat prediction early in training
            rs.append(float("nan"))
    return tuple(rs)


def fit(dataset: WindowDataset, config: TrainConfig,
        spec: NetworkSpec | None = None,
        params: NetworkParams | None = None,
        val_features: np.ndarray | None = None,
        val_velocities: np.ndarray | None = None):
    """Train a decoder on a window dataset; returns ``(params, log)``.

    When ``spec`` is omitted it is :func:`decoder_spec` of the config and
    the dataset's widths; a given ``spec`` must agree with the config on
    the settings both carry, or ``ValueError`` names the first that
    differs.  When ``params`` are omitted they are initialized from the
    run's seed.  If validation arrays are given, each epoch records
    per-output Pearson correlations of the streamed validation decode.
    A non-finite loss aborts with a diagnostic.
    """
    if len(dataset) == 0:
        raise ValueError("empty window dataset")
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
    if params is None:
        params = init_params(spec, rng, tau_init=config.tau_init)
    opt_state = adamw_init(params)
    log = TrainingLog(config={"spec": asdict(spec),
                              **config.as_dict()})

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
            if config.grad_clip is not None:
                norm = _grad_global_norm(grads)
                if norm > config.grad_clip:
                    grads = grads.scale(config.grad_clip / norm)
            params, opt_state = adamw_step(
                params, grads, opt_state,
                learning_rate=config.learning_rate,
                weight_decay=config.weight_decay)
            _advance_running_stats(params, cache, spec)
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
