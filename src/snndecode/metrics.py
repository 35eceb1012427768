"""Evaluation metrics: Pearson correlation and mean squared error.

:func:`evaluate` is the one scorer: training's validation, ``eval``,
``stream`` and ``kf`` all score their decode with it.  It scores a
prediction column whose values are all equal (a silent decoder's) as
NaN, since it has no correlation, and the others with :func:`pearson`.
:func:`check_targets` is the one rule of what can be scored: every path
checks its true velocities with it before it decodes or fits, and
:func:`evaluate` checks them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def pearson(a, b) -> float:
    """Product-moment correlation of two equal-length sequences.

    Raises ``ValueError`` when fewer than two points are given, either
    input holds a NaN or an infinity, or either input has zero variance
    (the coefficient is undefined there, and an undefined metric should
    fail loudly rather than read as 0 or -1).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("correlation needs at least two points")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("correlation undefined for non-finite input")
    da = a - a.mean()
    db = b - b.mean()
    norm = np.sqrt((da * da).sum() * (db * db).sum())
    # the mean of equal values can differ from them by rounding, so a
    # constant is found by comparing its values
    if norm == 0.0 or (a == a[0]).all() or (b == b[0]).all():
        raise ValueError("correlation undefined for zero-variance input")
    r = float((da * db).sum() / norm)
    return min(1.0, max(-1.0, r))


def check_targets(velocities) -> None:
    """Refuse true velocities that give no correlation per output.

    ``(frames, outputs)`` targets need at least two frames, finite values
    and no output column whose values are all equal; anything else raises
    ``ValueError``, naming the column that is constant.
    """
    v = np.asarray(velocities)
    if len(v) < 2:
        raise ValueError(f"scoring needs at least two frames, got {len(v)}")
    if not np.isfinite(v).all():
        raise ValueError("scored velocities hold non-finite values")
    flat = (v == v[0]).all(axis=0)
    if flat.any():
        raise ValueError(f"velocity column {flat.argmax() + 1} is constant, "
                         f"so its correlation is undefined")


def mse(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass
class MetricReport:
    """Per-finger correlations plus pooled error for one evaluation run."""

    r_per_dim: tuple
    r_mean: float
    mse: float
    frames: int

    def lines(self):
        per = " ".join(
            f"r{i + 1}={r:.4f}" for i, r in enumerate(self.r_per_dim)
        )
        return [
            f"frames={self.frames}",
            f"{per} r_mean={self.r_mean:.4f}",
            f"mse={self.mse:.6f}",
        ]


def evaluate(predictions: np.ndarray, targets: np.ndarray) -> MetricReport:
    """Metric report for a decoded sequence, one correlation per output.

    Targets :func:`check_targets` refuses raise its ``ValueError``; a
    constant prediction column scores NaN, and so does ``r_mean`` then.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape or predictions.ndim != 2:
        raise ValueError(
            f"expected matching (frames, outputs) arrays, got "
            f"{predictions.shape} and {targets.shape}"
        )
    check_targets(targets)
    flat = (predictions == predictions[0]).all(axis=0)
    rs = tuple(
        float("nan") if flat[d] else pearson(predictions[:, d], targets[:, d])
        for d in range(predictions.shape[1])
    )
    return MetricReport(
        r_per_dim=rs,
        r_mean=float(np.mean(rs)),
        mse=mse(predictions, targets),
        frames=predictions.shape[0],
    )
