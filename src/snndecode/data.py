"""Frame-level dataset handling.

A dataset is a chronological sequence of frames, each pairing a vector
of band-power features with two finger velocities: a :class:`FrameSet`,
whose constructor is the one rule of a usable set, for loaded, split,
generated and hand-built sets alike.  Two on-disk formats round-trip
losslessly: a human-readable CSV, for outside recordings, and the
``"frames"`` kind of the binary :mod:`snndecode.container`.
Helpers cover the chronological train/validation split, the
train-statistics :class:`Standardizer`, and a synthetic cosine-tuning
generator that stands in for recordings that cannot be redistributed.
Both value types are frozen, and each one's constructor is its rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import DataError, refused

FRAME_ARRAYS = ("features", "velocities")       # each float32, one row a frame

SYNTHETIC = "synthetic"
EXTERNAL = "external"

# Shared noise of the synthetic generator, in units of its ``noise_std``:
# the per-frame jitter on the encoded velocity, and the probability and
# scale of the sparse artifact kicks.
JITTER_MULT = 2.0
ARTIFACT_PROB = 0.25
ARTIFACT_MULT = 15.0


@dataclass(frozen=True)
class FrameSet:
    """A recording: one row of ``features`` and of ``velocities`` per frame.

    Building one is the single statement of a usable frame set: the arrays
    become contiguous float32 (values beyond float32 turn infinite), and
    then ``features`` must be ``(frames, channels)`` with at least one
    channel, ``velocities`` ``(frames, 2)``, both finite, and ``frame_ms``
    a positive, finite duration; anything else raises ``ValueError``
    naming the array or value.  The frame and channel counts are the
    arrays' shapes.  The set is frozen, so no field escapes the rule by
    being reassigned later.
    """

    features: np.ndarray        # (frames, channels) float32
    velocities: np.ndarray      # (frames, 2) float32
    frame_ms: float
    provenance: str = EXTERNAL

    def __post_init__(self):
        with np.errstate(over="ignore"):    # beyond float32 is inf
            for name in FRAME_ARRAYS:
                object.__setattr__(self, name, np.ascontiguousarray(
                    getattr(self, name), dtype=np.float32))
        shape = self.features.shape
        if len(shape) != 2 or shape[1] < 1:
            raise ValueError(f"features has shape {shape}, expected "
                             f"(frames, channel_count >= 1)")
        if self.velocities.shape != (shape[0], 2):
            raise ValueError(f"velocities has shape {self.velocities.shape},"
                             f" expected ({shape[0]}, 2)")
        for name in FRAME_ARRAYS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} holds non-finite float32 values")
        if not 0.0 < self.frame_ms < np.inf:
            raise ValueError(f"frame_ms={self.frame_ms!r} is not a positive "
                             f"finite duration")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def channel_count(self) -> int:
        return self.features.shape[1]

    @property
    def duration_s(self) -> float:
        return len(self) * self.frame_ms / 1000.0


def _csv_header(channels: int) -> str:
    names = [f"ch{i + 1}" for i in range(channels)] + ["vel1", "vel2"]
    return ",".join(names)


def _fmt(value) -> str:
    # shortest decimal string that parses back to the same value of
    # value's type (float32 cells, the float64 frame duration)
    return np.format_float_positional(value, unique=True, trim="0")


def save_frames(frames: FrameSet, path, fmt: str = "binary") -> None:
    """Write a dataset to ``path`` in ``csv`` or ``binary`` format.

    Output bytes are a pure function of the dataset, so identical data
    produce identical files.
    """
    if fmt == "csv":
        rows = np.hstack([frames.features, frames.velocities])
        with open(path, "w") as fh:
            fh.write(f"# frames v1 "
                     f"frame_ms={_fmt(np.float64(frames.frame_ms))} "
                     f"provenance={frames.provenance}\n")
            fh.write(_csv_header(frames.channel_count) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    elif fmt == "binary":
        container.write(path, container.FRAMES,
                        {"frame_ms": float(frames.frame_ms),
                         "provenance": frames.provenance},
                        [(name, getattr(frames, name).astype(np.float32))
                         for name in FRAME_ARRAYS])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_csv(path, raw: bytes):
    try:
        lines = raw.decode().splitlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: undecodable text: {e}") from e
    frame_ms, provenance = 50.0, EXTERNAL
    lineno = 0
    if lines and lines[0].startswith("#"):
        for token in lines[0].split():
            if token.startswith("frame_ms="):
                try:
                    frame_ms = float(token.split("=", 1)[1])
                except ValueError as e:
                    raise DataError(f"{path} line 1: {e}") from e
            elif token.startswith("provenance="):
                provenance = token.split("=", 1)[1]
        lines = lines[1:]
        lineno = 1
    if not lines:
        raise DataError(f"{path}: no header row")
    header = lines[0].split(",")
    n_cols = len(header)
    if n_cols < 3 or header[-2:] != ["vel1", "vel2"]:
        raise DataError(
            f"{path} line {lineno + 1}: expected header ch1..chN,vel1,vel2"
        )
    rows = []
    for off, line in enumerate(lines[1:], start=lineno + 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise DataError(
                f"{path} line {off}: expected {n_cols} columns, "
                f"got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise DataError(f"{path} line {off}: {e}") from e
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows)
    return table[:, :-2], table[:, -2:], frame_ms, provenance


def _parse_container(path, raw: bytes):
    meta, arrays = container.parse(path, raw, container.FRAMES)
    for name in FRAME_ARRAYS:
        if arrays[name].dtype != np.float32:
            raise DataError(f"{path}: array {name!r} is not float32")
    return (arrays["features"], arrays["velocities"],
            float(meta["frame_ms"]), str(meta["provenance"]))


def load_frames(path) -> FrameSet:
    """Load a dataset, sniffing its format from the first bytes.

    The loader holds only the formats' rules: CSV syntax, named by line,
    and the container's kind, its two float32 arrays and its metadata
    keys; the binary layout that came before the container is refused.
    What the arrays and the frame duration must be is :class:`FrameSet`'s
    rule.  Every refusal is a :class:`DataError` naming the file: a
    missing array or key, unusable metadata and :class:`FrameSet`'s
    refusal become one through :func:`~snndecode.errors.refused`.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if raw[:4] == b"SNNF":
        raise DataError(f"{path}: an SNNF frame file, a layout no longer "
                        f"read; re-run synth or load the CSV")
    parse = _parse_container if raw[:4] == container.MAGIC else _parse_csv
    with refused(path):
        return FrameSet(*parse(path, raw))


def split_train_val(frames: FrameSet, ratio: float = 0.8):
    """Chronological prefix/suffix split; no shuffling.

    Returns ``(train, val)`` with ``floor(ratio * n)`` training frames;
    a split that leaves the training part empty raises ``ValueError``.
    The validation part is never empty: for a ratio below 1,
    ``ratio * n`` rounds to less than ``n``.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie strictly inside (0, 1)")
    n = len(frames)
    cut = int(ratio * n)
    if cut < 1:
        raise ValueError(f"split of {n} frames at ratio {ratio} leaves the "
                         f"train split empty")

    def piece(sl):
        return FrameSet(frames.features[sl], frames.velocities[sl],
                        frames.frame_ms, frames.provenance)

    return piece(slice(None, cut)), piece(slice(cut, None))


@dataclass(frozen=True)
class Standardizer:
    """Per-channel affine maps fit on the training split only.

    Channels whose training standard deviation is zero keep scale 1.
    Building one is its one rule: each array is 1-D, floating-point (of
    any width: a loaded standardizer keeps its dtype) and finite, each
    ``_std`` scale is as long as its ``_mean`` and every scale is
    positive; anything else raises ``ValueError`` whose message starts
    with the array's name.  Its maps refuse, with ``ValueError``, an array
    whose last axis is not as wide as theirs.
    """

    feat_mean: np.ndarray
    feat_std: np.ndarray
    vel_mean: np.ndarray
    vel_std: np.ndarray

    def __post_init__(self):
        for name, arr in vars(self).items():
            if not (isinstance(arr, np.ndarray) and arr.ndim == 1
                    and arr.dtype.kind == "f" and np.isfinite(arr).all()):
                raise ValueError(f"{name} is not a 1-D array of finite "
                                 f"floating-point values")
        for mean in ("feat_mean", "vel_mean"):
            scale = mean.replace("mean", "std")
            if getattr(self, mean).shape != getattr(self, scale).shape:
                raise ValueError(f"{mean} and its scale {scale} differ in "
                                 f"length")
            if not (getattr(self, scale) > 0.0).all():
                raise ValueError(f"{scale} has a scale that is not positive")

    @classmethod
    def fit(cls, frames: FrameSet) -> "Standardizer":
        """The standardizer of ``frames``' columns; fewer than two frames
        have no sample deviation and raise ``ValueError``."""
        if len(frames) < 2:
            raise ValueError(f"standardizing needs at least two training "
                             f"frames, got {len(frames)}")
        stats = []
        for arr in (frames.features, frames.velocities):
            arr = arr.astype(np.float64)
            std = arr.std(axis=0, ddof=1)
            stats += [arr.mean(axis=0), np.where(std == 0, 1.0, std)]
        return cls(*(a.astype(np.float32) for a in stats))

    def apply_features(self, features) -> np.ndarray:
        return ((_columns(features, self.feat_mean) - self.feat_mean)
                / self.feat_std).astype(np.float32)

    def apply_velocities(self, velocities) -> np.ndarray:
        return ((_columns(velocities, self.vel_mean) - self.vel_mean)
                / self.vel_std).astype(np.float32)

    def apply(self, frames: FrameSet):
        """Standardize a frame set; returns ``(features, velocities)``."""
        return (self.apply_features(frames.features),
                self.apply_velocities(frames.velocities))

    def invert_velocity(self, standardized) -> np.ndarray:
        """Map standardized velocities back to original units."""
        return (_columns(standardized, self.vel_mean) * self.vel_std
                + self.vel_mean)


def _columns(values, mean: np.ndarray) -> np.ndarray:
    """``values`` as an array whose last axis is as wide as ``mean``;
    another width, which would broadcast or fail in numpy's words, raises
    ``ValueError`` naming the array's shape and the width wanted."""
    values = np.asarray(values)
    if values.shape[-1:] != mean.shape:
        raise ValueError(f"shape {values.shape} is not {mean.size} wide")
    return values


def _tuning(encoded: np.ndarray, directions: np.ndarray, gains: np.ndarray,
            baselines: np.ndarray) -> np.ndarray:
    """``softplus(baselines + gains * (encoded @ directions.T))``, one
    (frames, channels) array written in place."""
    out = encoded @ directions.T
    out *= gains
    out += baselines
    return np.logaddexp(0.0, out, out=out)


def synth_generate(n_frames: int, channels: int = 96, seed: int = 0,
                   noise_std: float = 0.3, smoothness: float = 10.0,
                   frame_ms: float = 50.0) -> FrameSet:
    """Generate a synthetic cosine-tuned dataset.

    The two latent finger velocities follow a smooth mean-reverting
    random walk (first-order low-pass over white noise with a
    ``smoothness``-frame time constant).  Each channel is a rectified
    tuning curve of the velocity vector,

        feature_i = softplus(b_i + g_i * (d_i . w)) + private noise,

    with a random unit preferred direction ``d_i``, gain ``g_i``, and
    baseline ``b_i``.  Three noise sources scale with ``noise_std``:

    * private additive Gaussian noise per channel, with standard
      deviation ``noise_std`` relative to that channel's clean signal
      deviation;
    * a shared per-frame Gaussian jitter on the encoded velocity,
      ``w(t) = v(t) + JITTER_MULT * noise_std * eta(t)`` — purely
      private noise averages away across 96 channels and would leave
      an almost perfectly linearly decodable dataset;
    * sparse shared artifacts: with probability ``ARTIFACT_PROB`` a
      frame's encoded velocity gets an extra Gaussian kick of scale
      ``ARTIFACT_MULT * noise_std``, mimicking the heavy-tailed
      glitches of real recordings.  Occasional corrupted frames are
      what separate decoder families — a fixed-gain linear filter can
      only average over them, while a nonlinear temporal decoder can
      learn to gate them out.

    ``noise_std=0`` disables all three sources.  Everything is a
    deterministic function of ``seed`` and the config.
    """
    if n_frames < 1 or channels < 1:      # sizes that cannot be drawn
        raise ValueError(f"n_frames={n_frames} and channel_count={channels} "
                         f"must both be at least 1")
    # NaN fails too, and so does a time constant so long (inf included)
    # that the walk's decay 1 - 1/smoothness rounds to 1 and freezes it
    if not (smoothness > 1.0 and 1.0 - 1.0 / smoothness < 1.0):
        raise ValueError(f"smoothness={smoothness!r} must exceed 1 frame "
                         f"and be short enough for the velocities to vary")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise_std={noise_std!r} must be non-negative "
                         f"and finite")
    rng = np.random.default_rng(seed)

    directions = rng.normal(size=(channels, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    gains = rng.uniform(0.5, 2.0, size=channels)
    baselines = rng.uniform(-1.0, 1.0, size=channels)

    rho = 1.0 - 1.0 / smoothness
    drive = np.sqrt(1.0 - rho * rho)        # keeps the latent near unit power
    innovations = rng.normal(size=(n_frames, 2))
    # v[0] = innovations[0], v[t] = rho * v[t-1] + drive * innovations[t]:
    # one scalar recursion per column, the same double operations in the
    # same order as a loop over frames
    kicks = drive * innovations
    kicks[0] = innovations[0]
    velocities = np.empty((n_frames, 2))
    for j in range(2):
        velocities[:, j] = np.fromiter(
            itertools.accumulate(kicks[:, j].tolist(),
                                 lambda v, k: rho * v + k),
            np.float64, count=n_frames)

    # a huge but finite noise_std overflows here; the check below names it.
    # The (frames, channels) arrays are built in place, so at most three
    # of them are alive at once.
    with np.errstate(over="ignore", invalid="ignore"):
        jitter = JITTER_MULT * noise_std * rng.normal(size=(n_frames, 2))
        hit = rng.random(size=(n_frames, 1)) < ARTIFACT_PROB
        jitter += (ARTIFACT_MULT * noise_std * hit
                   * rng.normal(size=(n_frames, 2)))
        features = _tuning(velocities + jitter, directions, gains, baselines)
        if noise_std > 0:
            # the clean signal is released before the noise is drawn
            scale = noise_std * _tuning(velocities, directions, gains,
                                        baselines).std(axis=0)
            noise = rng.normal(size=features.shape)
            noise *= scale
            features += noise
        features = features.astype(np.float32)
    if not np.isfinite(features).all():
        raise ValueError(f"noise_std={noise_std!r} is so large that the "
                         f"features overflow float32")
    return FrameSet(features, velocities, frame_ms, SYNTHETIC)
