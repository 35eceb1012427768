"""Frame-level dataset handling.

A dataset is a chronological sequence of frames, each pairing a vector
of band-power features with two finger velocities.  Two on-disk formats
round-trip losslessly: a human-readable CSV and a compact binary
container.  Helpers cover the chronological train/validation split, the
train-statistics standardizer, and a synthetic cosine-tuning generator
that stands in for recordings that cannot be redistributed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_BINARY_MAGIC = b"SNNF"
_BINARY_VERSION = 1

SYNTHETIC = "synthetic"
EXTERNAL = "external"


@dataclass
class DatasetMeta:
    frame_ms: float
    channel_count: int
    sample_count: int
    provenance: str = EXTERNAL

    def __post_init__(self):
        if not 0.0 < self.frame_ms < np.inf:
            raise ValueError(f"frame_ms={self.frame_ms} is not a positive "
                             f"finite duration")

    @property
    def duration_s(self) -> float:
        return self.sample_count * self.frame_ms / 1000.0


@dataclass
class FrameSet:
    """A feature/velocity sequence plus its metadata."""

    features: np.ndarray        # (frames, channels) float32
    velocities: np.ndarray      # (frames, 2) float32
    meta: DatasetMeta

    def __len__(self) -> int:
        return len(self.features)


def _make_frameset(features, velocities, frame_ms, provenance):
    features = np.ascontiguousarray(features, dtype=np.float32)
    velocities = np.ascontiguousarray(velocities, dtype=np.float32)
    meta = DatasetMeta(frame_ms=frame_ms, channel_count=features.shape[1],
                       sample_count=len(features), provenance=provenance)
    return FrameSet(features=features, velocities=velocities, meta=meta)


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
        meta = frames.meta
        rows = np.hstack([frames.features, frames.velocities])
        with open(path, "w") as fh:
            fh.write(f"# frames v{_BINARY_VERSION} "
                     f"frame_ms={_fmt(np.float64(meta.frame_ms))} "
                     f"provenance={meta.provenance}\n")
            fh.write(_csv_header(meta.channel_count) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    elif fmt == "binary":
        meta_doc = {
            "frame_ms": frames.meta.frame_ms,
            "channel_count": frames.meta.channel_count,
            "sample_count": frames.meta.sample_count,
            "provenance": frames.meta.provenance,
        }
        blob = json.dumps(meta_doc, sort_keys=True).encode()
        rows = np.hstack([frames.features, frames.velocities]).astype("<f4")
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<II", _BINARY_VERSION, len(blob)))
            fh.write(blob)
            fh.write(rows.tobytes(order="C"))
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
    return np.array(rows, dtype=np.float32), frame_ms, provenance


def _parse_binary(path, raw: bytes):
    if raw[:4] != _BINARY_MAGIC:
        raise DataError(f"{path}: not a frame container (bad magic)")
    if len(raw) < 12:
        raise DataError(f"{path}: truncated frame container (fixed header)")
    version, blob_len = struct.unpack_from("<II", raw, 4)
    if version != _BINARY_VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    try:
        meta_doc = json.loads(raw[12:12 + blob_len])
        channels = int(meta_doc["channel_count"])
        count = int(meta_doc["sample_count"])
        frame_ms = float(meta_doc["frame_ms"])
        provenance = str(meta_doc["provenance"])
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise DataError(f"{path}: malformed frame header: {e!r}") from e
    if channels < 1 or count < 0:
        raise DataError(f"{path}: bad frame header counts "
                        f"({channels} channels, {count} samples)")
    body = raw[12 + blob_len:]
    expect = count * (channels + 2) * 4
    if len(body) != expect:
        raise DataError(
            f"{path}: truncated body, expected {expect} bytes, "
            f"got {len(body)}"
        )
    table = np.frombuffer(body, dtype="<f4").reshape(count, channels + 2)
    return table.copy(), frame_ms, provenance


def load_frames(path) -> FrameSet:
    """Load a dataset, sniffing its format from the first bytes.

    Malformed content raises :class:`DataError` naming the file and,
    in a CSV file, the offending line.  Non-finite values and a frame
    duration that is not positive and finite are rejected.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    parse = _parse_binary if raw[:4] == _BINARY_MAGIC else _parse_csv
    table, frame_ms, provenance = parse(path, raw)
    if not np.isfinite(table).all():
        raise DataError(f"{path}: dataset contains non-finite values")
    try:
        return _make_frameset(table[:, :-2], table[:, -2:], frame_ms,
                              provenance)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


def split_train_val(frames: FrameSet, ratio: float = 0.8):
    """Chronological prefix/suffix split; no shuffling.

    Returns ``(train, val)`` with ``floor(ratio * n)`` training frames.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie strictly inside (0, 1)")
    n = len(frames)
    cut = int(ratio * n)
    if cut < 1 or cut >= n:
        raise DataError(
            f"split of {n} frames at ratio {ratio} leaves an empty side"
        )
    meta = frames.meta

    def piece(sl):
        return _make_frameset(frames.features[sl], frames.velocities[sl],
                              meta.frame_ms, meta.provenance)

    return piece(slice(None, cut)), piece(slice(cut, None))


@dataclass
class Standardizer:
    """Per-channel affine maps fit on the training split only.

    Channels whose training standard deviation is zero keep scale 1 and
    are listed in ``degenerate_channels``.
    """

    feat_mean: np.ndarray
    feat_std: np.ndarray
    vel_mean: np.ndarray
    vel_std: np.ndarray
    degenerate_channels: tuple = ()

    @classmethod
    def fit(cls, frames: FrameSet) -> "Standardizer":
        feat = frames.features.astype(np.float64)
        vel = frames.velocities.astype(np.float64)
        feat_mean = feat.mean(axis=0)
        feat_std = feat.std(axis=0, ddof=1)
        vel_mean = vel.mean(axis=0)
        vel_std = vel.std(axis=0, ddof=1)
        degenerate = tuple(int(i) for i in np.flatnonzero(feat_std == 0))
        feat_std = np.where(feat_std == 0, 1.0, feat_std)
        vel_std = np.where(vel_std == 0, 1.0, vel_std)
        return cls(
            feat_mean=feat_mean.astype(np.float32),
            feat_std=feat_std.astype(np.float32),
            vel_mean=vel_mean.astype(np.float32),
            vel_std=vel_std.astype(np.float32),
            degenerate_channels=degenerate,
        )

    def apply_features(self, features) -> np.ndarray:
        return ((np.asarray(features) - self.feat_mean)
                / self.feat_std).astype(np.float32)

    def apply_velocities(self, velocities) -> np.ndarray:
        return ((np.asarray(velocities) - self.vel_mean)
                / self.vel_std).astype(np.float32)

    def apply(self, frames: FrameSet):
        """Standardize a frame set; returns ``(features, velocities)``."""
        return (self.apply_features(frames.features),
                self.apply_velocities(frames.velocities))

    def invert_velocity(self, standardized) -> np.ndarray:
        """Map standardized velocities back to original units."""
        return np.asarray(standardized) * self.vel_std + self.vel_mean


def synth_generate(n_frames: int, channels: int = 96, seed: int = 0,
                   noise_std: float = 0.3, smoothness: float = 10.0,
                   frame_ms: float = 50.0, jitter_mult: float = 2.0,
                   artifact_prob: float = 0.25,
                   artifact_mult: float = 15.0) -> FrameSet:
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
      ``w(t) = v(t) + jitter_mult * noise_std * eta(t)`` — purely
      private noise averages away across 96 channels and would leave
      an almost perfectly linearly decodable dataset;
    * sparse shared artifacts: with probability ``artifact_prob`` a
      frame's encoded velocity gets an extra Gaussian kick of scale
      ``artifact_mult * noise_std``, mimicking the heavy-tailed
      glitches of real recordings.  Occasional corrupted frames are
      what separate decoder families — a fixed-gain linear filter can
      only average over them, while a nonlinear temporal decoder can
      learn to gate them out.

    ``noise_std=0`` disables all three sources.  Everything is a
    deterministic function of ``seed`` and the config.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if smoothness <= 1.0:
        raise ValueError("smoothness must exceed 1 frame")
    rng = np.random.default_rng(seed)

    directions = rng.normal(size=(channels, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    gains = rng.uniform(0.5, 2.0, size=channels)
    baselines = rng.uniform(-1.0, 1.0, size=channels)

    rho = 1.0 - 1.0 / smoothness
    drive = np.sqrt(1.0 - rho * rho)        # keeps the latent near unit power
    innovations = rng.normal(size=(n_frames, 2))
    velocities = np.empty((n_frames, 2))
    v = innovations[0]
    velocities[0] = v
    for t in range(1, n_frames):
        v = rho * v + drive * innovations[t]
        velocities[t] = v

    jitter = jitter_mult * noise_std * rng.normal(size=(n_frames, 2))
    hit = rng.random(size=(n_frames, 1)) < artifact_prob
    jitter += artifact_mult * noise_std * hit * rng.normal(size=(n_frames, 2))
    encoded = (velocities + jitter) @ directions.T      # (frames, channels)
    features = np.logaddexp(0.0, baselines + gains * encoded)
    if noise_std > 0:
        clean = np.logaddexp(
            0.0, baselines + gains * (velocities @ directions.T))
        scale = noise_std * clean.std(axis=0)
        features = features + rng.normal(size=features.shape) * scale
    return _make_frameset(features, velocities, frame_ms, SYNTHETIC)
