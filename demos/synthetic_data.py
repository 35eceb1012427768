"""Generate a synthetic recording session and look inside it.

The generator draws a smooth two-dimensional velocity trajectory and
encodes it into 96 channels through random cosine tuning (a softplus of
each channel's preferred-direction projection), then layers on three
kinds of noise: private per-channel noise, a shared velocity jitter,
and sparse shared glitch frames.  This script prints what that looks
like, round-trips the dataset through both file formats, and shows the
train/val split plus standardization.
"""

import os
import tempfile

import numpy as np

from snndecode.data import (
    Standardizer,
    load_frames,
    save_frames,
    split_train_val,
    synth_generate,
)

# A FrameSet is its two arrays plus the frame length and provenance; the
# frame and channel counts are the arrays' shapes.
frames = synth_generate(n_frames=3000, seed=42)
print(f"{len(frames)} frames x {frames.channel_count} channels, "
      f"{frames.frame_ms:.0f} ms each = {frames.duration_s:.0f} s of data "
      f"({frames.provenance})")
print("velocity range:",
      np.round(frames.velocities.min(axis=0), 2), "to",
      np.round(frames.velocities.max(axis=0), 2))

# Cosine tuning in action: correlate each channel with the two velocity
# components.  Every channel prefers some direction in the v1/v2 plane.
f = frames.features - frames.features.mean(axis=0)
v = frames.velocities - frames.velocities.mean(axis=0)
corr = (f.T @ v) / (np.linalg.norm(f, axis=0)[:, None]
                    * np.linalg.norm(v, axis=0))
print("\nfirst channels' correlation with (v1, v2):")
for ch in range(4):
    angle = np.degrees(np.arctan2(corr[ch, 1], corr[ch, 0]))
    print(f"  ch{ch}: ({corr[ch, 0]:+.2f}, {corr[ch, 1]:+.2f})"
          f"  preferred direction ~ {angle:+.0f} deg")

# Same seed, same bytes -- in both file formats.
with tempfile.TemporaryDirectory() as tmp:
    for fmt, name in (("binary", "session.frames"), ("csv", "session.csv")):
        path = os.path.join(tmp, name)
        save_frames(frames, path, fmt=fmt)
        back = load_frames(path)
        same = np.array_equal(back.features, frames.features)
        size = os.path.getsize(path)
        print(f"\n{fmt}: {size:,} bytes, lossless round-trip: {same}")

train, val = split_train_val(frames, ratio=0.8)
print(f"\nchronological split: {len(train)} train / {len(val)} val frames")

std = Standardizer.fit(train)
ftr, vtr = std.apply(train)
fva, _ = std.apply(val)
print("train features after standardizing: mean",
      np.round(ftr.mean(), 4), "std", np.round(ftr.std(), 4))
print("val features with the *train* statistics: mean",
      np.round(fva.mean(), 3), "(small drift is expected and honest)")
