"""Decode frame by frame, the way a closed-loop system would run.

Inference needs no windows: the network keeps its membrane potentials
and previous spikes between frames, so each new feature vector costs
one forward pass and the output integrator's voltage *is* the velocity
estimate.  Batch evaluation over a whole recording is just a different
traversal of the same arithmetic — this script checks they agree to the
last bit, and exits non-zero if any row differs, then times the per-frame
cost.
"""

import sys
import time

import numpy as np

from snndecode import forward_streaming, reset_state
from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.train import (
    TrainConfig,
    decode_sequence,
    decoder_spec,
    fit,
    make_windows,
)

# quick model (~10 s); any checkpoint would do
frames = synth_generate(n_frames=2000, seed=3)
train, val = split_train_val(frames)
std = Standardizer.fit(train)
ftr, vtr = std.apply(train)
fva, vva = std.apply(val)
config = TrainConfig(epochs=4, seed=0)
spec = decoder_spec(config, ftr.shape[1], vtr.shape[1])
params, _ = fit(make_windows(ftr, vtr, config.window_len), config, spec=spec)

n = len(fva)
state = reset_state(spec, dtype=params.dtype)
streamed = np.empty((n, 2), dtype=np.float32)
tic = time.perf_counter()
for t in range(n):
    streamed[t], state = forward_streaming(params, spec, fva[t], state)
per_frame_us = (time.perf_counter() - tic) / n * 1e6

# whole-recording evaluation: the recording as one very long window
batch = decode_sequence(params, spec, fva)

# bit-level comparison: a 1-ulp drift, a NaN or a signed zero counts
differs = (streamed.view(np.uint8) != batch.view(np.uint8)).any(axis=1)
if differs.any():
    t = int(np.argmax(differs))
    sys.exit(f"stream differs from batch at frame {t}: "
             f"{streamed[t].tolist()} vs {batch[t].tolist()}")
print(f"streamed {n} frames, every row bit-identical to the batch decode")
print(f"per-frame cost: {per_frame_us:.0f} us "
      f"(frame budget at 50 ms/frame: 50,000 us)")

vx = std.invert_velocity(streamed)
vt = std.invert_velocity(vva)
print("\nlast five frames, true vs decoded v1:")
for t in range(n - 5, n):
    print(f"  t={t}: {vt[t, 0]:+.3f}  vs  {vx[t, 0]:+.3f}")
