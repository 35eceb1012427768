"""Train a small decoder end to end and save it.

A compressed version of the full workflow: synthetic session ->
chronological split -> standardize -> overlapping training windows ->
a few epochs of surrogate-gradient descent -> checkpoint on disk.
Takes roughly fifteen seconds.  The full-size run (12k frames, 25
epochs) lives in tests/test_acceptance.py.
"""

import os
import tempfile

import numpy as np

from snndecode.checkpoint import load_snn, save_snn
from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.train import (
    TrainConfig,
    decode_sequence,
    decoder_spec,
    fit,
    make_windows,
)

frames = synth_generate(n_frames=2500, seed=8)
train, val = split_train_val(frames)
std = Standardizer.fit(train)
ftr, vtr = std.apply(train)
fva, vva = std.apply(val)

config = TrainConfig(epochs=5, seed=0)
print("hyperparameters:", ", ".join(
    f"{k}={v}" for k, v in config.as_dict().items()
    if k in ("learning_rate", "weight_decay", "batch_size",
             "window_len", "warmup_discard", "dropout_p")))

dataset = make_windows(ftr, vtr, config.window_len)
print(f"{len(dataset)} overlapping {config.window_len}-frame windows "
      f"from {len(ftr)} training frames\n")

spec = decoder_spec(config, ftr.shape[1], vtr.shape[1])
params, log = fit(dataset, config, spec=spec,
                  val_features=fva, val_velocities=vva)
for record in log.records:
    print(record.line())

# The checkpoint bundles weights, topology and the standardizer, so a
# loaded model can decode raw (unstandardized) recordings directly.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "decoder.ckpt")
    save_snn(path, params, spec, std)
    print(f"\nsaved {os.path.getsize(path):,} byte checkpoint")

    params2, spec2, std2, _ = load_snn(path)
    preds = decode_sequence(params2, spec2, fva)
    ref = decode_sequence(params, spec, fva)
    print("reloaded model reproduces the decode bitwise:",
          np.array_equal(preds, ref))
    print("standardizer restored:",
          np.array_equal(std2.feat_mean, std.feat_mean))
