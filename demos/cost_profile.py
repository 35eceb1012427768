"""Where the efficiency claim comes from: count real operations.

A spiking layer only pays for a synapse when its input neuron actually
fired, and the event is a pure accumulate (no multiply).  The profiler
measures trained spike rates on held-out data, prices the network in
MAC-equivalents (3 adds = 1 MAC) and memory accesses (3 loads + 1 store
per MAC, 2 loads + 1 store per add), and compares against a dense
reference network of 529K MACs.
"""

import numpy as np

from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.profiler import (
    DENSE_ANN_MACS,
    ann_report,
    compare_report,
    count_spikes,
    snn_cost,
)
from snndecode.train import TrainConfig, decoder_spec, fit, make_windows

frames = synth_generate(n_frames=2000, seed=12)
train, val = split_train_val(frames)
std = Standardizer.fit(train)
ftr, vtr = std.apply(train)
fva, _ = std.apply(val)
config = TrainConfig(epochs=4, seed=0)
spec = decoder_spec(config, ftr.shape[1], vtr.shape[1])
params, _ = fit(make_windows(ftr, vtr, config.window_len), config, spec=spec)

stats = count_spikes(params, spec, fva)
print("measured hidden spike rates:",
      " ".join(f"{r:.3f}" for r in stats.layer_rates),
      f"({stats.spikes_per_frame:.0f} spikes/frame of "
      f"{sum(spec.layer_widths[1:4])} hidden neurons)")

table = compare_report([
    ("dense-ann", ann_report(DENSE_ANN_MACS)),
    ("snn", snn_cost(spec, stats.layer_rates)),
])
print()
print(table.to_text())

# The same arithmetic at the reference operating point (26/24/9% rates)
# gives the headline numbers: 36K ops and 199K memory accesses against
# the dense network's 529K / 2116K.
ref = snn_cost(spec, (0.26, 0.24, 0.09))
print(f"reference operating point: total_ops={ref.total_ops:,} "
      f"mem={ref.mem_access:,}")
