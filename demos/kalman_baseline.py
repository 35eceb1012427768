"""The classical reference decoder: a steady-state-free Kalman filter.

Fits linear dynamics (A) and a linear observation model (C) by least
squares on the training split, then runs the usual predict/update
recursion over the validation split.  On noiseless data the generative
model is linearly invertible and the filter is essentially perfect;
with the default noise — which includes shared glitch frames no fixed
linear gain can ignore — it lands around r ~ 0.7-0.8.  Beating it is
the bar the spiking decoder has to clear (tests/test_acceptance.py).
"""

import numpy as np

from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.kalman import kf_fit, kf_init, kf_run, kf_step
from snndecode.metrics import evaluate


def fit_and_score(noise_std):
    frames = synth_generate(n_frames=6000, seed=7, noise_std=noise_std)
    train, val = split_train_val(frames)
    std = Standardizer.fit(train)
    ftr, vtr = std.apply(train)
    fva, vva = std.apply(val)
    model = kf_fit(ftr, vtr)
    return model, kf_run(model, fva), fva, vva


model, preds, fva, vva = fit_and_score(noise_std=0.3)
print("default noise:")
for line in evaluate(preds, vva).lines():
    print("  " + line)

_, preds0, _, vva0 = fit_and_score(noise_std=0.0)
print("noiseless calibration:")
for line in evaluate(preds0, vva0).lines():
    print("  " + line)

# The fitted dynamics are gentle smoothing: A's velocity block is close
# to identity, which is what a low-pass random walk should look like.
print("\nfitted A (velocity rows):")
print(np.round(model.A[:2], 3))

# kf_run is just this loop -- the filter is streamable, like the SNN:
state = kf_init(model)
manual = np.empty_like(preds)
for t in range(len(fva)):
    state, manual[t] = kf_step(model, state, fva[t])
print("\nstep-by-step run matches kf_run bit for bit:",
      np.array_equal(manual, preds))
