"""Poke a single leaky integrate-and-fire neuron and watch it behave.

Shows the membrane trace under a constant drive, what the two reset
modes do after a spike, and where the surrogate derivative opens its
unit window around the threshold.  The membrane potential is the
neuron's whole state: it spiked whenever the potential is at or above the
threshold, and the next ``lif_step`` reads its reset from there.
"""

import numpy as np

from snndecode import lif_step, surrogate_grad

THRESHOLD = 0.4


def trace(reset_mode, drive, steps=24):
    tau = np.array([0.5])
    u = np.zeros(1)
    us, ss = [], []
    for _ in range(steps):
        u = lif_step(u, np.full(1, drive), tau, THRESHOLD, reset_mode)
        us.append(float(u[0]))
        ss.append(int(u[0] >= THRESHOLD))
    return us, ss


def sparkline(values, lo, hi):
    blocks = " .:-=+*#%@"
    span = hi - lo or 1.0
    return "".join(blocks[int((min(max(v, lo), hi) - lo) / span * 9)]
                   for v in values)


print("constant drive 0.25, threshold", THRESHOLD)
for mode in ("subtract", "zero"):
    us, ss = trace(mode, drive=0.25)
    print(f"  {mode:8s}      u  {sparkline(us, 0.0, 0.6)}")
    print(f"            spikes  {''.join('|' if s else '.' for s in ss)}")

# Reset-by-subtract keeps the above-threshold residue: compare the
# membrane level right after each spike (higher for subtract).

print()
print("sub-threshold drive 0.1 never fires:")
us, ss = trace("subtract", drive=0.1)
print("  u settles toward drive/(1-tau) =", round(0.1 / 0.5, 3),
      "->", [round(u, 3) for u in us[-3:]], " spikes:", sum(ss))

# The spike itself has no derivative; training substitutes a box that is
# 1 within half a unit of the threshold and 0 outside.
print()
print("surrogate window around the threshold:")
for u in (-0.2, 0.0, 0.4, 0.89, 0.91):
    g = surrogate_grad(np.array([u]), THRESHOLD)
    print(f"  u={u:+.2f}  d(spike)/du = {float(g[0]):.0f}")
