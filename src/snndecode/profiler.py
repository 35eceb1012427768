"""Per-inference operation and memory-traffic model for the decoder.

The dense reference network multiplies real numbers everywhere, so its
cost is pure multiply-accumulates.  The spiking decoder only needs real
MACs on the 96-channel input layer and for the per-neuron membrane
update; every hidden-to-hidden contribution is a weight *addition* that
happens only when the presynaptic neuron actually fired.  Costs are
folded to a single comparable unit by counting a fixed number of
additions as one MAC-equivalent, and memory traffic per operation
class (loads of the two operands plus accumulator traffic) is tallied
alongside.

Normalization is assumed folded into the weights for deployment, so it
adds nothing; threshold comparisons and resets are not tallied (the
model tracks only the MAC/ADD classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batchnorm import EVAL
from .network import NetworkParams, NetworkSpec, forward_unfolded


# Exchange rates between operation classes and memory accesses.
ADDS_PER_MAC = 3            # additions counted as one MAC-equivalent
MEM_PER_MAC = 4             # operand + weight + accumulator read, one store
MEM_PER_ADD = 3             # weight + accumulator read, one store


@dataclass
class OpReport:
    """Operation and memory tallies for one inference (one frame)."""

    mac_count: int
    add_count: int
    total_ops: int              # MAC-equivalents
    mem_access: int


def make_report(mac_count: int, add_count: int) -> OpReport:
    """Build a report from raw counts, applying the cost-model identities."""
    mac_count = int(mac_count)
    add_count = int(add_count)
    if mac_count < 0 or add_count < 0:
        raise ValueError("operation counts must be nonnegative")
    return OpReport(
        mac_count=mac_count,
        add_count=add_count,
        total_ops=mac_count + math.ceil(add_count / ADDS_PER_MAC),
        mem_access=MEM_PER_MAC * mac_count + MEM_PER_ADD * add_count,
    )


@dataclass
class SpikeStats:
    """Firing statistics of a model over an evaluation stream."""

    layer_rates: tuple          # mean rate per hidden layer
    per_neuron: list            # one rate vector per hidden layer
    spikes_per_frame: float
    frames: int


def count_spikes(params: NetworkParams, spec: NetworkSpec,
                 features: np.ndarray) -> SpikeStats:
    """Exact firing frequencies of an inference-mode run over ``features``."""
    features = np.asarray(features)
    _, cache = forward_unfolded(params, spec, features[None], mode=EVAL)
    per_neuron = [s[0].mean(axis=0, dtype=np.float64)
                  for s in cache.spikes[:-1]]
    layer_rates = tuple(float(r.mean()) for r in per_neuron)
    total = sum(float(s.sum()) for s in cache.spikes[:-1])
    return SpikeStats(
        layer_rates=layer_rates,
        per_neuron=per_neuron,
        spikes_per_frame=total / len(features),
        frames=len(features),
    )


def snn_cost(spec: NetworkSpec, spike_rates) -> OpReport:
    """Expected per-frame cost of the spiking decoder at given rates.

    Real-valued MACs: the full input layer (its inputs are analog) plus
    one membrane update per neuron, readout included.  Additions: each
    hidden layer's outgoing weights are added only on spikes, so the
    expected count scales with that layer's firing rate.  Expected
    fractional counts are rounded to the nearest integer before the
    report identities apply.
    """
    rates = [float(r) for r in np.atleast_1d(spike_rates)]
    if len(rates) != spec.n_hidden:
        raise ValueError(
            f"need one rate per hidden layer ({spec.n_hidden}), "
            f"got {len(rates)}"
        )
    if any(not 0.0 <= r <= 1.0 for r in rates):
        raise ValueError(f"spike rates must lie in [0, 1]: {rates}")
    widths = spec.layer_widths
    mac = widths[0] * widths[1] + spec.neuron_count
    add = sum(rates[l] * widths[l + 1] * widths[l + 2]
              for l in range(spec.n_hidden))
    return make_report(mac, int(round(add)))


def mlp_mac_count(layer_widths) -> int:
    """MACs of one dense fully connected pass over the given widths."""
    widths = [int(w) for w in layer_widths]
    if not widths:
        raise ValueError("need at least one layer width")
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def ann_report(mac_count: int) -> OpReport:
    """Report for a dense network: MACs only, no event-driven additions."""
    return make_report(mac_count, 0)


def _fmt_k(value: int) -> str:
    return f"{round(value / 1000):d}K" if value >= 1000 else str(value)


@dataclass
class ComparisonReport:
    """Cost table over named models, with ratios against the first entry."""

    entries: list               # (name, OpReport) pairs

    def to_dict(self) -> dict:
        ref = self.entries[0][1]
        out = {"models": {}, "reference": self.entries[0][0]}
        for name, rep in self.entries:
            out["models"][name] = {
                "mac_count": rep.mac_count,
                "add_count": rep.add_count,
                "total_ops": rep.total_ops,
                "mem_access": rep.mem_access,
            }
            if rep is not ref:
                out["models"][name]["ops_ratio_vs_reference"] = (
                    rep.total_ops / ref.total_ops)
                out["models"][name]["mem_ratio_vs_reference"] = (
                    rep.mem_access / ref.mem_access)
        return out

    def to_text(self) -> str:
        names = [name for name, _ in self.entries]
        rows = [
            ("MAC", "mac_count"),
            ("ADD", "add_count"),
            ("Total ops", "total_ops"),
            ("Mem access", "mem_access"),
        ]
        width = max(12, *(len(n) + 2 for n in names))
        head = "".join(f"{n:>{width * 2}}" for n in names)
        lines = [f"{'':<12}{head}",
                 f"{'':<12}" + "".join(
                     f"{'rounded':>{width}}{'exact':>{width}}"
                     for _ in names)]
        for label, attr in rows:
            cells = []
            for _, rep in self.entries:
                v = getattr(rep, attr)
                cells.append(f"{_fmt_k(v):>{width}}{v:>{width},}")
            lines.append(f"{label:<12}" + "".join(cells))
        if len(self.entries) > 1:
            ref_name, ref = self.entries[0]
            for name, rep in self.entries[1:]:
                ops = 100.0 * rep.total_ops / ref.total_ops
                mem = 100.0 * rep.mem_access / ref.mem_access
                lines.append(
                    f"{name} vs {ref_name}: "
                    f"{ops:.1f}% of operations, {mem:.1f}% of memory accesses"
                )
        return "\n".join(lines) + "\n"


def compare_report(entries) -> ComparisonReport:
    """Bundle named op reports; the first entry is the ratio reference."""
    entries = list(entries)
    if not entries:
        raise ValueError("need at least one report")
    return ComparisonReport(entries=entries)
