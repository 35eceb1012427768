"""Per-inference operation and memory-traffic model for the decoder.

The dense reference network multiplies real numbers everywhere, so its
cost is pure multiply-accumulates.  The spiking decoder only needs real
MACs on the 96-channel input layer and for the per-neuron membrane
update; every hidden-to-hidden contribution is a weight *addition* that
happens only when the presynaptic neuron actually fired.  Costs are
folded to a single comparable unit by counting a fixed number of
additions as one MAC-equivalent, and memory traffic per operation
class (loads of the two operands plus accumulator traffic) is tallied
alongside.  :class:`OpReport` is built from the MAC and add counts
alone and is the one owner of these identities: its ``total_ops`` and
``mem_access`` are derived from the two counts.

Normalization is folded into the weights and a per-neuron bias, as the
inference pass runs it; the bias adds, threshold comparisons and resets
are not tallied (the model tracks only the MAC/ADD classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batchnorm import EVAL
from .network import NetworkParams, NetworkSpec, _is_int, forward_unfolded


# Exchange rates between operation classes and memory accesses.
ADDS_PER_MAC = 3            # additions counted as one MAC-equivalent
MEM_PER_MAC = 4             # operand + weight + accumulator read, one store
MEM_PER_ADD = 3             # weight + accumulator read, one store

# MAC count of the dense reference decoder every cost is compared against.
DENSE_ANN_MACS = 529_000


@dataclass(frozen=True)
class OpReport:
    """Operation and memory tallies for one inference (one frame).

    Built from the two raw counts, each a non-negative integer of Python
    or numpy (not a bool, a float or NaN), or ``ValueError`` names it;
    the cost-model identities derive the rest.
    """

    mac_count: int
    add_count: int

    def __post_init__(self):
        for name in ("mac_count", "add_count"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 0):
                raise ValueError(f"{name}={value!r} is not a non-negative "
                                 f"integer")

    @property
    def total_ops(self) -> int:
        """MAC-equivalents: every MAC, plus the adds at the exchange rate."""
        return self.mac_count + math.ceil(self.add_count / ADDS_PER_MAC)

    @property
    def mem_access(self) -> int:
        return MEM_PER_MAC * self.mac_count + MEM_PER_ADD * self.add_count


@dataclass
class SpikeStats:
    """Firing statistics of a model over an evaluation stream."""

    layer_rates: tuple          # mean rate per hidden layer
    per_neuron: list            # one rate vector per hidden layer
    spikes_per_frame: float
    frames: int


def count_spikes(params: NetworkParams, spec: NetworkSpec,
                 features: np.ndarray) -> SpikeStats:
    """Exact firing frequencies of an inference-mode run over ``features``,
    which must hold at least one frame, from the ``(1, T, width)`` spike
    array of each hidden layer that the run returns."""
    features = np.asarray(features)
    if features.shape[:1] == (0,):
        raise ValueError("counting spikes needs at least one frame")
    _, spikes = forward_unfolded(params, spec, features[None], mode=EVAL)
    per_neuron = [s[0].mean(axis=0, dtype=np.float64) for s in spikes]
    layer_rates = tuple(float(r.mean()) for r in per_neuron)
    total = sum(float(s.sum()) for s in spikes)
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
    fractional counts are rounded to the nearest integer before
    :class:`OpReport` applies its identities.
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
    return OpReport(int(mac), int(round(add)))


def ann_report(mac_count: int) -> OpReport:
    """Report for a dense network: MACs only, no event-driven additions.
    ``mac_count`` must be an integer, as :class:`OpReport` says."""
    return OpReport(mac_count, 0)


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
    """Bundle named op reports; the first entry is the ratio reference,
    so it must count some operations and some memory accesses."""
    entries = list(entries)
    if not entries:
        raise ValueError("need at least one report")
    name, ref = entries[0]
    if ref.total_ops == 0 or ref.mem_access == 0:
        raise ValueError(f"reference {name!r} counts no operations or no "
                         f"memory accesses to compare against")
    return ComparisonReport(entries=entries)
