import math

import numpy as np
import pytest

from snndecode.network import NetworkSpec, init_params
from snndecode.profiler import (
    ADDS_PER_MAC,
    MEM_PER_ADD,
    MEM_PER_MAC,
    ann_report,
    compare_report,
    count_spikes,
    make_report,
    mlp_mac_count,
    snn_cost,
)

REFERENCE_RATES = (0.26, 0.24, 0.09)


def test_published_cost_numbers():
    spec = NetworkSpec()
    rep = snn_cost(spec, REFERENCE_RATES)
    assert rep.mac_count == 25_346          # 96*256 + 770
    assert rep.add_count == 32_814          # .26*256^2 + .24*256^2 + .09*512
    assert rep.total_ops == 36_284          # mac + ceil(add/3)
    assert rep.mem_access == 199_826        # 4*mac + 3*add
    # K-rounded values match the published table
    assert round(rep.mac_count / 1000) == 25
    assert round(rep.add_count / 1000) == 33
    assert round(rep.total_ops / 1000) == 36
    assert abs(rep.mem_access - 199_000) / 199_000 < 0.01


def test_headline_ratios():
    spec = NetworkSpec()
    snn = snn_cost(spec, REFERENCE_RATES)
    dense = ann_report(529_000)
    ops_pct = 100.0 * snn.total_ops / dense.total_ops
    mem_pct = 100.0 * snn.mem_access / dense.mem_access
    assert abs(ops_pct - 6.8) < 0.3
    assert abs(mem_pct - 9.4) < 0.3


def test_zero_rates_only_input_and_membrane():
    spec = NetworkSpec()
    rep = snn_cost(spec, (0.0, 0.0, 0.0))
    assert rep.add_count == 0
    assert rep.mac_count == 96 * 256 + spec.neuron_count
    assert rep.total_ops == rep.mac_count


def test_saturated_rates_equal_dense_connections():
    spec = NetworkSpec()
    rep = snn_cost(spec, (1.0, 1.0, 1.0))
    assert rep.add_count == 256 * 256 + 256 * 256 + 256 * 2


def test_rate_out_of_range():
    spec = NetworkSpec()
    with pytest.raises(ValueError, match="0, 1"):
        snn_cost(spec, (0.2, 1.1, 0.0))
    with pytest.raises(ValueError):
        snn_cost(spec, (0.2, 0.2))          # wrong arity


def test_cost_monotone_in_rates():
    spec = NetworkSpec()
    prev = snn_cost(spec, (0.0, 0.0, 0.0))
    for hi in (0.1, 0.3, 0.7, 1.0):
        cur = snn_cost(spec, (hi, hi, hi))
        assert cur.total_ops >= prev.total_ops
        assert cur.mem_access >= prev.mem_access
        prev = cur


def test_report_identities():
    for mac, add in [(10, 0), (0, 10), (123, 457), (1, 1)]:
        rep = make_report(mac, add)
        assert rep.total_ops == mac + math.ceil(add / 3)
        assert rep.mem_access == 4 * mac + 3 * add


def test_mlp_mac_counts():
    assert mlp_mac_count([2, 3]) == 6
    assert mlp_mac_count([96, 256, 256, 256, 2]) == 156_160
    rep = ann_report(529_000)
    assert rep.mem_access == 2_116_000
    assert rep.add_count == 0


def test_cost_model_validation():
    """The published exchange rates, and no negative operation counts."""
    assert (ADDS_PER_MAC, MEM_PER_MAC, MEM_PER_ADD) == (3, 4, 3)
    with pytest.raises(ValueError):
        make_report(-1, 0)
    with pytest.raises(ValueError):
        make_report(0, -1)


def test_count_spikes_zero_weights_silent():
    spec = NetworkSpec(layer_widths=(4, 8, 8, 8, 2), window_len=3)
    params = init_params(spec, np.random.default_rng(0))
    for layer in params.layers:
        layer.weight[:] = 0.0
        layer.norm.beta[:] = 0.0
    frames = np.random.default_rng(1).normal(size=(30, 4)).astype(np.float32)
    stats = count_spikes(params, spec, frames)
    assert stats.layer_rates == (0.0, 0.0, 0.0)
    assert stats.spikes_per_frame == 0.0


def test_count_spikes_rates_consistent():
    spec = NetworkSpec(layer_widths=(4, 8, 8, 8, 2), window_len=3)
    params = init_params(spec, np.random.default_rng(2))
    # push gamma up so some spikes actually happen
    for layer in params.layers:
        layer.norm.gamma[:] = 3.0
    frames = np.random.default_rng(3).normal(size=(40, 4)).astype(np.float32)
    stats = count_spikes(params, spec, frames)
    assert all(0.0 <= r <= 1.0 for r in stats.layer_rates)
    widths = spec.layer_widths[1:-1]
    expect = sum(w * r for w, r in zip(widths, stats.layer_rates))
    assert abs(stats.spikes_per_frame - expect) < 1e-9
    assert stats.frames == 40
    for vec, w in zip(stats.per_neuron, widths):
        assert vec.shape == (w,)
        assert vec.dtype == np.float64


def test_table_renders_deterministically():
    spec = NetworkSpec()
    snn = snn_cost(spec, REFERENCE_RATES)
    dense = ann_report(529_000)
    a = compare_report([("ann", dense), ("snn", snn)]).to_text()
    b = compare_report([("ann", dense), ("snn", snn)]).to_text()
    assert a == b
    assert "36,284" in a
    assert "529K" in a


def test_single_report_table():
    rep = snn_cost(NetworkSpec(), REFERENCE_RATES)
    text = compare_report([("snn", rep)]).to_text()
    assert "MAC" in text and "Mem access" in text
    assert "vs" not in text                 # no ratio line for one entry


def test_structured_report_matches_text_numbers():
    spec = NetworkSpec()
    snn = snn_cost(spec, REFERENCE_RATES)
    dense = ann_report(529_000)
    d = compare_report([("ann", dense), ("snn", snn)]).to_dict()
    assert d["models"]["snn"]["total_ops"] == 36_284
    assert d["models"]["ann"]["mem_access"] == 2_116_000
    assert abs(d["models"]["snn"]["ops_ratio_vs_reference"]
               - 36_284 / 529_000) < 1e-12
