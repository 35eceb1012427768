"""Smoke test of ``bench_pairs.py`` at tiny sizes, with this checkout on
both sides of each pair.  Outside the unit suites; run from the
repository root::

    python3 -m pytest -q tools/test_bench_pairs.py
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import summarize   # pytest puts this directory on the path
from code_lines import code_lines, package_lines

ROOT = Path(__file__).resolve().parent.parent


def test_pairs_file_summarizes_every_metric(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", ".", ".", "--number", "0",
         "--pairs", "offline=2", "--seconds", "0.2", "--size", "tiny",
         "--traced", "offline", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    offline = record["workloads"]["offline"]
    assert set(offline["metrics"]) == {m["name"]
                                       for m in declared["end_to_end"]}
    for row in offline["metrics"].values():
        assert row["pairs"] == 2 and 0 <= row["change_won"] <= 2
        assert type(row["gain"]) is bool
        assert type(row["within_bound"]) is bool
        for side in ("parent", "change"):
            s = row[side]
            assert s["n"] == 2 and s["q1"] <= s["median"] <= s["q3"]
    assert [r["first"] for r in offline["runs"]] == ["parent", "change"]
    # pair i runs seed 100 * number + i
    assert record["settings"]["first_seed"] == 0
    assert [r["seed"] for r in offline["runs"]] == [0, 1]
    for name, row in offline["metrics"].items():
        values = [r["change"]["metrics"][name] for r in offline["runs"]]
        assert row["change"]["median"] == statistics.median(values)
    # one tree on both sides: the same arithmetic, the same fingerprints
    assert offline["fingerprints_equal"]
    assert record["trees"]["parent"] == record["trees"]["change"]
    # each tree's code lines, per module of the library and in total
    lines = record["trees"]["change"]["code_lines"]
    assert lines["modules"] == package_lines(ROOT / "src" / "snndecode")
    assert "cli.py" in lines["modules"]
    assert lines["total"] == sum(lines["modules"].values())
    assert "openblas_corename" in record["environment"]
    # the unscaled figures, read from each run's results file
    for run in offline["runs"]:
        for side in ("parent", "change"):
            got = run[side]
            assert {"decode_frames_per_s", "kf_frames_per_s",
                    "stream_frame_us_p50"} <= set(got["unscaled"])
            assert got["unscaled"]["stream_frame_us_p50"] > 0
            assert {"blas", "small"} <= set(got["host_slowdown"])
    for name in ("decode_frames_per_s", "stream_frame_us_p50"):
        row = offline["metrics"][name]
        for side in ("parent", "change"):
            values = [r[side]["unscaled"][name] for r in offline["runs"]]
            assert row[side]["median_unscaled"] == statistics.median(values)
    assert "median_unscaled" not in offline["metrics"]["decode_r_mean"][
        "change"]
    # one traced run per side, on the first pair's seed
    assert record["settings"]["traced"] == ["offline"]
    for side in ("parent", "change"):
        traced = offline["traced"][side]
        assert traced["seed"] == 0
        assert traced["per_layer"]["neuron.lif_step_calls"]["value"] > 0


def test_code_lines_count_code_only():
    """Docstrings, comments and blank lines are not code lines; a string
    that is not a docstring is."""
    source = "\n".join([
        '"""Module docstring,',
        'two lines."""',
        "",
        "# a comment",
        "X = 1   # a trailing comment keeps the line",
        "",
        "def f():",
        '    """One line."""',
        '    return """not a docstring"""',
    ])
    assert code_lines(source) == 3


def _runs(parent, change, name="m", unscaled=None):
    """Synthetic pairs: one ``{"parent": run, "change": run}`` per value,
    with the ``(parent, change)`` lists ``unscaled`` as unscaled figures
    when they are given."""
    runs = [{side: {"result": {"metrics": {name: {"value": v}}}}
             for side, v in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]
    for side, values in zip(("parent", "change"), unscaled or ()):
        for run, v in zip(runs, values):
            run[side]["unscaled"] = {name: v}
    return runs


def _row(parent, change, better="lower", bound=0.2, unscaled=None):
    metric = {"name": "m", "unit": "us", "better": better, "bound": bound}
    return summarize(_runs(parent, change, unscaled=unscaled), [metric])["m"]


def test_summarize_verdicts_on_synthetic_runs():
    parent = [60.0, 61.0, 62.0, 63.0, 64.0, 60.5, 61.5, 62.5, 63.5, 64.5]
    # every pair won, by far more than the parent's IQR of 2.25
    row = _row(parent, [p - 8.0 for p in parent])
    assert row["change_won"] == 10 and row["gain"] and row["within_bound"]
    assert row["parent"]["q3"] - row["parent"]["q1"] == 2.25
    # 8 of 10 pairs won is short of nine tenths
    row = _row(parent, [p - 8.0 for p in parent[:8]] + parent[8:])
    assert row["change_won"] == 8 and not row["gain"]
    # 9 of 10 pairs, the tie counting for neither, is enough
    assert _row(parent, [p - 8.0 for p in parent[:9]] + parent[9:])["gain"]
    # every pair won, but by less than the parent's spread
    row = _row(parent, [p - 1.0 for p in parent])
    assert row["change_won"] == 10 and not row["gain"]
    # the direction comes from "better"
    row = _row(parent, [p + 8.0 for p in parent], better="higher")
    assert row["gain"] and row["within_bound"]
    row = _row(parent, [p - 8.0 for p in parent], better="higher")
    assert row["change_won"] == 0 and not row["gain"]
    # worse by 13 % of the parent's median: inside a 0.2 bound, not 0.1
    assert row["within_bound"]
    assert not _row(parent, [p - 8.0 for p in parent], better="higher",
                    bound=0.1)["within_bound"]
    assert not _row(parent, [p * 1.3 for p in parent])["within_bound"]


def test_gain_needs_the_unscaled_medians_to_agree():
    parent = [60.0, 61.0, 62.0, 63.0, 64.0, 60.5, 61.5, 62.5, 63.5, 64.5]
    change = [p - 8.0 for p in parent]
    raw = [30.0, 31.0, 32.0, 33.0, 34.0, 30.5, 31.5, 32.5, 33.5, 34.5]
    # the unscaled figures moved the same way: a gain, with both medians
    row = _row(parent, change, unscaled=(raw, [r - 1.0 for r in raw]))
    assert row["gain"]
    assert row["parent"]["median_unscaled"] == statistics.median(raw)
    assert row["change"]["median_unscaled"] == statistics.median(raw) - 1.0
    # the scaled figures won every pair, the unscaled ones went the other
    # way or stood still: no gain, and no effect on within_bound
    for moved in (1.0, 0.0):
        row = _row(parent, change, unscaled=(raw, [r + moved for r in raw]))
        assert row["change_won"] == 10 and not row["gain"]
        assert row["within_bound"]
    # a metric without unscaled figures keeps the scaled verdict alone
    row = _row(parent, change)
    assert row["gain"] and "median_unscaled" not in row["change"]
