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

ROOT = Path(__file__).resolve().parent.parent


def test_pairs_file_summarizes_every_metric(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", ".", ".", "--number", "0",
         "--pairs", "offline=2", "--seconds", "0.2", "--size", "tiny",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    offline = record["workloads"]["offline"]
    assert set(offline["metrics"]) == {m["name"]
                                       for m in declared["end_to_end"]}
    for row in offline["metrics"].values():
        assert row["pairs"] == 2 and 0 <= row["change_won"] <= 2
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
    assert "openblas_corename" in record["environment"]
