"""Smoke test of the benchmark harness at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from snndecode import network  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declaration_matches_harness():
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert declared == table
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_mismatched_rows_is_bitwise():
    ref = np.arange(12, dtype=np.float32).reshape(6, 2)
    rows = ref.copy()
    assert workloads.mismatched_rows(rows, ref) == 0
    rows[4, 1] = np.nextafter(rows[4, 1], np.float32(np.inf))
    rows[0, 0] = -0.0                       # equal as a float, not as bits
    assert workloads.mismatched_rows(rows, ref) == 2


def test_perturbed_stream_row_counts_as_failure(tmp_path):
    run = workloads.Run("stream", 3, 0.0, workloads.TINY, workdir=tmp_path)
    session, model = run.setup(with_fixture=True)
    run.use_model(model, session)
    run.task_stream(session)
    assert run.failed == 0

    original = network.forward_streaming
    calls = []
    target = workloads.TINY.warmup_frames + 5      # past the warm-up frames

    def perturbed(*args, **kwargs):
        pred, state = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == target:
            pred = pred + np.float32(1e-3)
        return pred, state

    network.forward_streaming = perturbed
    try:
        attempted = run.attempted
        run.task_stream(session)
    finally:
        network.forward_streaming = original
    assert run.attempted - attempted == len(session.val_x)
    assert run.failed == 1
    assert "streamed row" in run.problems[-1]
