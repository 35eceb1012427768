"""Run the benchmark on two source trees in alternated pairs.

Each tree's own ``perfbench/run.py`` runs unchanged, with ``--trace 0``;
pair ``i`` runs both trees on seed ``100 * n + i``, where ``n`` is the
``--number`` of the file written, and which tree goes first alternates
from pair to pair.  Every run starts from a fresh copy of its tree,
without version control, caches or earlier results, in one of two
sibling directories of one temporary directory, whose paths are equally
long; which side runs from which of them alternates every two pairs, so
neither the order nor the location favours a side, and no run writes
into a source tree.  The result is one JSON file holding, per
workload and end-to-end metric (as the change tree's ``BENCHMARK.json``
declares them), each side's median, quartiles and interquartile range,
the median of the unscaled figure where the run has one, the number of
pairs the change won (ties count for neither), the difference of the
medians and the verdicts ``gain`` and ``within_bound`` (see
:func:`summarize`), plus both sides' figures, unscaled figures,
host-slowdown factors and fingerprints per seed, the environment, among
it the OpenBLAS kernel name, and per tree the sha256 of its sources and
the code lines of each module of ``src/snndecode`` with their total
(``tools/code_lines.py``).  A workload named in
``--traced`` also gets one ``--trace 1`` run per side, on its first
pair's seed, whose per-layer figures the file keeps under ``traced``::

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py /tmp/parent . --number 23 \\
        --pairs offline=10 train=10 stream=10 --traced offline

writes ``BENCH_23.json`` at the root of the change tree.  Standard
library only; numpy is loaded only by the child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from code_lines import package_lines    # this directory is on the path

# Read in a child process: the kernel OpenBLAS picked for this CPU.
_CORENAME = """
import ctypes, glob, os, numpy as np
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
name = None
for path in glob.glob(os.path.join(libs, "*openblas*")):
    fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if fn is not None:
        fn.restype = ctypes.c_char_p
        name = fn().decode()
print(name or "")
"""
# Fields of run.py's environment line that describe one run, not the host.
_PER_RUN = ("workload", "seed", "seconds", "size", "trace")


# Left out of a run's copy of a tree: what earlier work left behind.
_NOT_COPIED = {".git", "__pycache__", ".hypothesis", ".pytest_cache",
               ".benchmarks"}


def _not_copied(directory: str, names: list) -> set:
    skip = _NOT_COPIED.intersection(names)
    if Path(directory).name == "perfbench" and "results" in names:
        skip.add("results")
    return skip


def fresh_copies(trees: dict, slots: tuple, parent_slot: int) -> dict:
    """Copy both ``trees`` afresh into the two ``slots``, the parent into
    ``slots[parent_slot]``, replacing what a run left there; the copies
    by side."""
    sides = ("parent", "change") if parent_slot == 0 else ("change", "parent")
    copies = {}
    for side, slot in zip(sides, slots):
        shutil.rmtree(slot, ignore_errors=True)
        copies[side] = Path(shutil.copytree(trees[side], slot,
                                            ignore=_not_copied))
    return copies


def _tree_digest(tree: Path) -> str:
    """sha256 over the tree's library sources, path and bytes."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _tree_lines(tree: Path) -> dict:
    """Code lines of each module of the tree's library, and their total."""
    modules = package_lines(tree / "src" / "snndecode")
    return {"modules": modules, "total": sum(modules.values())}


def run_once(tree: Path, workload: str, seed: int, args,
             trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run: its result, fingerprints and
    environment, read from the lines it prints, and its unscaled figures
    and host-slowdown factors, read from the results file it writes
    (:func:`_unscaled_figures`)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--size", args.size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        for key in ("environment", "fingerprints"):
            if line.startswith(f"# {key} "):
                out[key] = json.loads(line[len(key) + 3:])
    size = "" if args.size == "reference" else f"-{args.size}"
    results = (tree / "perfbench" / "results"
               / f"{workload}-seed{seed}{size}-trace{trace}.json")
    out.update(_unscaled_figures(json.loads(results.read_text())["chunks"]))
    return out


def _unscaled_figures(chunks: dict) -> dict:
    """From the ``chunks`` section of a run's results file: the unscaled
    median of each chunked metric, the unscaled ``stream_frame_us_p50``
    and the host-slowdown factors the run measured."""
    unscaled = {name: c["median_unscaled"] for name, c in chunks.items()
                if "median_unscaled" in c}
    unscaled["stream_frame_us_p50"] = chunks["stream_frame_us_unscaled"][
        "p50"]
    return {"unscaled": unscaled, "host_slowdown": chunks["host_slowdown"]}


def _summary(values: list) -> dict:
    """Median, quartiles (inclusive method; one value is its own) and
    the interquartile range."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' summaries, the change's wins,
    the median difference and two verdicts.

    ``runs`` holds one ``{"parent": run, "change": run}`` per pair, and
    ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json``.

    * ``gain``: the change won at least nine tenths of the pairs (ties
      count for neither), its median is better than the parent's by
      more than the parent's interquartile range, and, where every run
      has an unscaled figure of the metric, the change's unscaled
      median is better than the parent's too;
    * ``within_bound``: the change's median is worse than the parent's
      by no more than the metric's ``bound``, a fraction of the parent's
      median.

    ``median_diff`` is the change's median minus the parent's, and
    ``median_diff_rel`` that difference as a fraction of the parent's
    median (0 when that median is 0).  Run with one tree on both sides,
    they and each side's ``iqr`` are the spread a later file's claim
    has to clear.
    """
    table = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        got = {side: [r[side]["result"]["metrics"][name]["value"]
                      for r in runs] for side in ("parent", "change")}
        parent, change = _summary(got["parent"]), _summary(got["change"])
        won = sum(sign * (c - p) > 0 for p, c in
                  zip(got["parent"], got["change"]))
        diff = change["median"] - parent["median"]
        better_by = sign * diff
        raw = {side: [r[side].get("unscaled", {}).get(name) for r in runs]
               for side in got}
        agrees = True
        if None not in raw["parent"] + raw["change"]:
            parent["median_unscaled"] = statistics.median(raw["parent"])
            change["median_unscaled"] = statistics.median(raw["change"])
            agrees = sign * (change["median_unscaled"]
                             - parent["median_unscaled"]) > 0
        table[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": parent, "change": change,
            "change_won": won, "pairs": len(runs),
            "median_diff": diff,
            "median_diff_rel": (diff / abs(parent["median"])
                                if parent["median"] else 0.0),
            "gain": (10 * won >= 9 * len(runs) and agrees
                     and better_by > parent["iqr"]),
            "within_bound": -better_by <= m["bound"] * abs(parent["median"]),
        }
    return table


def _parse_pairs(items: list) -> dict:
    pairs = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"--pairs wants workload=count, got {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent source tree")
    p.add_argument("change", type=Path, help="the changed source tree")
    p.add_argument("--number", type=int, required=True,
                   help="n of the BENCH_<n>.json written; pair i runs "
                        "seed 100 * n + i")
    p.add_argument("--pairs", nargs="+", default=["offline=3"],
                   metavar="WORKLOAD=COUNT")
    p.add_argument("--traced", nargs="+", default=[], metavar="WORKLOAD",
                   help="workloads of --pairs that also get one --trace 1 "
                        "run per side")
    p.add_argument("--seconds", type=float,
                   help="measured loop per run (default: BENCHMARK.json's "
                        "run_seconds)")
    p.add_argument("--size", choices=("reference", "tiny"),
                   default="reference")
    p.add_argument("--out", type=Path,
                   help="output file (default: BENCH_<n>.json at the "
                        "change tree's root)")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    known = {w["name"] for w in declared["workloads"]}
    pairs = _parse_pairs(args.pairs)
    if set(pairs) - known:
        raise SystemExit(f"unknown workloads {sorted(set(pairs) - known)}; "
                         f"declared: {sorted(known)}")
    if set(args.traced) - set(pairs):
        raise SystemExit(f"--traced {sorted(set(args.traced) - set(pairs))} "
                         f"names workloads without pairs")

    first_seed = 100 * args.number
    workloads, environment = {}, None
    scratch = tempfile.TemporaryDirectory(prefix="bench_pairs-")
    slots = (Path(scratch.name) / "slot0", Path(scratch.name) / "slot1")
    for workload, count in pairs.items():
        runs = []
        for i in range(count):
            seed, parent_slot = first_seed + i, i // 2 % 2
            copies = fresh_copies(trees, slots, parent_slot)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(copies[side], workload, seed, args)
                    for side in order}
            print(f"{workload} seed {seed}: {order[0]} first, parent in "
                  f"slot {parent_slot}, pair {i + 1} of {count}",
                  file=sys.stderr)
            pair["seed"], pair["first"] = seed, order[0]
            pair["parent_slot"] = parent_slot
            runs.append(pair)
            environment = environment or {
                k: v for k, v in pair["change"]["environment"].items()
                if k not in _PER_RUN}
        workloads[workload] = {
            "metrics": summarize(runs, declared["end_to_end"]),
            "runs": [{"seed": r["seed"], "first": r["first"],
                      "parent_slot": r["parent_slot"], **{
                side: {"correct": r[side]["result"]["correct"],
                       "failed": r[side]["result"]["failed"],
                       "fingerprints": r[side]["fingerprints"],
                       "unscaled": r[side]["unscaled"],
                       "host_slowdown": r[side]["host_slowdown"],
                       "metrics": {m["name"]: r[side]["result"]["metrics"]
                                   [m["name"]]["value"]
                                   for m in declared["end_to_end"]}}
                for side in trees}} for r in runs],
            "fingerprints_equal": all(
                r["parent"]["fingerprints"] == r["change"]["fingerprints"]
                for r in runs),
        }
        if workload in args.traced:
            copies = fresh_copies(trees, slots, 0)
            workloads[workload]["traced"] = {
                side: {"seed": first_seed, "per_layer": run_once(
                    copies[side], workload, first_seed, args,
                    trace=1)["result"]["metrics"]}
                for side in trees}
    scratch.cleanup()
    core = subprocess.run([sys.executable, "-c", _CORENAME],
                          capture_output=True, text=True)
    environment["openblas_corename"] = core.stdout.strip() or None
    record = {
        "number": args.number,
        "trees": {side: {"src_sha256": _tree_digest(tree),
                         "code_lines": _tree_lines(tree)}
                  for side, tree in trees.items()},
        "settings": {"seconds": args.seconds, "size": args.size,
                     "trace": 0, "traced": args.traced,
                     "first_seed": first_seed},
        "environment": environment,
        "workloads": workloads,
    }
    out = args.out or trees["change"] / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
