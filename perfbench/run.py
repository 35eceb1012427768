"""Run one benchmark workload of the snndecode library.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {train,stream,offline} \\
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the same checkout.  Inputs are
generated from ``--seed``; the workload's measured loop runs for about
``--seconds``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The run's environment, fingerprints and exact counts are printed above
it and written to ``perfbench/results/``.  Exit codes: 0 done (check
``correct``), 2 usage error or library missing, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# One caller in a closed loop, and one BLAS thread: a second thread would
# compete with the caller for the host's cores, and the figures would then
# depend on what else the host runs.
BLAS_THREADS = 1


def _pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads_in_effect():
    """Ask the OpenBLAS that numpy loaded how many threads it uses."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads_in_effect(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": bool(args.trace),
    }


def _import_library():
    """Import ``snndecode`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import snndecode
    except ImportError as exc:
        raise SystemExit(f"cannot import snndecode from {src}: {exc}")
    origin = os.path.realpath(snndecode.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"snndecode resolved to {origin}, not under {src}")


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "stream", "offline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("reference", "tiny"),
                   default="reference",
                   help="input sizes; tiny is for the harness smoke test")
    return p


def _overhead_vs_untraced(path, traced: dict) -> dict | None:
    """Relative change of each end-to-end figure against the untraced run
    of the same workload and seed, when that run's result is on disk."""
    try:
        with open(path) as fh:
            untraced = json.load(fh)["end_to_end"]
    except (OSError, ValueError, KeyError):
        return None
    return {k: traced[k]["value"] / untraced[k]["value"] - 1.0
            for k in traced if k in untraced and untraced[k]["value"]}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 0:
        print("--seconds must be nonnegative", file=sys.stderr)
        return 2
    _pin_blas_threads()
    try:
        _import_library()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    from snndecode.errors import NumericError
    import tracer as tracing
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    tracer = (tracing.Tracer(keep_durations=workloads.PERCENTILE_SPANS)
              if args.trace else None)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        workloads.SIZES[args.size], tracer=tracer,
                        workdir=RESULTS)
    if tracer is not None:
        workloads.install(tracer, run)
    try:
        run.execute()
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            tracer.uninstall()

    size = "" if args.size == "reference" else f"-{args.size}"
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}{size}")
    end_to_end = run.end_to_end()
    record = {
        "environment": environment(args),
        "fingerprints": run.fingerprints,
        "counts": run.counts,
        "problems": run.problems,
        "end_to_end": end_to_end,
        "chunks": run.chunk_summary(),
    }
    if tracer is None:
        metrics = end_to_end
    else:
        cost = tracing.span_cost_s()
        metrics = run.per_layer(cost)
        record["per_layer"] = metrics
        record["span_cost_ns"] = cost * 1e9
        record["fit_breakdown_s"] = run.fit_breakdown()
        record["overhead_vs_untraced"] = _overhead_vs_untraced(
            f"{stem}-trace0.json", end_to_end)
        spans_path = os.path.join(RESULTS,
                                  f"{args.workload}{size}-spans.npz")
        tracer.save(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record["result"] = result
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for key in ("environment", "fingerprints", "counts"):
        print(f"# {key} " + json.dumps(record[key], sort_keys=True))
    for line in run.problems:
        print(f"# FAILED {line}")
    if tracer is not None:
        print("# fit_breakdown_s " + json.dumps(record["fit_breakdown_s"]))
        print("# overhead_vs_untraced "
              + json.dumps(record["overhead_vs_untraced"]))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
