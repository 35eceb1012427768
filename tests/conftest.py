"""Make this checkout's ``snndecode`` importable by the tests, and hold the
Python processes they start to the suite's warning policy.

``pythonpath`` and ``filterwarnings`` in pyproject.toml cover the test
process itself; the tests that start a Python subprocess (the CLI entry
point, the demos, the README quick start, the BLAS thread-count and
determinism jobs, the unit-suite re-run) inherit ``PYTHONPATH`` and
``PYTHONWARNINGS``, so ``src`` goes into the first and the rule that a
numpy overflow or invalid value is an error into the second.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
WARNINGS = "error::RuntimeWarning"


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *paths])
    # the last filter wins, so the policy goes after any the caller set
    filters = [f for f in os.environ.get("PYTHONWARNINGS", "").split(",") if f]
    if filters[-1:] != [WARNINGS]:
        os.environ["PYTHONWARNINGS"] = ",".join([*filters, WARNINGS])
