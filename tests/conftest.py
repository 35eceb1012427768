"""Make this checkout's ``snndecode`` importable by the tests.

``pythonpath`` in pyproject.toml covers the test process itself; the
tests that start a Python subprocess (the CLI entry point, the BLAS
thread-count and determinism jobs, the unit-suite re-run) inherit
``PYTHONPATH``, so ``src`` goes there too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *paths])
