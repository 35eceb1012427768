"""Reference kernels that track how fast the host is running right now.

On a shared host the same code runs at different speeds from one second
to the next: when other tenants load the machine, Python-heavy numpy
code slows by up to 2x, for stretches of seconds to minutes.  Every
measured chunk of the benchmark is therefore bracketed by a reference
kernel of the same character (small-array numpy, batched BLAS, or small
dense linear algebra) that contains no library code.  A chunk's figure is
scaled by the kernel's slowdown against its nominal time, the average of
the kernel runs just before and just after the chunk.  The scaled figure
reads as if the host ran at its nominal speed; a change to the library
moves it, a change in host load mostly does not.

The nominal times are the kernels' uncontended times on the reference
host (2-core Intel Xeon, OpenBLAS 0.3.31, one BLAS thread), so scaled
figures there read like unscaled figures taken in its fast state.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"small": 0.85e-3, "blas": 1.5e-3, "linalg": 1.3e-3}


class Calibration:
    """The reference kernels plus a record of every factor measured."""

    def __init__(self, span=None):
        rng = np.random.default_rng(12345)
        self._weights = [rng.normal(size=(256, 96)).astype(np.float32),
                         rng.normal(size=(256, 256)).astype(np.float32),
                         rng.normal(size=(256, 256)).astype(np.float32)]
        self._frame = rng.normal(size=96).astype(np.float32)
        self._batch = rng.normal(size=(640, 256)).astype(np.float32)
        spd = rng.normal(size=(96, 96))
        self._spd = spd @ spd.T + 96.0 * np.eye(96)
        self._span = span
        self.factors = {kind: [] for kind in NOMINAL_S}
        self.spent_s = 0.0          # time spent in the kernels so far

    def _small(self):
        # a frame-at-a-time recurrent step of three 256-wide layers
        u = [np.zeros((1, 256), np.float32) for _ in range(3)]
        s = [np.zeros((1, 256), np.float32) for _ in range(3)]
        for _ in range(20):
            act = self._frame[None]
            for l, w in enumerate(self._weights):
                cur = (act @ w.T - 0.1) * 0.5 + 0.2
                u[l] = 0.5 * (u[l] - s[l] * 0.4) + cur
                s[l] = (u[l] >= 0.4).astype(np.float32)
                act = s[l]

    def _blas(self):
        cur = self._batch @ self._weights[2]
        normed = (cur - cur.mean(axis=0)) * 0.5
        (normed >= 0.1).astype(np.float32)

    def _linalg(self):
        for _ in range(2):
            np.linalg.cond(self._spd)
            np.linalg.solve(self._spd, self._spd[:, :3])

    def factor(self, kind: str) -> float:
        """Current slowdown of the ``kind`` kernel against nominal: the
        faster of two runs, so one interruption does not count."""
        kernel = getattr(self, f"_{kind}")
        clock = time.perf_counter
        best = float("inf")
        with self._span("bench.calibrate"):
            for _ in range(2):
                start = clock()
                kernel()
                elapsed = clock() - start
                best = min(best, elapsed)
                self.spent_s += elapsed
        value = best / NOMINAL_S[kind]
        self.factors[kind].append(value)
        return value

    def mixed(self) -> float:
        """Slowdown for work of mixed character (set-up)."""
        return float(np.sqrt(self.factor("small") * self.factor("blas")))
