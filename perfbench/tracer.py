"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` wraps library functions from the outside: each wrapper
is installed onto the module or class attribute that the library itself
looks up, so calls made deep inside ``train.fit`` are seen too.  Every
call records a span (name, start, end, parent).  Self time is the span's
duration minus the time covered by its direct child spans.

Per-name aggregates (calls, total and self seconds) are kept for every
span, and per-call durations for the names whose percentiles are
reported.  The raw spans, up to a cap, and the aggregates are written
when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

MAX_RAW_SPANS = 1_000_000           # spans kept for the spans file
MAX_DURATIONS = 1_000_000           # per-name durations kept for percentiles


class Tracer:
    def __init__(self, keep_durations=()):
        self.names = []
        self._ids = {}
        self._keep = set(keep_durations)
        self.calls = []                 # per name id
        self.total = []
        self.self_total = []
        self.durations = {}             # name id -> array of seconds
        self.self_durations = {}
        self.edges = {}                 # (parent name id, name id) -> seconds
        self.span_count = 0
        self.raw = {k: array(t) for k, t in
                    (("id", "q"), ("name", "i"), ("parent", "q"),
                     ("start", "d"), ("end", "d"))}
        self._stack = []                # [span id, name id, child s, parent]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_total.append(0.0)
            if name in self._keep:
                self.durations[nid] = array("d")
                self.self_durations[nid] = array("d")
        return nid

    def _enter(self, nid):
        index = self.span_count
        self.span_count += 1
        parent = self._stack[-1] if self._stack else None
        frame = [index, nid, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        index, nid, child, parent = frame
        duration = end - start
        own = duration - child
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_total[nid] += own
        if nid in self.durations and len(self.durations[nid]) < MAX_DURATIONS:
            self.durations[nid].append(duration)
            self.self_durations[nid].append(own)
        pid = -1
        if parent is not None:
            parent[2] += duration
            pid = parent[1]
        self.edges[(pid, nid)] = self.edges.get((pid, nid), 0.0) + duration
        if index < MAX_RAW_SPANS:
            raw = self.raw
            raw["id"].append(index)
            raw["name"].append(nid)
            raw["parent"].append(parent[0] if parent is not None else -1)
            raw["start"].append(start)
            raw["end"].append(end)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        frame = self._enter(self.name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    def wrap(self, fn, name, name_of=None, observe=None):
        """A traced stand-in for ``fn``.

        ``name_of(args, kwargs)`` picks the span name per call when the
        same function plays several roles; ``observe(args, kwargs,
        result)`` runs after the call, outside the timed interval.
        """
        fixed = self.name_id(name) if name_of is None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if name_of is None else self.name_id(
                name_of(args, kwargs))
            frame = self._enter(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, clock())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, name, name_of=None, observe=None):
        """Replace ``owner.attr`` by a traced wrapper; skip missing names."""
        original = owner.__dict__.get(attr)
        if callable(original):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, name_of, observe))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def stat(self, name: str):
        """``(calls, total seconds, self seconds)`` of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_total[nid]

    def mean(self, name: str, own: bool = False) -> float:
        calls, total, self_total = self.stat(name)
        if not calls:
            return 0.0
        return (self_total if own else total) / calls

    def percentile(self, name: str, q: float, own: bool = False) -> float:
        nid = self._ids.get(name)
        store = self.self_durations if own else self.durations
        if nid is None or nid not in store or not len(store[nid]):
            return 0.0
        return float(np.percentile(np.frombuffer(store[nid]), q))

    def children(self, name: str) -> dict:
        """Totals of the spans directly under ``name``: child -> seconds."""
        nid = self._ids.get(name)
        out = {}
        for (pid, cid), total in self.edges.items():
            if pid == nid:
                out[self.names[cid]] = total
        return out

    def save(self, path):
        """Write the raw spans and the per-name aggregates as ``.npz``."""
        raw = {k: np.frombuffer(v, dtype=v.typecode) if len(v) else
               np.zeros(0, dtype=v.typecode) for k, v in self.raw.items()}
        np.savez(
            path,
            names=np.array(self.names),
            calls=np.array(self.calls, dtype=np.int64),
            total_s=np.array(self.total),
            self_s=np.array(self.self_total),
            dropped=np.int64(max(0, self.span_count - MAX_RAW_SPANS)),
            **{f"span_{k}": v for k, v in raw.items()},
        )


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call beyond the call itself, seconds."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop")
    clock = time.perf_counter
    best_plain = best_traced = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(samples):
            noop()
        best_plain = min(best_plain, clock() - start)
        start = clock()
        for _ in range(samples):
            traced()
        best_traced = min(best_traced, clock() - start)
    return max(0.0, (best_traced - best_plain) / samples)
