"""The benchmark's workloads: set-up, measured loop, output checks, metrics.

Each workload puts one group of layers under load for most of the
measured period (``train``: the training step; ``stream``: per-frame
inference; ``offline``: whole-recording decoding and the Kalman
baseline).  Short tasks interleaved with it exercise the remaining
layers, so that every run reports every metric.  The library is only
called through its public functions, looked up on their modules at call
time, so that the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from calibration import Calibration

from snndecode import (
    backprop,
    batchnorm,
    checkpoint,
    data,
    kalman,
    metrics,
    network,
    profiler,
    train,
)

WORKLOADS = ("train", "stream", "offline")

SPLIT_RATIO = 0.8
DENSE_MACS = 529_000        # dense reference decoder of the profile command

# A decoder whose mean correlation on the validation split falls below this
# floor counts as one failed operation.
R_FLOOR = 0.45
R_METRICS = ("val_r_mean", "decode_r_mean", "kf_r_mean")

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train_windows_per_s": ("1/s", "higher"),
    "val_r_mean": ("r", "higher"),
    "stream_frame_us_p50": ("us", "lower"),
    "decode_frames_per_s": ("1/s", "higher"),
    "decode_r_mean": ("r", "higher"),
    "kf_frames_per_s": ("1/s", "higher"),
    "kf_r_mean": ("r", "higher"),
}

PER_LAYER = {
    "data.synth_generate_s": ("s", "lower"),
    "data.standardize_s": ("s", "lower"),
    "data.gather_ms_p50": ("ms", "lower"),
    "train.fit_s": ("s", "lower"),
    "train.self_s": ("s", "lower"),
    "train.validation_s": ("s", "lower"),
    "network.forward_train_ms_p50": ("ms", "lower"),
    "network.forward_train_self_ms_p50": ("ms", "lower"),
    "network.forward_eval_s": ("s", "lower"),
    "network.forward_eval_self_s": ("s", "lower"),
    "network.forward_streaming_us_p50": ("us", "lower"),
    "network.forward_streaming_us_p99": ("us", "lower"),
    "network.forward_streaming_self_us_p50": ("us", "lower"),
    "neuron.lif_step_calls": ("count", "lower"),
    "neuron.lif_step_s": ("s", "lower"),
    "neuron.output_step_s": ("s", "lower"),
    "batchnorm.batch_stats_s": ("s", "lower"),
    "batchnorm.tdbn_backward_s": ("s", "lower"),
    "batchnorm.normalize_calls": ("count", "lower"),
    "batchnorm.normalize_s": ("s", "lower"),
    "backprop.backward_ms_p50": ("ms", "lower"),
    "backprop.backward_self_ms_p50": ("ms", "lower"),
    "backprop.surrogate_grad_s": ("s", "lower"),
    "backprop.window_loss_s": ("s", "lower"),
    "backprop.weight_grad_flops": ("count", "lower"),
    "optim.adamw_step_ms_p50": ("ms", "lower"),
    "optim.bytes_copied_per_step": ("bytes", "lower"),
    "kalman.kf_fit_s": ("s", "lower"),
    "kalman.kf_step_us_p50": ("us", "lower"),
    "kalman.kf_step_us_p99": ("us", "lower"),
    "kalman.kf_step_calls": ("count", "lower"),
    "checkpoint.save_snn_ms": ("ms", "lower"),
    "checkpoint.load_snn_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "profiler.count_spikes_s": ("s", "lower"),
    "profiler.spike_rate.l1": ("fraction", "lower"),
    "profiler.spike_rate.l2": ("fraction", "lower"),
    "profiler.spike_rate.l3": ("fraction", "lower"),
    "profiler.snn_macs_per_frame": ("count", "lower"),
    "profiler.snn_adds_per_frame": ("count", "lower"),
    "profiler.dense_macs_per_frame": ("count", "lower"),
    "profiler.ops_ratio_vs_dense": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# stream latency percentiles are taken over chunks of this many frames
CHUNK_FRAMES = 1200

# span names whose per-call durations are kept for percentiles
PERCENTILE_SPANS = ("data.gather", "network.forward_train",
                    "network.forward_streaming", "backprop.backward",
                    "optim.adamw_step", "kalman.kf_step")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    frames: int                 # frames of the synthetic session
    channels: int
    hidden: tuple               # hidden layer widths
    fixture_windows: int        # training windows of the fixture decoder
    fixture_lr: float
    kf_segment_frames: int      # frames per Kalman task
    warmup_frames: int          # streamed before latencies are recorded
    light_setups: int           # set-up repeats without a fixture decoder
    fixture_setups: int         # set-up repeats that train a fixture decoder


REFERENCE = Sizes(frames=12_000, channels=96, hidden=(256, 256, 256),
                  fixture_windows=1024, fixture_lr=1e-2, kf_segment_frames=300,
                  warmup_frames=200, light_setups=5,
                  fixture_setups=3)
TINY = Sizes(frames=400, channels=24, hidden=(16, 16, 16),
             fixture_windows=300, fixture_lr=1e-2, kf_segment_frames=40,
             warmup_frames=10, light_setups=1,
             fixture_setups=1)
SIZES = {"reference": REFERENCE, "tiny": TINY}


def sha256(blob) -> str:
    if isinstance(blob, np.ndarray):
        blob = np.ascontiguousarray(blob).tobytes()
    elif isinstance(blob, str):
        blob = blob.encode()
    return hashlib.sha256(blob).hexdigest()


def mismatched_rows(rows: np.ndarray, reference: np.ndarray) -> int:
    """Count the rows of ``rows`` not bit-identical to ``reference``."""
    rows = np.ascontiguousarray(rows)
    reference = np.ascontiguousarray(reference)
    if rows.shape != reference.shape or rows.dtype != reference.dtype:
        return len(rows)
    a = rows.view(np.uint8).reshape(len(rows), -1)
    b = reference.view(np.uint8).reshape(len(reference), -1)
    return int(np.count_nonzero((a != b).any(axis=1)))


def _arrays(obj, out):
    """Every ndarray reachable through containers and object attributes."""
    if isinstance(obj, np.ndarray):
        out.append(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            _arrays(v, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _arrays(v, out)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            _arrays(v, out)
    return out


def fresh_bytes(inputs, outputs) -> int:
    """Bytes of the output arrays that share no memory with any input."""
    before = _arrays(inputs, [])
    return sum(a.nbytes for a in _arrays(outputs, [])
               if not any(np.may_share_memory(a, b) for b in before))


@dataclass
class StampedWindows(train.WindowDataset):
    """Training windows that note when each batch is requested, so that
    training steps are timed without wrapping library code.  Each request
    first runs ``calibrate()`` and records its factor and when it ended."""

    calibrate: object = None
    stamps: list = field(default_factory=list)

    def gather(self, idx):
        start = time.perf_counter()
        factor = self.calibrate()
        self.stamps.append((start, time.perf_counter(), factor, len(idx)))
        return super().gather(idx)


@dataclass
class Session:
    """The standardised reference session and the decoder topology."""

    spec: network.NetworkSpec
    std: data.Standardizer
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    windows: train.WindowDataset


@dataclass
class Model:
    """A trained decoder as held in memory and as reloaded from disk."""

    params: network.NetworkParams
    loaded: network.NetworkParams
    spec: network.NetworkSpec


class Run:
    """One benchmark run: its measurements, checks and fingerprints."""

    def __init__(self, workload, seed, seconds, sizes, tracer=None,
                 workdir="."):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.sizes = sizes
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)      # scaled chunk figures
        self.raw = defaultdict(list)          # the same, unscaled
        self.cal = Calibration(span=self.span)
        self.latencies_us = []                # per chunk, unscaled
        self.scaled_latencies_us = []
        self.values = {}
        self.fingerprints = {}
        self.counts = {}
        self.wall_s = 0.0
        self.kalman_tasks = 0
        self.model = None           # the decoder the inference tasks use
        self.ref_memory = None      # its decode from in-memory params
        self.ref_loaded = None      # its decode from the reloaded checkpoint

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def check(self, what: str, bad: int, total: int):
        """Count ``total`` operations of which ``bad`` failed the check."""
        self.attempted += total
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} of {total} failed")

    def record(self, name: str, raw: float, factor: float, rate: bool):
        """Keep one chunk's figure, scaled to the host's nominal speed: a
        rate is multiplied by the host's slowdown, a time divided by it."""
        self.raw[name].append(raw)
        self.samples[name].append(raw * factor if rate else raw / factor)

    def check_floor(self, name: str, value: float):
        ok = bool(np.isfinite(value)) and value >= R_FLOOR
        self.check(f"{name}={value:.4f} above floor {R_FLOOR}",
                   int(not ok), 1)

    # -- layers under measurement -----------------------------------------

    def session(self) -> Session:
        sizes = self.sizes
        frames = data.synth_generate(sizes.frames, channels=sizes.channels,
                                     seed=self.seed)
        train_set, val_set = data.split_train_val(frames, SPLIT_RATIO)
        with self.span("data.standardize"):
            std = data.Standardizer.fit(train_set)
            train_x, train_y = std.apply(train_set)
            val_x, val_y = std.apply(val_set)
        config = train.TrainConfig()
        spec = network.NetworkSpec(
            layer_widths=(sizes.channels, *sizes.hidden,
                          train_y.shape[1]),
            window_len=config.window_len,
            reset_mode=config.reset_mode,
            dropout_p=config.dropout_p,
        )
        windows = train.make_windows(train_x, train_y, config.window_len)
        return Session(spec, std, train_x, train_y, val_x, val_y, windows)

    def fit(self, session: Session, windows, config):
        """Train through ``train.fit``; returns the trained params."""
        windows = StampedWindows(**vars(windows),
                                 calibrate=lambda: self.cal.factor("blas"))
        steps = -(-len(windows) // config.batch_size) * config.epochs
        params, log = train.fit(windows, config, spec=session.spec,
                                val_features=session.val_x,
                                val_velocities=session.val_y)
        # fit raises on a non-finite loss, so returning means every step's
        # loss was finite; the epoch means are checked once more here
        bad = sum(not np.isfinite(r.train_loss) for r in log.records)
        self.check("finite training loss", bad, steps)
        canonical = log.canonical()
        first = self.fingerprints.setdefault("training_log_sha256",
                                             sha256(canonical))
        self.check("repeated fit reproduces the training log",
                   int(sha256(canonical) != first), 1)
        # a step runs from one batch request to the next; the last step of
        # an epoch is followed by validation and is left out
        stamps = windows.stamps
        for (_, ready, f0, n), (start, _, f1, _) in zip(stamps, stamps[1:]):
            self.record("train_windows_per_s", n / (start - ready),
                        (f0 + f1) / 2, rate=True)
        self.values["val_r_mean"] = float(np.mean(log.records[-1].val_r))
        return params

    def roundtrip(self, params, session: Session):
        """Save and reload a decoder through the checkpoint module."""
        path = os.path.join(self.workdir, f"model-{os.getpid()}.snnc")
        try:
            checkpoint.save_snn(path, params, session.spec, session.std)
            self.counts["checkpoint_bytes"] = os.path.getsize(path)
            loaded, spec, _, _ = checkpoint.load_snn(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        return Model(params=params, loaded=loaded, spec=spec)

    def fixture_windows(self, session: Session):
        window_len = session.spec.window_len
        n = self.sizes.fixture_windows + window_len - 1
        return train.make_windows(session.train_x[:n], session.train_y[:n],
                                  window_len)

    def fixture_config(self):
        return train.TrainConfig(epochs=1, seed=self.seed,
                                 learning_rate=self.sizes.fixture_lr)

    def fixture(self, session: Session) -> Model:
        """A decoder trained on a short fixed schedule, then reloaded."""
        params = self.fit(session, self.fixture_windows(session),
                          self.fixture_config())
        return self.roundtrip(params, session)

    def setup(self, with_fixture: bool):
        sizes = self.sizes
        repeats = sizes.fixture_setups if with_fixture else sizes.light_setups
        for _ in range(repeats):
            before = self.cal.mixed()
            start = time.perf_counter()
            spent = self.cal.spent_s
            with self.span("bench.setup"):
                session = self.session()
                model = self.fixture(session) if with_fixture else None
            # less the kernels run between the fixture's training steps
            wall = time.perf_counter() - start - (self.cal.spent_s - spent)
            self.record("setup_s", wall, (before + self.cal.mixed()) / 2,
                        rate=False)
        return session, model

    def stream(self, model: Model, frames, record: bool = True):
        """One closed-loop session: a frame goes in once the previous
        prediction is back.  Returns the streamed rows.  When recording,
        frame latencies are kept in chunks of frames, each chunk
        bracketed by the small-array reference kernel."""
        step = network.forward_streaming
        clock = time.perf_counter_ns
        params, spec = model.loaded, model.spec
        state = network.reset_state(spec)
        rows = np.empty((len(frames), spec.output_width), dtype=params.dtype)
        lat = np.empty(len(frames), dtype=np.int64)
        chunks = max(1, len(frames) // CHUNK_FRAMES) if record else 1
        bounds = np.linspace(0, len(frames), chunks + 1).astype(int)
        factor = self.cal.factor("small") if record else 1.0
        for lo, hi in zip(bounds, bounds[1:]):
            for t in range(lo, hi):
                start = clock()
                pred, state = step(params, spec, frames[t], state)
                lat[t] = clock() - start
                rows[t] = pred
            if record:
                after = self.cal.factor("small")
                self.latencies_us.append(lat[lo:hi] / 1e3)
                self.scaled_latencies_us.append(
                    lat[lo:hi] / 1e3 / ((factor + after) / 2))
                factor = after
        return rows

    def decode(self, params, model: Model, frames) -> np.ndarray:
        before = self.cal.mixed()
        start = time.perf_counter()
        preds = train.decode_sequence(params, model.spec, frames)
        wall = time.perf_counter() - start
        self.record("decode_frames_per_s", len(frames) / wall,
                    (before + self.cal.mixed()) / 2, rate=True)
        return preds

    def kalman(self, session: Session, frames, targets):
        model = kalman.kf_fit(session.train_x.astype(np.float64),
                              session.train_y.astype(np.float64))
        frames = frames.astype(np.float64)
        before = self.cal.factor("linalg")
        start = time.perf_counter()
        out = kalman.kf_run(model, frames)
        wall = time.perf_counter() - start
        self.record("kf_frames_per_s", len(frames) / wall,
                    (before + self.cal.factor("linalg")) / 2, rate=True)
        return out

    def kalman_recording(self, session: Session):
        """The Kalman baseline over the whole validation split."""
        out = self.kalman(session, session.val_x, session.val_y)
        self.values["kf_r_mean"] = metrics.evaluate(out, session.val_y).r_mean
        self.fingerprints["kalman_output_sha256"] = sha256(out)

    def profile(self, model: Model, frames):
        stats = profiler.count_spikes(model.loaded, model.spec, frames)
        snn = profiler.snn_cost(model.spec, stats.layer_rates)
        dense = profiler.ann_report(DENSE_MACS)
        for l, rate in enumerate(stats.layer_rates):
            self.counts[f"spike_rate.l{l + 1}"] = rate
        self.counts["spikes_per_frame"] = stats.spikes_per_frame
        self.counts["snn_macs_per_frame"] = snn.mac_count
        self.counts["snn_adds_per_frame"] = snn.add_count
        self.counts["dense_macs_per_frame"] = dense.mac_count
        self.counts["ops_ratio_vs_dense"] = snn.total_ops / dense.total_ops

    def use_model(self, model: Model, session: Session):
        """Decode the validation split with both copies of the decoder: the
        references the stream and decode checks compare against."""
        self.model = model
        x = session.val_x
        self.ref_memory = self.decode(model.params, model, x)
        self.ref_loaded = self.decode(model.loaded, model, x)
        self.check("reloaded decode equals in-memory decode",
                   mismatched_rows(self.ref_loaded, self.ref_memory), len(x))
        self.values["decode_r_mean"] = metrics.evaluate(
            self.ref_loaded, session.val_y).r_mean
        self.fingerprints["decode_sha256"] = sha256(self.ref_loaded)

    # -- tasks: one unit of work each, with its output check ---------------

    def task_epoch(self, session: Session):
        params = self.fit(session, session.windows,
                          train.TrainConfig(epochs=1, seed=self.seed))
        if self.model is None:
            self.use_model(self.roundtrip(params, session), session)

    def task_fixture_fit(self, session: Session):
        self.fit(session, self.fixture_windows(session),
                 self.fixture_config())

    def task_stream(self, session: Session):
        # after other work the first frames run on cold caches, which a
        # session streaming back to back does not see: they go unrecorded
        warmup = session.val_x[:self.sizes.warmup_frames]
        self.stream(self.model, warmup, record=False)
        rows = self.stream(self.model, session.val_x)
        self.check("streamed row equals decode_sequence row",
                   mismatched_rows(rows, self.ref_loaded), len(rows))
        self.fingerprints.setdefault("stream_sha256", sha256(rows))

    def task_decode(self, session: Session):
        preds = self.decode(self.model.loaded, self.model, session.val_x)
        self.check("reloaded decode equals in-memory decode",
                   mismatched_rows(preds, self.ref_memory), len(preds))
        if self.workload == "offline":     # the eval and profile commands
            self.profile(self.model, session.val_x)
            metrics.evaluate(preds, session.val_y)

    def task_kalman(self, session: Session):
        """``kf_run`` over the next segment of the recording, in turn."""
        n = self.sizes.kf_segment_frames
        segments = max(1, len(session.val_x) // n)
        lo = n * (self.kalman_tasks % segments)
        self.kalman_tasks += 1
        self.kalman(session, session.val_x[lo:lo + n],
                    session.val_y[lo:lo + n])

    def rounds(self, session: Session, tasks):
        """Run ``(share, task)`` pairs until ``seconds`` have passed.  The
        next task is always the one furthest below its share of the time
        spent, so every figure is sampled across the whole run.  Every
        task runs at least once."""
        spent = [0.0] * len(tasks)
        deadline = time.perf_counter() + self.seconds
        with self.span("bench.measure"):
            while True:
                i = min(range(len(tasks)),
                        key=lambda k: spent[k] / tasks[k][0])
                start = time.perf_counter()
                tasks[i][1](session)
                now = time.perf_counter()
                spent[i] += now - start
                if now >= deadline and all(spent):
                    break
        self.counts["task_seconds"] = {
            task.__name__: round(secs, 3)
            for (_, task), secs in zip(tasks, spent)}

    # -- workloads ---------------------------------------------------------

    def run_train(self):
        session, _ = self.setup(with_fixture=False)
        self.rounds(session, [(0.7, self.task_epoch),
                              (0.1, self.task_stream),
                              (0.1, self.task_decode),
                              (0.1, self.task_kalman)])
        self.final(session)

    def run_stream(self):
        session, model = self.setup(with_fixture=True)
        self.use_model(model, session)
        self.rounds(session, [(0.7, self.task_stream),
                              (0.1, self.task_decode),
                              (0.1, self.task_kalman),
                              (0.1, self.task_fixture_fit)])
        self.final(session)

    def run_offline(self):
        session, model = self.setup(with_fixture=True)
        self.use_model(model, session)
        self.rounds(session, [(0.35, self.task_decode),
                              (0.45, self.task_kalman),
                              (0.1, self.task_stream),
                              (0.1, self.task_fixture_fit)])
        self.final(session)

    def final(self, session: Session):
        """Kalman over the whole recording, for its accuracy and output
        fingerprint, and the profiler at the measured spike rates."""
        with self.span("bench.final"):
            self.kalman_recording(session)
            self.profile(self.model, session.val_x)

    def execute(self):
        start = time.perf_counter()
        getattr(self, f"run_{self.workload}")()
        for name in R_METRICS:
            self.check_floor(name, self.values[name])
        self.wall_s = time.perf_counter() - start

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        """Medians of the scaled chunk figures, and the median stream
        latency over every scaled frame (see calibration.py)."""
        values = {name: statistics.median(v)
                  for name, v in self.samples.items()}
        values["stream_frame_us_p50"] = np.percentile(
            np.concatenate(self.scaled_latencies_us), 50)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values.update(self.values)
        return {k: {"value": float(values[k]), "unit": END_TO_END[k][0]}
                for k in END_TO_END}

    def chunk_summary(self) -> dict:
        """Per chunked figure: chunk count and the median of the scaled and
        of the unscaled figures; the calibration factors; stream latency
        percentiles over all recorded frames, scaled and unscaled."""
        out = {name: {"chunks": len(v),
                      "median_scaled": statistics.median(v),
                      "median_unscaled": statistics.median(self.raw[name])}
               for name, v in sorted(self.samples.items())}
        out["host_slowdown"] = {
            kind: {"runs": len(f), "median": statistics.median(f),
                   "min": min(f), "max": max(f)}
            for kind, f in self.cal.factors.items() if f}
        for label, chunks in (("scaled", self.scaled_latencies_us),
                              ("unscaled", self.latencies_us)):
            lat_us = np.concatenate(chunks)
            out[f"stream_frame_us_{label}"] = {
                "chunks": len(chunks), "frames": len(lat_us),
                "p50": float(np.percentile(lat_us, 50)),
                "p99": float(np.percentile(lat_us, 99)),
            }
        return out

    def per_layer(self, span_cost_s: float) -> dict:
        t = self.tracer
        c = self.counts
        config = train.TrainConfig()
        widths = (self.sizes.channels, *self.sizes.hidden, 2)
        synapses = sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        values = {
            "data.synth_generate_s": t.mean("data.synth_generate"),
            "data.standardize_s": t.mean("data.standardize"),
            "data.gather_ms_p50": 1e3 * t.percentile("data.gather", 50),
            "train.fit_s": t.mean("train.fit"),
            "train.self_s": t.mean("train.fit", own=True),
            "train.validation_s": t.mean("train.validation"),
            "network.forward_train_ms_p50":
                1e3 * t.percentile("network.forward_train", 50),
            "network.forward_train_self_ms_p50":
                1e3 * t.percentile("network.forward_train", 50, own=True),
            "network.forward_eval_s": t.mean("network.forward_eval"),
            "network.forward_eval_self_s":
                t.mean("network.forward_eval", own=True),
            "network.forward_streaming_us_p50":
                1e6 * t.percentile("network.forward_streaming", 50),
            "network.forward_streaming_us_p99":
                1e6 * t.percentile("network.forward_streaming", 99),
            "network.forward_streaming_self_us_p50":
                1e6 * t.percentile("network.forward_streaming", 50, own=True),
            "neuron.lif_step_calls": t.stat("neuron.lif_step")[0],
            "neuron.lif_step_s": t.mean("neuron.lif_step"),
            "neuron.output_step_s": t.mean("neuron.output_step"),
            "batchnorm.batch_stats_s": t.mean("batchnorm.batch_stats"),
            "batchnorm.tdbn_backward_s": t.mean("batchnorm.tdbn_backward"),
            "batchnorm.normalize_calls": t.stat("batchnorm.normalize")[0],
            "batchnorm.normalize_s": t.mean("batchnorm.normalize"),
            "backprop.backward_ms_p50":
                1e3 * t.percentile("backprop.backward", 50),
            "backprop.backward_self_ms_p50":
                1e3 * t.percentile("backprop.backward", 50, own=True),
            "backprop.surrogate_grad_s": t.mean("backprop.surrogate_grad"),
            "backprop.window_loss_s": t.mean("backprop.window_loss"),
            # one multiply-add per synapse, batch row and timestep
            "backprop.weight_grad_flops":
                2 * config.batch_size * config.window_len * synapses,
            "optim.adamw_step_ms_p50":
                1e3 * t.percentile("optim.adamw_step", 50),
            "optim.bytes_copied_per_step": c.get("adamw_bytes_copied", 0),
            "kalman.kf_fit_s": t.mean("kalman.kf_fit"),
            "kalman.kf_step_us_p50": 1e6 * t.percentile("kalman.kf_step", 50),
            "kalman.kf_step_us_p99": 1e6 * t.percentile("kalman.kf_step", 99),
            "kalman.kf_step_calls": t.stat("kalman.kf_step")[0],
            "checkpoint.save_snn_ms": 1e3 * t.mean("checkpoint.save_snn"),
            "checkpoint.load_snn_ms": 1e3 * t.mean("checkpoint.load_snn"),
            "checkpoint.bytes": c["checkpoint_bytes"],
            "profiler.count_spikes_s": t.mean("profiler.count_spikes"),
            "profiler.spike_rate.l1": c["spike_rate.l1"],
            "profiler.spike_rate.l2": c["spike_rate.l2"],
            "profiler.spike_rate.l3": c["spike_rate.l3"],
            "profiler.snn_macs_per_frame": c["snn_macs_per_frame"],
            "profiler.snn_adds_per_frame": c["snn_adds_per_frame"],
            "profiler.dense_macs_per_frame": c["dense_macs_per_frame"],
            "profiler.ops_ratio_vs_dense": c["ops_ratio_vs_dense"],
            "trace.spans": t.span_count,
            "trace.overhead_pct":
                100.0 * t.span_count * span_cost_s / self.wall_s,
        }
        return {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                for k in PER_LAYER}

    def fit_breakdown(self) -> dict:
        """Where the time of ``train.fit`` went: seconds per direct child
        span, summed over every fit of the run, plus fit's own time."""
        t = self.tracer
        calls, total, own = t.stat("train.fit")
        out = {name: secs for name, secs in
               sorted(t.children("train.fit").items())}
        out["self"] = own
        out["fit_total"] = total
        out["fits"] = calls
        return out


def install(tracer, run: Run):
    """Put traced wrappers on the names the library looks up."""
    def mode_of(args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
        return ("network.forward_train" if mode == batchnorm.TRAIN
                else "network.forward_eval")

    observed = []

    def adamw_observe(args, kwargs, result):
        # the first steps suffice: the shapes do not change between steps
        if len(observed) < 3:
            observed.append(None)
            run.counts["adamw_bytes_copied"] = fresh_bytes(args, result)

    tracer.patch(data, "synth_generate", "data.synth_generate")
    tracer.patch(train.WindowDataset, "gather", "data.gather")
    tracer.patch(train, "fit", "train.fit")
    tracer.patch(train, "_validation_r", "train.validation")
    tracer.patch(train, "decode_sequence", "train.decode_sequence")
    tracer.patch(train, "forward_unfolded", None, name_of=mode_of)
    tracer.patch(profiler, "forward_unfolded", None, name_of=mode_of)
    tracer.patch(train, "window_loss", "backprop.window_loss")
    tracer.patch(train, "backward", "backprop.backward")
    tracer.patch(train, "adamw_step", "optim.adamw_step",
                 observe=adamw_observe)
    tracer.patch(network, "forward_streaming", "network.forward_streaming")
    tracer.patch(network, "lif_step", "neuron.lif_step")
    tracer.patch(network, "output_step", "neuron.output_step")
    tracer.patch(batchnorm, "batch_stats", "batchnorm.batch_stats")
    tracer.patch(batchnorm, "normalize", "batchnorm.normalize")
    tracer.patch(batchnorm, "tdbn_backward", "batchnorm.tdbn_backward")
    tracer.patch(backprop, "surrogate_grad", "backprop.surrogate_grad")
    tracer.patch(kalman, "kf_fit", "kalman.kf_fit")
    tracer.patch(kalman, "kf_run", "kalman.kf_run")
    tracer.patch(kalman, "kf_step", "kalman.kf_step")
    tracer.patch(checkpoint, "save_snn", "checkpoint.save_snn")
    tracer.patch(checkpoint, "load_snn", "checkpoint.load_snn")
    tracer.patch(profiler, "count_spikes", "profiler.count_spikes")
    tracer.patch(metrics, "evaluate", "metrics.evaluate")
