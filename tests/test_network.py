"""Tests for the assembled decoder network and its two forward passes."""

import copy
import json
import os
import pickle
import subprocess
import sys
import textwrap
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode import (
    EVAL,
    TRAIN,
    NetworkSpec,
    forward_streaming,
    forward_unfolded,
    init_params,
    reset_state,
)
from snndecode.backprop import backward
from snndecode.errors import NumericError
from snndecode import batchnorm, network
from snndecode.network import (
    GEMM_BLOCK,
    LAYER_ARRAYS,
    NetworkState,
    _blocked_gemm,
)
from snndecode.neuron import RESET_MODES, lif_step, output_step
from snndecode.train import TrainConfig, decode_sequence
from snndecode.profiler import count_spikes

SMALL = NetworkSpec(layer_widths=(6, 12, 12, 2), window_len=5)


def lively_params(spec, seed=0, dtype=np.float64):
    """Parameters tweaked so random inputs actually elicit spikes."""
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng, dtype=dtype)
    for layer in params.layers:
        layer.norm.gamma[:] = 2.0
        layer.norm.beta[:] = 0.2
    return params


FOLD = network._fold


def unfolded_reference(params, spec, window):
    """Decode a ``(T, in)`` window the way inference ran before the fold:
    each layer's matmul, then ``batchnorm.normalize`` on the running
    statistics, then the membrane recurrence, from a zero state."""
    act = window
    for l, layer in enumerate(params.layers):
        n = layer.norm
        cur, _, _ = batchnorm.normalize(
            act @ layer.weight.T, n.run_mean, n.run_var, n.gamma, n.beta,
            spec.threshold, spec.bn_eps)
        u = np.zeros_like(cur[0])
        out = np.empty_like(cur)
        for t in range(len(cur)):
            if l < spec.n_hidden:
                u = lif_step(u, cur[t], layer.tau, spec.threshold,
                             spec.reset_mode)
                out[t] = u >= spec.threshold
            else:
                u = out[t] = output_step(u, cur[t], layer.tau)
        act = out
    return act


def varied_params(spec, seed, dtype, min_var=1e-3):
    """Parameters with every normalizer array drawn away from its initial
    value; running variances spread log-uniformly down to ``min_var``, so
    the normalizer's epsilon shows."""
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng, dtype=dtype)
    for layer in params.layers:
        n = layer.norm
        n.gamma[:] = rng.uniform(0.5, 3.0, n.gamma.shape)
        n.beta[:] = rng.uniform(-0.2, 0.4, n.beta.shape)
        n.run_mean[:] = rng.normal(0.0, 0.5, n.run_mean.shape)
        n.run_var[:] = np.exp(rng.uniform(np.log(min_var), np.log(2.0),
                                          n.run_var.shape))
    return params, rng


def assert_kernel_matches_reference(spec, seed, dtype):
    params, rng = varied_params(spec, seed, dtype)
    window = rng.normal(size=(spec.window_len, spec.input_width)).astype(dtype)
    reference = unfolded_reference(params, spec, window)
    rows = decode_sequence(params, spec, window)
    # the fold reorders a few roundings per layer: 3,000 random cases
    # stayed within 7 eps of the largest row value
    tol = 100 * np.finfo(dtype).eps
    np.testing.assert_allclose(rows, reference, rtol=tol,
                               atol=tol * max(1.0, np.abs(reference).max()))


class TestSpec:
    def test_default_topology(self):
        spec = NetworkSpec()
        assert spec.layer_widths == (96, 256, 256, 256, 2)
        assert spec.n_layers == 4
        assert spec.n_hidden == 3
        assert spec.neuron_count == 770

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(layer_widths=(96,))
        with pytest.raises(ValueError):
            NetworkSpec(dropout_p=1.0)
        with pytest.raises(ValueError):
            NetworkSpec(reset_mode="bounce")
        for bad in ({"threshold": 0.0}, {"threshold": np.nan},
                    {"threshold": np.inf}, {"window_len": 2.5},
                    {"window_len": True}):
            name, = bad
            with pytest.raises(ValueError, match=name):
                NetworkSpec(**bad)
        # widths are integers as given, never rounded or read from bools
        for widths in ((96.7, 4.2, 2), (96, 4.0, 2), (96, True, 2),
                       (96, 0, 2), (96, -4, 2)):
            with pytest.raises(ValueError, match="layer widths"):
                NetworkSpec(layer_widths=widths)
        widths = NetworkSpec(layer_widths=(np.int64(6), 4, np.int32(2)))
        assert widths.layer_widths == (6, 4, 2)
        assert all(type(w) is int for w in widths.layer_widths)
        # every layer is normalized with one epsilon: constants, not settings
        assert NetworkSpec().normalize_output is True
        assert NetworkSpec().bn_eps == 1e-5
        for retired in ({"normalize_output": False}, {"bn_eps": 1e-3}):
            with pytest.raises(TypeError):
                NetworkSpec(**retired)


class TestInitParams:
    def test_shapes_and_ranges(self):
        rng = np.random.default_rng(42)
        params = init_params(NetworkSpec(), rng)
        widths = (96, 256, 256, 256, 2)
        for l, layer in enumerate(params.layers):
            assert layer.weight.shape == (widths[l + 1], widths[l])
            assert layer.weight.dtype == np.float32
            bound = 1.0 / np.sqrt(widths[l])
            assert np.abs(layer.weight).max() <= bound
            assert layer.tau.shape == (widths[l + 1],)
            assert layer.tau.min() >= 0.25 and layer.tau.max() <= 0.75
            np.testing.assert_array_equal(layer.norm.gamma, 1.0)
            np.testing.assert_array_equal(layer.norm.beta, 0.0)

    def test_seed_determinism(self):
        spec = NetworkSpec()
        a = init_params(spec, np.random.default_rng(5))
        b = init_params(spec, np.random.default_rng(5))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.tau, lb.tau)

    def test_constant_tau(self):
        params = init_params(SMALL, np.random.default_rng(0),
                             tau_init=(0.5, 0.5))
        for layer in params.layers:
            np.testing.assert_array_equal(layer.tau, 0.5)

    @pytest.mark.parametrize("tau_init", [
        0.5, (0.1, 0.2, 0.3), (0.9, 0.1), (0.5, 1.5), (-0.1, 0.5),
        (0.2, np.nan), "01", (True, True), None])
    def test_tau_init_is_an_ordered_pair(self, tau_init):
        """Both the initializer and a training config refuse anything but
        a ``(low, high)`` pair with ``0 <= low <= high <= 1``, naming the
        field."""
        with pytest.raises(ValueError, match="tau_init"):
            init_params(SMALL, np.random.default_rng(0), tau_init=tau_init)
        with pytest.raises(ValueError, match="tau_init"):
            TrainConfig(tau_init=tau_init)


class TestResetState:
    def test_zeroed_shapes(self):
        state = reset_state(NetworkSpec())
        assert [u.shape for u in state.potentials] == [(256,)] * 3 + [(2,)]
        for u in state.potentials:
            np.testing.assert_array_equal(u, 0.0)

    def test_idempotent(self):
        spec = SMALL
        a, b = reset_state(spec), reset_state(spec)
        for ua, ub in zip(a.potentials, b.potentials):
            np.testing.assert_array_equal(ua, ub)


class TestForwardUnfolded:
    def test_zero_window_gives_zero_predictions(self):
        params = init_params(SMALL, np.random.default_rng(1))
        window = np.zeros((1, SMALL.window_len, SMALL.input_width))
        preds, _ = forward_unfolded(params, SMALL, window, mode=EVAL)
        np.testing.assert_array_equal(preds, 0.0)

    def test_eval_is_deterministic(self):
        params = lively_params(SMALL, seed=2)
        rng = np.random.default_rng(3)
        window = rng.normal(size=(2, SMALL.window_len, SMALL.input_width))
        p1, _ = forward_unfolded(params, SMALL, window, mode=EVAL)
        p2, _ = forward_unfolded(params, SMALL, window, mode=EVAL)
        np.testing.assert_array_equal(p1, p2)

    def test_window_shapes_and_cache(self):
        """A 10-frame window yields 10 prediction rows and 10x3 spike grids:
        the inference pass returns one spike array per hidden layer."""
        spec = NetworkSpec()
        params = lively_params(spec, seed=4, dtype=np.float32)
        rng = np.random.default_rng(5)
        window = rng.normal(size=(1, 10, 96))
        preds, spikes = forward_unfolded(params, spec, window, mode=EVAL)
        assert preds.shape == (1, 10, 2)
        assert len(spikes) == 3
        for s in spikes:
            assert s.shape == (1, 10, 256)

    def test_spikes_are_binary(self):
        """What a hidden layer feeds forward is a binary spike, scaled by
        the inverted dropout mask."""
        params = lively_params(SMALL, seed=6)
        rng = np.random.default_rng(7)
        window = rng.normal(size=(4, SMALL.window_len, SMALL.input_width))
        _, cache = forward_unfolded(params, SMALL, window, mode=TRAIN,
                                    rng=np.random.default_rng(8))
        keep = 1.0 - SMALL.dropout_p
        total = 0.0
        for fed in cache.fed[:-1]:
            assert set(np.unique(fed)) <= {0.0, 1.0 / keep}
            total += fed.sum()
        assert total > 0                      # the test exercised real activity

    def test_train_mode_needs_rng_for_dropout(self):
        params = lively_params(SMALL)
        window = np.zeros((2, SMALL.window_len, SMALL.input_width))
        with pytest.raises(ValueError):
            forward_unfolded(params, SMALL, window, mode=TRAIN)

    def test_dropout_masks_vary_over_time(self):
        params = lively_params(SMALL, seed=9)
        window = np.random.default_rng(10).normal(
            size=(3, SMALL.window_len, SMALL.input_width))
        _, cache = forward_unfolded(params, SMALL, window, mode=TRAIN,
                                    rng=np.random.default_rng(11))
        mask = cache.masks[0]
        assert mask.shape == (3, SMALL.window_len, 12)
        assert any(
            not np.array_equal(mask[:, t], mask[:, t + 1])
            for t in range(SMALL.window_len - 1)
        )
        keep = 1.0 - SMALL.dropout_p
        assert set(np.unique(mask)) <= {0.0, 1.0 / keep}

    def test_train_cache_layout(self):
        """With batch != time every per-step cache field is time-major,
        (T, B, width), but the masks, which are (B, T, width) like the
        windows; they line up with each other, and the gradients have the
        parameters' shapes."""
        spec = NetworkSpec(layer_widths=(6, 12, 9, 2), window_len=5)
        params = lively_params(spec, seed=23)
        window = np.random.default_rng(24).normal(size=(3, 5, 6))
        preds, cache = forward_unfolded(params, spec, window, mode=TRAIN,
                                        rng=np.random.default_rng(25))
        assert preds.shape == (3, 5, 2)
        np.testing.assert_array_equal(cache.inputs,
                                      window.transpose(1, 0, 2))
        np.testing.assert_array_equal(cache.potentials[-1],
                                      preds.transpose(1, 0, 2))
        for l, width in enumerate(spec.layer_widths[1:]):
            assert cache.potentials[l].shape == (5, 3, width)
            assert cache.xhat[l].shape == (5, 3, width)
            if l == spec.n_hidden:
                break
            assert cache.fed[l].shape == (5, 3, width)
            assert cache.masks[l].shape == (3, 5, width)
            np.testing.assert_array_equal(
                cache.fed[l], (cache.potentials[l] >= spec.threshold)
                * cache.masks[l].transpose(1, 0, 2))
        grads = backward(cache, params, spec, np.zeros_like(preds))
        for g, layer in zip(grads.layers, params.layers):
            assert g.weight.shape == layer.weight.shape
            assert g.tau.shape == g.gamma.shape == g.beta.shape \
                == layer.tau.shape

    def test_rejects_nonfinite_and_misshaped_input(self):
        params = init_params(SMALL, np.random.default_rng(12))
        bad = np.zeros((1, SMALL.window_len, SMALL.input_width))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward_unfolded(params, SMALL, bad)
        for shape in ((1, SMALL.window_len, 3),
                      (SMALL.window_len, SMALL.input_width)):
            with pytest.raises(ValueError, match="expected windows shaped"):
                forward_unfolded(params, SMALL, np.zeros(shape))
        with pytest.raises(ValueError, match="unknown mode"):
            forward_unfolded(params, SMALL, np.zeros_like(bad), mode="test")
        # an empty batch or window has no statistics to normalize with
        for shape in ((0, SMALL.window_len, SMALL.input_width),
                      (2, 0, SMALL.input_width)):
            with pytest.raises(ValueError, match="population is empty"):
                forward_unfolded(params, SMALL, np.zeros(shape), mode=TRAIN,
                                 rng=np.random.default_rng(0))


# Streams 200 frames through the default decoder in both dtypes and
# compares every row with the unfolded eval pass's, bit for bit; prints
# the OpenBLAS kernel that loaded (empty if it cannot be read), whether
# every row was equal and how many spikes the pass fired.
KERNEL_JOB = textwrap.dedent("""\
    import ctypes, glob, json, os
    import numpy as np
    from snndecode import (EVAL, NetworkSpec, forward_streaming,
                           forward_unfolded, init_params, reset_state)

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    core = ""
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            core = fn().decode()
    spec = NetworkSpec()
    rng = np.random.default_rng(0)
    equal, spikes = True, 0
    for dtype in (np.float32, np.float64):
        params = init_params(spec, rng, dtype=dtype)
        for layer in params.layers:
            layer.norm.gamma[:] = 2.0
            layer.norm.beta[:] = 0.2
        frames = rng.normal(size=(200, spec.input_width)).astype(dtype)
        rows, fired = forward_unfolded(params, spec, frames[None], mode=EVAL)
        spikes += int(sum(s.sum() for s in fired))
        state = reset_state(spec, dtype)
        for frame, row in zip(frames, rows[0]):
            pred, state = forward_streaming(params, spec, frame, state)
            equal = equal and pred.tobytes() == row.tobytes()
    print(json.dumps({"core": core, "equal": equal, "spikes": spikes}))
""")


class TestStreaming:
    @pytest.mark.parametrize("kernel", ["Haswell", "SkylakeX", "Sandybridge",
                                        "Prescott"])
    def test_matches_unfolded_under_every_blas_kernel(self, kernel):
        """Stream equals batch bit for bit whichever OpenBLAS kernel runs
        the one-row products; a kernel this host cannot load is skipped
        by name."""
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", KERNEL_JOB], env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode < 0:             # e.g. an illegal instruction
            pytest.skip(f"{kernel}: this host cannot run it (signal "
                        f"{-proc.returncode})")
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        if got["core"].lower() != kernel.lower():
            pytest.skip(f"{kernel}: this host loads "
                        f"{got['core'] or 'an unnamed kernel'} instead")
        assert got["spikes"] > 0
        assert got["equal"], f"streamed rows differ under {kernel}"

    def test_matches_unfolded_eval(self):
        """Frame-by-frame streaming reproduces the unfolded pass row for row."""
        spec = NetworkSpec(layer_widths=(8, 16, 16, 16, 2), window_len=12)
        params = lively_params(spec, seed=13, dtype=np.float32)
        rng = np.random.default_rng(14)
        window = rng.normal(size=(spec.window_len, spec.input_width)
                            ).astype(np.float32)
        unfolded, spikes = forward_unfolded(params, spec, window[None],
                                            mode=EVAL)
        assert sum(s.sum() for s in spikes) > 0

        state = reset_state(spec, dtype=np.float32)
        streamed = []
        for frame in window:
            pred, state = forward_streaming(params, spec, frame, state)
            streamed.append(pred)
        streamed = np.array(streamed)
        np.testing.assert_allclose(streamed, unfolded[0], atol=1e-6)
        np.testing.assert_array_equal(streamed, unfolded[0])

    def test_zero_frame_zero_state(self):
        params = init_params(SMALL, np.random.default_rng(15))
        pred, _ = forward_streaming(params, SMALL,
                                    np.zeros(SMALL.input_width),
                                    reset_state(SMALL))
        np.testing.assert_array_equal(pred, 0.0)

    def test_state_argument_not_mutated(self):
        params = lively_params(SMALL, seed=16)
        state = reset_state(SMALL, dtype=np.float64)
        state.potentials[0][:] = 0.25
        frame = np.random.default_rng(17).normal(size=SMALL.input_width)
        before = [u.copy() for u in state.potentials]
        forward_streaming(params, SMALL, frame, state)
        for u, b in zip(state.potentials, before):
            np.testing.assert_array_equal(u, b)

    def test_fresh_state_forgets_history(self):
        params = lively_params(SMALL, seed=18)
        rng = np.random.default_rng(19)
        frames = rng.normal(size=(6, SMALL.input_width))
        state = reset_state(SMALL, dtype=np.float64)
        for frame in frames:
            _, state = forward_streaming(params, SMALL, frame, state)
        probe = rng.normal(size=SMALL.input_width)
        pred_after, _ = forward_streaming(params, SMALL, probe,
                                          reset_state(SMALL, np.float64))
        pred_fresh, _ = forward_streaming(params, SMALL, probe,
                                          reset_state(SMALL, np.float64))
        np.testing.assert_array_equal(pred_after, pred_fresh)

    def test_shape_errors(self):
        params = init_params(SMALL, np.random.default_rng(20))
        with pytest.raises(ValueError):
            forward_streaming(params, SMALL, np.zeros(5), reset_state(SMALL))
        short = NetworkState(reset_state(SMALL).potentials[:-1])
        with pytest.raises(ValueError, match="state has 2 layers"):
            forward_streaming(params, SMALL, np.zeros(SMALL.input_width),
                              short)

    @pytest.mark.parametrize("reset_mode", RESET_MODES)
    def test_state_rebuilt_from_potentials_continues(self, reset_mode):
        """The potentials are the whole streaming state: a state rebuilt
        mid-stream from copies of them continues bit for bit like the
        original, and both match the unfolded pass."""
        spec = NetworkSpec(layer_widths=(8, 16, 16, 16, 2), window_len=12,
                           reset_mode=reset_mode)
        params = lively_params(spec, seed=23, dtype=np.float32)
        window = np.random.default_rng(24).normal(
            size=(spec.window_len, spec.input_width)).astype(np.float32)
        unfolded, spikes = forward_unfolded(params, spec, window[None],
                                            mode=EVAL)
        assert sum(s.sum() for s in spikes) > 0
        state = reset_state(spec)
        for frame in window[:5]:
            _, state = forward_streaming(params, spec, frame, state)
        rebuilt = NetworkState([u.copy() for u in state.potentials])
        for t in range(5, spec.window_len):
            pred, state = forward_streaming(params, spec, window[t], state)
            again, rebuilt = forward_streaming(params, spec, window[t],
                                               rebuilt)
            assert (again.tobytes() == pred.tobytes()
                    == unfolded[0, t].tobytes())
        for u, v in zip(state.potentials, rebuilt.potentials):
            assert u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_frame(self, bad):
        """A non-finite frame is refused and leaves the state as it was:
        the clean frames that follow decode as in the unfolded pass."""
        params = lively_params(SMALL, seed=21)
        rng = np.random.default_rng(22)
        frames = rng.normal(size=(8, SMALL.input_width))
        state = reset_state(SMALL, dtype=np.float64)
        for frame in frames[:5]:
            _, state = forward_streaming(params, SMALL, frame, state)
        before = [u.copy() for u in state.potentials]
        poisoned = frames[5].copy()
        poisoned[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            forward_streaming(params, SMALL, poisoned, state)
        for u, b in zip(state.potentials, before):
            np.testing.assert_array_equal(u, b)
        for frame in frames[5:]:
            pred, state = forward_streaming(params, SMALL, frame, state)
        np.testing.assert_array_equal(pred,
                                      decode_sequence(params, SMALL, frames)[-1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layer", [0, 1, 2])    # input, middle, readout
    def test_overflow_raises_and_leaves_state(self, layer):
        """Finite weights so large that the layer's first product overflows
        end in NumericError naming that layer, streamed or decoded whole;
        the caller's state is left as it was."""
        params = lively_params(SMALL, seed=26, dtype=np.float32)
        for below in params.layers[:layer]:
            below.norm.beta[:] = 10.0       # every neuron below fires
        params.layers[layer].weight[:] = 3e38
        frames = np.random.default_rng(27).normal(
            size=(4, SMALL.input_width)).astype(np.float32)
        state = reset_state(SMALL)
        for u in state.potentials:
            u[:] = 0.25
        with pytest.raises(NumericError,
                           match=f"non-finite membrane potential in layer "
                                 f"{layer}$"):
            forward_streaming(params, SMALL, frames[0], state)
        for u in state.potentials:
            np.testing.assert_array_equal(u, 0.25)
        with pytest.raises(NumericError,
                           match=f"non-finite membrane potential in layer "
                                 f"{layer}$"):
            decode_sequence(params, SMALL, frames)

    def test_prediction_is_its_own_array(self):
        """Writing into a returned prediction changes neither the returned
        state nor the next frame's row."""
        params = lively_params(SMALL, seed=28)
        frames = np.random.default_rng(29).normal(
            size=(2, SMALL.input_width))
        pred, state = forward_streaming(params, SMALL, frames[0],
                                        reset_state(SMALL, np.float64))
        kept = [u.copy() for u in state.potentials]
        pred[:] = 1e3
        for u, k in zip(state.potentials, kept):
            assert u.tobytes() == k.tobytes()
        row, _ = forward_streaming(params, SMALL, frames[1], state)
        assert row.tobytes() == decode_sequence(params, SMALL,
                                                frames)[1].tobytes()

    def test_kernels_called_through_module_globals(self, monkeypatch):
        """Each streamed frame calls ``network.lif_step`` once per hidden
        layer and ``network.output_step`` once: patching the module's
        names, as the benchmark's tracer does, sees every call."""
        calls = []
        for name in ("lif_step", "output_step"):
            real = getattr(network, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(network, name, counted)
        spec = NetworkSpec(layer_widths=(8, 16, 16, 16, 2))
        params = lively_params(spec, seed=30)
        state = reset_state(spec, np.float64)
        for frame in np.random.default_rng(31).normal(size=(3, 8)):
            _, state = forward_streaming(params, spec, frame, state)
        assert calls == (["lif_step"] * spec.n_hidden + ["output_step"]) * 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
           frames=st.integers(1, 12),
           reset_mode=st.sampled_from(RESET_MODES),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_unfolded_eval_property(self, widths, frames, reset_mode,
                                            dtype, seed):
        """Streaming equals the unfolded inference pass bit for bit on any
        small topology, reset mode and dtype, with the pass's default
        pipeline chunk and with a chunk of 2, which skews these windows."""
        spec = NetworkSpec(layer_widths=widths, window_len=frames,
                           reset_mode=reset_mode)
        params, rng = varied_params(spec, seed, dtype)
        window = rng.normal(size=(frames, spec.input_width)).astype(dtype)

        state = reset_state(spec, dtype=dtype)
        streamed = np.empty((frames, spec.output_width), dtype=dtype)
        for t, frame in enumerate(window):
            streamed[t], state = forward_streaming(params, spec, frame, state)
        for chunk in (network.EVAL_CHUNK, 2):
            with mock.patch.object(network, "EVAL_CHUNK", chunk):
                unfolded, _ = forward_unfolded(params, spec, window[None],
                                               mode=EVAL)
            assert streamed.tobytes() == unfolded[0].tobytes()


def layer_major_reference(params, spec, windows):
    """The inference pass run layer after layer over all frames, from
    the :func:`~snndecode.network._fold` operands, one stacked product per
    layer and :func:`~snndecode.network._recurrence`: ``(predictions,
    spikes)`` laid out as ``forward_unfolded`` returns them."""
    act = windows.transpose(1, 0, 2)
    spikes = []
    for l, (weight_t, bias, tau) in enumerate(FOLD(params, spec)):
        pot = act @ weight_t
        pot += bias
        zero = np.zeros(pot.shape[1:], dtype=pot.dtype)
        if l < spec.n_hidden:
            network._recurrence(pot, tau, zero, spec)
            act = (pot >= spec.threshold).astype(pot.dtype)
            spikes.append(act.transpose(1, 0, 2))
        else:
            network._recurrence(pot, tau, zero)
    return pot.transpose(1, 0, 2), spikes


class TestEvalPipeline:
    """The inference pass's skewed pipeline over chunks of frames gives
    the layer-major pass's bits, whatever the chunk."""

    @pytest.mark.parametrize("reset_mode", RESET_MODES)
    @pytest.mark.parametrize("widths", [(5, 3), (5, 7, 3), (5, 7, 4, 6, 3)],
                             ids=["0-hidden", "1-hidden", "3-hidden"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, network.EVAL_CHUNK])
    def test_matches_layer_major(self, chunk, widths, reset_mode,
                                 monkeypatch):
        monkeypatch.setattr(network, "EVAL_CHUNK", chunk)
        spec = NetworkSpec(layer_widths=widths, reset_mode=reset_mode)
        fired = 0
        for dtype in (np.float32, np.float64):
            params, rng = varied_params(spec, chunk, dtype)
            for T in sorted({0, 1, chunk - 1, chunk, chunk + 1,
                             2 * chunk + 3}):
                for B in (1, 3):
                    windows = rng.normal(
                        size=(B, T, spec.input_width)).astype(dtype)
                    preds, spikes = forward_unfolded(params, spec, windows,
                                                     mode=EVAL)
                    want, want_spikes = layer_major_reference(params, spec,
                                                              windows)
                    assert preds.shape == want.shape
                    assert preds.tobytes() == want.tobytes()
                    assert len(spikes) == len(want_spikes) == spec.n_hidden
                    for got, ref in zip(spikes, want_spikes):
                        assert got.shape == ref.shape
                        assert got.tobytes() == ref.tobytes()
                        fired += int(got.sum())
        assert fired > 0 or spec.n_hidden == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layer", [0, 1, 2, 3])
    def test_overflow_on_a_chunk_boundary_names_its_layer(self, layer,
                                                          monkeypatch):
        """Silent until the first frame of the second chunk, where every
        layer below ``layer`` fires and ``layer``'s product overflows:
        the pass names that layer, whichever stage it is in."""
        chunk = 4
        monkeypatch.setattr(network, "EVAL_CHUNK", chunk)
        spec = NetworkSpec(layer_widths=(6, 8, 8, 8, 2))
        params = init_params(spec, np.random.default_rng(40),
                             dtype=np.float32)
        for below in params.layers[:layer]:
            below.weight[:] = 1.0
        params.layers[layer].weight[:] = 3e38
        frames = np.zeros((3 * chunk, spec.input_width), np.float32)
        frames[chunk:] = 1.0
        decode_sequence(params, spec, frames[:chunk])     # still finite
        with pytest.raises(NumericError,
                           match=f"non-finite membrane potential in layer "
                                 f"{layer}$"):
            decode_sequence(params, spec, frames)

    def test_one_lif_step_per_frame_for_every_hidden_layer(self,
                                                            monkeypatch):
        """A pipeline stage advances all its layers with one
        ``lif_step`` per frame: a layer-major pass would call it
        ``n_hidden * T`` times."""
        calls = []
        real = network.lif_step

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "lif_step", counted)
        spec = NetworkSpec(layer_widths=(8, 16, 16, 16, 2))
        chunk = network.EVAL_CHUNK
        T = 4 * chunk
        frames = np.random.default_rng(41).normal(size=(T, 8))
        decode_sequence(lively_params(spec, seed=41), spec, frames)
        assert len(calls) == T + (spec.n_hidden - 1) * chunk < 2 * T


class TestFoldedKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
           frames=st.integers(1, 12),
           reset_mode=st.sampled_from(RESET_MODES),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_unfolded_normalization_property(self, widths, frames,
                                                     reset_mode, dtype, seed):
        """The folded kernel decodes the rows of matmul, normalize on the
        running statistics, then the recurrence, within the dtype's
        rounding."""
        spec = NetworkSpec(layer_widths=widths, window_len=frames,
                           reset_mode=reset_mode)
        assert_kernel_matches_reference(spec, seed, dtype)

    @staticmethod
    def beta_scaled_by_threshold(params, spec):
        return [(w, b - (1.0 - spec.threshold) * layer.norm.beta, tau)
                for (w, b, tau), layer in zip(FOLD(params, spec),
                                              params.layers)]

    @staticmethod
    def sigma_without_eps(params, spec):
        return FOLD(params, SimpleNamespace(threshold=spec.threshold,
                                            bn_eps=0.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mutant", ["beta_scaled_by_threshold",
                                        "sigma_without_eps"])
    def test_property_catches_wrong_folds(self, mutant, dtype, monkeypatch):
        """The property's tolerance is tight enough to fail a fold that
        scales beta by the threshold or leaves epsilon out of sigma."""
        monkeypatch.setattr(network, "_fold", getattr(self, mutant))
        spec = NetworkSpec(layer_widths=(5, 6, 6, 2), window_len=8)
        with pytest.raises(AssertionError):
            assert_kernel_matches_reference(spec, 3, dtype)


class TestFoldedCache:
    @staticmethod
    def decoded(spec=SMALL, seed=30, how="decode"):
        params = lively_params(spec, seed=seed)
        frames = np.random.default_rng(seed + 1).normal(
            size=(6, spec.input_width))
        if how == "decode":
            rows = decode_sequence(params, spec, frames)
        else:
            state = reset_state(spec, dtype=params.dtype)
            rows = np.empty((len(frames), spec.output_width))
            for t, frame in enumerate(frames):
                rows[t], state = forward_streaming(params, spec, frame, state)
        return params, frames, rows

    @pytest.mark.parametrize("how", ["decode", "stream"])
    @pytest.mark.parametrize("name", LAYER_ARRAYS)
    def test_in_place_write_raises(self, name, how):
        """Inference freezes every source array: writing one in place
        raises instead of decoding with the folded stale copy."""
        params, _, _ = self.decoded(how=how)
        for layer in params.layers:
            arr = layer.arrays()[name]
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.5

    def test_rebound_array_is_used(self):
        params, frames, before = self.decoded()
        fresh = lively_params(SMALL, seed=30)
        for p in (params, fresh):
            p.layers[1].weight = fresh.layers[1].weight * 2.0
            p.layers[0].norm.beta = np.full_like(fresh.layers[0].norm.beta,
                                                 -0.1)
        after = decode_sequence(params, SMALL, frames)
        assert not np.array_equal(after, before)
        assert after.tobytes() == decode_sequence(fresh, SMALL,
                                                  frames).tobytes()

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["deepcopy", "pickle"])
    def test_copy_written_in_place_decodes_new_values(self, duplicate):
        """A copy of decoded parameters is writable and carries no folded
        form, so what is written into it is what it decodes."""
        params, frames, before = self.decoded()
        twin = duplicate(params)
        assert twin.folded is None
        twin.layers[0].weight *= 2.0
        twin.layers[1].norm.run_var[:] = 4.0
        after = decode_sequence(twin, SMALL, frames)
        fresh = lively_params(SMALL, seed=30)
        fresh.layers[0].weight *= 2.0
        fresh.layers[1].norm.run_var[:] = 4.0
        assert not np.array_equal(after, before)
        assert after.tobytes() == decode_sequence(fresh, SMALL,
                                                  frames).tobytes()
        # the original still decodes its own values
        np.testing.assert_array_equal(
            decode_sequence(params, SMALL, frames), before)

    def test_folded_once_per_parameter_set(self, monkeypatch):
        """Frames after the first reuse the folded form; another threshold
        folds again."""
        calls = []
        real = network._fold
        monkeypatch.setattr(network, "_fold",
                            lambda *a: calls.append(1) or real(*a))
        params, frames, _ = self.decoded(how="stream")
        decode_sequence(params, SMALL, frames)
        assert len(calls) == 1
        other = NetworkSpec(layer_widths=SMALL.layer_widths, threshold=0.5)
        decode_sequence(params, other, frames)
        assert len(calls) == 2

    def test_topology_mismatch_still_raises(self):
        params, frames, _ = self.decoded()
        other = NetworkSpec(layer_widths=(6, 12, 2))
        with pytest.raises(ValueError, match="topology wants 2"):
            decode_sequence(params, other, frames)

    @pytest.mark.parametrize("name", LAYER_ARRAYS)
    def test_misshaped_array_refused(self, name):
        """Every array is checked when the folded form is built: a (1,)
        per-neuron array would broadcast through the fold silently."""
        params = lively_params(SMALL)
        layer = params.layers[1]
        holder = layer if hasattr(layer, name) else layer.norm
        setattr(holder, name, getattr(holder, name)[:1])
        frame = np.zeros(SMALL.input_width)
        with pytest.raises(ValueError, match=rf"layer1\.{name} has shape"):
            forward_streaming(params, SMALL, frame, reset_state(SMALL))
        with pytest.raises(ValueError, match=rf"layer1\.{name} has shape"):
            decode_sequence(params, SMALL, frame[None])


def _retyped(params, l, name, dtype):
    """Rebind array ``name`` of layer ``l`` as a copy of ``dtype``."""
    layer = params.layers[l]
    holder = layer if hasattr(layer, name) else layer.norm
    setattr(holder, name, getattr(holder, name).astype(dtype))


def _poked(l, name, value):
    """An edit setting the first element of one array to ``value``."""
    def edit(params):
        params.layers[l].arrays()[name].flat[0] = value
    return edit


class TestOneRule:
    """A hand-built parameter set meets the same rule a checkpoint does, at
    its first inference, before any of its arrays are frozen."""

    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda p: _retyped(p, 1, "weight", np.float32),
                     r"layer1\.weight is float32", id="mixed-dtypes"),
        pytest.param(lambda p: [_retyped(p, l, name, np.float16)
                                for l in range(3) for name in LAYER_ARRAYS],
                     r"layer0\.weight is float16", id="float16"),
        pytest.param(_poked(1, "weight", np.nan), r"layer1\.weight",
                     id="nan-weight"),
        pytest.param(_poked(2, "tau", 1.5), r"layer2\.tau", id="tau-1.5"),
        pytest.param(_poked(0, "run_var", -1.0), r"layer0\.run_var",
                     id="negative-run_var"),
    ])
    @pytest.mark.parametrize("how", ["decode", "stream"])
    def test_unusable_set_refused_and_left_writable(self, edit, named, how):
        params = lively_params(SMALL, seed=40)
        edit(params)
        frames = np.zeros((3, SMALL.input_width))
        with pytest.raises(ValueError, match=named):
            if how == "decode":
                decode_sequence(params, SMALL, frames)
            else:
                forward_streaming(params, SMALL, frames[0],
                                  reset_state(SMALL, dtype=params.dtype))
        assert params.folded is None
        for layer in params.layers:
            for arr in layer.arrays().values():
                assert arr.flags.writeable

    @pytest.mark.parametrize("call, named", [
        pytest.param(lambda p, nan: forward_streaming(
            p, SMALL, nan[1], reset_state(SMALL, dtype=p.dtype)),
            "non-finite", id="nan-frame"),
        pytest.param(lambda p, nan: forward_streaming(
            p, SMALL, np.zeros(SMALL.input_width),
            reset_state(NetworkSpec(layer_widths=(6, 12, 2)), p.dtype)),
            "state has 2 layers", id="state-of-another-topology"),
        pytest.param(lambda p, nan: forward_unfolded(p, SMALL, nan[None]),
                     "non-finite", id="nan-window"),
        pytest.param(lambda p, nan: decode_sequence(p, SMALL,
                                                    np.zeros((4, 5))),
                     r"\(batch, time, 6\)", id="window-of-another-width"),
        pytest.param(lambda p, nan: count_spikes(
            p, SMALL, np.zeros((0, SMALL.input_width))),
            "at least one frame", id="empty-recording"),
    ])
    def test_refused_input_leaves_the_set_writable(self, call, named):
        """An inference that refuses its input refuses it before it folds
        the set, so nothing decoded and the set stays trainable."""
        params = lively_params(SMALL, seed=42)
        nan = np.zeros((3, SMALL.input_width))
        nan[1, 2] = np.nan
        with pytest.raises(ValueError, match=named):
            call(params, nan)
        assert params.folded is None
        for layer in params.layers:
            for arr in layer.arrays().values():
                assert arr.flags.writeable

    @pytest.mark.parametrize("how", ["decode", "stream"])
    def test_set_without_layers_refused_by_the_rule(self, how):
        """A set too malformed to have a dtype gets the rule's own
        ``ValueError`` before its inputs are checked."""
        params = network.NetworkParams([])
        frames = np.zeros((3, SMALL.input_width))
        with pytest.raises(ValueError, match="parameter set has 0 layers"):
            if how == "decode":
                decode_sequence(params, SMALL, frames)
            else:
                forward_streaming(params, SMALL, frames[0],
                                  reset_state(SMALL))

    @pytest.mark.parametrize("decoder, state", [
        (np.float32, np.float64), (np.float64, np.float32)])
    def test_state_of_another_dtype_refused(self, decoder, state):
        """A state in another dtype would promote the recurrence away from
        the batch rows: it is refused, naming the layer."""
        params = lively_params(SMALL, seed=41, dtype=decoder)
        frame = np.zeros(SMALL.input_width)
        good = reset_state(SMALL, dtype=decoder)
        forward_streaming(params, SMALL, frame, good)
        bad = NetworkState(list(good.potentials))
        bad.potentials[1] = bad.potentials[1].astype(state)
        with pytest.raises(ValueError, match="state dtype mismatch in "
                                             "layer 1"):
            forward_streaming(params, SMALL, frame, bad)


class TestBlockedGemm:
    @staticmethod
    def operands(m, k, n, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        return a, b

    @pytest.mark.parametrize("k", [1, 96, GEMM_BLOCK - 1, GEMM_BLOCK])
    def test_single_block_is_plain_product(self, k):
        a, b = self.operands(70, k, 33)
        np.testing.assert_array_equal(_blocked_gemm(a, b), a @ b)
        # transposed views, as the weight gradient passes them
        np.testing.assert_array_equal(_blocked_gemm(b.T, a.T), b.T @ a.T)

    @pytest.mark.parametrize("k", [
        GEMM_BLOCK + 1, 2 * GEMM_BLOCK - 1, 2 * GEMM_BLOCK,
        2 * GEMM_BLOCK + 1, 3 * GEMM_BLOCK - 1, 3 * GEMM_BLOCK,
        3 * GEMM_BLOCK + 1,
    ])
    def test_multi_block_matches_float64(self, k):
        a, b = self.operands(40, k, 24, seed=k)
        got = _blocked_gemm(a, b)
        assert got.dtype == np.float32 and got.shape == (40, 24)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        # worst-case float32 summation bound over k terms
        bound = k * np.finfo(np.float32).eps * (np.abs(a64) @ np.abs(b64))
        assert (np.abs(got - a64 @ b64) <= bound).all()
        got_t = _blocked_gemm(b.T, a.T)
        assert (np.abs(got_t - (a64 @ b64).T) <= bound.T).all()
