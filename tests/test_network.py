"""Tests for the assembled decoder network and its two forward passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode import (
    EVAL,
    RESET_MODES,
    TRAIN,
    NetworkSpec,
    forward_streaming,
    forward_unfolded,
    init_params,
    reset_state,
)
from snndecode.network import GEMM_BLOCK, _blocked_gemm

SMALL = NetworkSpec(layer_widths=(6, 12, 12, 2), window_len=5)


def lively_params(spec, seed=0, dtype=np.float64):
    """Parameters tweaked so random inputs actually elicit spikes."""
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng, dtype=dtype)
    for layer in params.layers:
        layer.norm.gamma[:] = 2.0
        layer.norm.beta[:] = 0.2
    return params


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
            NetworkSpec(threshold=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(reset_mode="bounce")


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
        params = init_params(SMALL, np.random.default_rng(0), tau_init=0.5)
        for layer in params.layers:
            np.testing.assert_array_equal(layer.tau, 0.5)


class TestResetState:
    def test_zeroed_shapes(self):
        state = reset_state(NetworkSpec())
        assert len(state.hidden) == 3
        for h in state.hidden:
            assert h.potential.shape == (256,)
            np.testing.assert_array_equal(h.potential, 0.0)
            np.testing.assert_array_equal(h.last_spikes, 0.0)
        assert state.output_potential.shape == (2,)
        np.testing.assert_array_equal(state.output_potential, 0.0)

    def test_idempotent(self):
        spec = SMALL
        a, b = reset_state(spec), reset_state(spec)
        for ha, hb in zip(a.hidden, b.hidden):
            np.testing.assert_array_equal(ha.potential, hb.potential)
        np.testing.assert_array_equal(a.output_potential, b.output_potential)


class TestForwardUnfolded:
    def test_zero_window_gives_zero_predictions(self):
        params = init_params(SMALL, np.random.default_rng(1))
        window = np.zeros((SMALL.window_len, SMALL.input_width))
        preds, _ = forward_unfolded(params, SMALL, window, mode=EVAL)
        np.testing.assert_array_equal(preds, 0.0)

    def test_eval_is_deterministic(self):
        params = lively_params(SMALL, seed=2)
        rng = np.random.default_rng(3)
        window = rng.normal(size=(SMALL.window_len, SMALL.input_width))
        p1, _ = forward_unfolded(params, SMALL, window, mode=EVAL)
        p2, _ = forward_unfolded(params, SMALL, window, mode=EVAL)
        np.testing.assert_array_equal(p1, p2)

    def test_window_shapes_and_cache(self):
        """A 10-frame window yields 10 prediction rows and 10x3 spike grids."""
        spec = NetworkSpec()
        params = lively_params(spec, seed=4, dtype=np.float32)
        rng = np.random.default_rng(5)
        window = rng.normal(size=(10, 96))
        preds, cache = forward_unfolded(params, spec, window, mode=EVAL)
        assert preds.shape == (10, 2)
        hidden_spikes = cache.spikes[:-1]
        assert len(hidden_spikes) == 3
        for s in hidden_spikes:
            assert s.shape == (1, 10, 256)
        assert cache.spikes[-1] is None

    def test_spikes_are_binary(self):
        params = lively_params(SMALL, seed=6)
        rng = np.random.default_rng(7)
        window = rng.normal(size=(4, SMALL.window_len, SMALL.input_width))
        _, cache = forward_unfolded(params, SMALL, window, mode=TRAIN,
                                    rng=np.random.default_rng(8))
        total = 0.0
        for s in cache.spikes[:-1]:
            assert set(np.unique(s)) <= {0.0, 1.0}
            total += s.sum()
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

    def test_rejects_nonfinite_and_misshaped_input(self):
        params = init_params(SMALL, np.random.default_rng(12))
        bad = np.zeros((SMALL.window_len, SMALL.input_width))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            forward_unfolded(params, SMALL, bad)
        with pytest.raises(ValueError):
            forward_unfolded(params, SMALL, np.zeros((SMALL.window_len, 3)))
        with pytest.raises(ValueError, match="unknown mode"):
            forward_unfolded(params, SMALL, np.zeros_like(bad), mode="test")


class TestStreaming:
    def test_matches_unfolded_eval(self):
        """Frame-by-frame streaming reproduces the unfolded pass row for row."""
        spec = NetworkSpec(layer_widths=(8, 16, 16, 16, 2), window_len=12)
        params = lively_params(spec, seed=13, dtype=np.float32)
        rng = np.random.default_rng(14)
        window = rng.normal(size=(spec.window_len, spec.input_width)
                            ).astype(np.float32)
        unfolded, cache = forward_unfolded(params, spec, window, mode=EVAL)
        assert sum(s.sum() for s in cache.spikes[:-1]) > 0

        state = reset_state(spec, dtype=np.float32)
        streamed = []
        for frame in window:
            pred, state = forward_streaming(params, spec, frame, state)
            streamed.append(pred)
        streamed = np.array(streamed)
        np.testing.assert_allclose(streamed, unfolded, atol=1e-6)
        np.testing.assert_array_equal(streamed, unfolded)

    def test_zero_frame_zero_state(self):
        params = init_params(SMALL, np.random.default_rng(15))
        pred, _ = forward_streaming(params, SMALL,
                                    np.zeros(SMALL.input_width),
                                    reset_state(SMALL))
        np.testing.assert_array_equal(pred, 0.0)

    def test_state_argument_not_mutated(self):
        params = lively_params(SMALL, seed=16)
        state = reset_state(SMALL, dtype=np.float64)
        state.hidden[0].potential[:] = 0.25
        frame = np.random.default_rng(17).normal(size=SMALL.input_width)
        before = [h.potential.copy() for h in state.hidden]
        forward_streaming(params, SMALL, frame, state)
        for h, b in zip(state.hidden, before):
            np.testing.assert_array_equal(h.potential, b)

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
        before = [h.potential.copy() for h in state.hidden]
        poisoned = frames[5].copy()
        poisoned[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            forward_streaming(params, SMALL, poisoned, state)
        for h, b in zip(state.hidden, before):
            np.testing.assert_array_equal(h.potential, b)
        for frame in frames[5:]:
            pred, state = forward_streaming(params, SMALL, frame, state)
        unfolded, _ = forward_unfolded(params, SMALL, frames, mode=EVAL)
        np.testing.assert_array_equal(pred, unfolded[-1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
           frames=st.integers(1, 12),
           reset_mode=st.sampled_from(RESET_MODES),
           normalize_output=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_unfolded_eval_property(self, widths, frames, reset_mode,
                                            normalize_output, dtype, seed):
        """Streaming equals the unfolded inference pass bit for bit on any
        small topology, reset mode, readout normalization and dtype."""
        spec = NetworkSpec(layer_widths=widths, window_len=frames,
                           reset_mode=reset_mode,
                           normalize_output=normalize_output)
        rng = np.random.default_rng(seed)
        params = init_params(spec, rng, dtype=dtype)
        for layer in params.layers:
            n = layer.norm
            n.gamma[:] = rng.uniform(0.5, 3.0, n.gamma.shape)
            n.beta[:] = rng.uniform(-0.2, 0.4, n.beta.shape)
            n.run_mean[:] = rng.normal(0.0, 0.5, n.run_mean.shape)
            n.run_var[:] = rng.uniform(0.2, 2.0, n.run_var.shape)
        window = rng.normal(size=(frames, spec.input_width)).astype(dtype)

        unfolded, _ = forward_unfolded(params, spec, window, mode=EVAL)
        state = reset_state(spec, dtype=dtype)
        streamed = np.empty_like(unfolded)
        for t, frame in enumerate(window):
            streamed[t], state = forward_streaming(params, spec, frame, state)
        assert streamed.tobytes() == unfolded.tobytes()


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
