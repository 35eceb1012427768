"""Tests for the AdamW step and its decay-factor clamp."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from snndecode import TRAIN, NetworkSpec, forward_unfolded, init_params
from snndecode.backprop import Gradients, LayerGrads
from snndecode.errors import NumericError
from snndecode.optim import adamw_init, adamw_step
from snndecode.train import _advance_running_stats, decode_sequence

SPEC = NetworkSpec(layer_widths=(3, 5, 2), window_len=4)


def make_params(seed=0):
    return init_params(SPEC, np.random.default_rng(seed), dtype=np.float64)


def zero_grads(params):
    return Gradients([
        LayerGrads(weight=np.zeros_like(l.weight),
                   tau=np.zeros_like(l.tau),
                   gamma=np.zeros_like(l.norm.gamma),
                   beta=np.zeros_like(l.norm.beta))
        for l in params.layers
    ])


class TestClampTau:
    def test_clamps_both_ends(self):
        """The step clips decay factors into [0, 1] from either side."""
        params = make_params()
        params.layers[0].tau[:3] = [1.3, -0.1, 0.5]
        adamw_step(params, zero_grads(params), adamw_init(params),
                   learning_rate=2e-3, weight_decay=0.0)
        np.testing.assert_allclose(params.layers[0].tau[:3],
                                   [1.0, 0.0, 0.5])


class TestAdamWStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = make_params()
        before = copy.deepcopy(params)
        state = adamw_init(params)
        adamw_step(params, zero_grads(params), state,
                   learning_rate=2e-3, weight_decay=0.0)
        for old, new in zip(before.layers, params.layers):
            np.testing.assert_array_equal(old.weight, new.weight)
            np.testing.assert_array_equal(old.tau, new.tau)
            np.testing.assert_array_equal(old.norm.gamma, new.norm.gamma)
        assert state.step == 1

    def test_first_step_is_sign_like(self):
        """From zeroed moments the bias correction cancels exactly and the
        update is -lr * g / (|g| + eps)."""
        params = make_params()
        grads = zero_grads(params)
        g = np.random.default_rng(1).normal(size=params.layers[0].weight.shape)
        grads.layers[0].weight = g
        lr = 2e-3
        expect = params.layers[0].weight - lr * g / (np.abs(g) + 1e-8)
        adamw_step(params, grads, adamw_init(params),
                   learning_rate=lr, weight_decay=0.0)
        np.testing.assert_allclose(params.layers[0].weight, expect,
                                   rtol=1e-12)

    def test_decay_shrinks_weights_only(self):
        params = make_params()
        before = copy.deepcopy(params)
        lr, wd = 2e-3, 1e-2
        adamw_step(params, zero_grads(params), adamw_init(params),
                   learning_rate=lr, weight_decay=wd)
        for old, new in zip(before.layers, params.layers):
            np.testing.assert_allclose(new.weight, old.weight * (1 - lr * wd),
                                       rtol=1e-12)
            np.testing.assert_array_equal(new.tau, old.tau)
            np.testing.assert_array_equal(new.norm.gamma, old.norm.gamma)
            np.testing.assert_array_equal(new.norm.beta, old.norm.beta)

    def test_tau_clamped_after_step(self):
        params = make_params()
        params.layers[0].tau[:] = 0.999
        grads = zero_grads(params)
        grads.layers[0].tau = -np.ones_like(params.layers[0].tau)
        adamw_step(params, grads, adamw_init(params),
                   learning_rate=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params.layers[0].tau, 1.0)

    def test_overflowing_step_raises(self):
        """A finite gradient near the largest float, scaled by the learning
        rate, overflows the update; the step reports it instead of
        returning NaN decay factors."""
        params = make_params()
        grads = zero_grads(params)
        grads.layers[1].tau[:] = np.finfo(np.float64).max / 2
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="tau in layer 1"):
                adamw_step(params, grads, adamw_init(params),
                           learning_rate=4.0, weight_decay=0.0)

    def test_updates_in_place(self):
        """The step writes into the parameter and moment arrays it was
        given and advances the step; the gradients are left untouched."""
        params = make_params()
        weight = params.layers[0].weight
        before = weight.copy()
        grads = zero_grads(params)
        grads.layers[0].weight += 1.0
        grads_before = copy.deepcopy(grads)
        state = adamw_init(params)
        m, v = state.m[0]["weight"], state.v[0]["weight"]
        assert adamw_step(params, grads, state, learning_rate=1e-2,
                          weight_decay=1e-2) is None
        assert params.layers[0].weight is weight
        assert (weight < before).all()
        assert state.m[0]["weight"] is m and state.v[0]["weight"] is v
        np.testing.assert_allclose(m, 0.1, rtol=1e-12)
        np.testing.assert_allclose(v, 1e-3, rtol=1e-12)
        assert state.step == 1
        for got, want in zip(grads.layers, grads_before.layers):
            for name, arr in vars(want).items():
                np.testing.assert_array_equal(getattr(got, name), arr)

    def test_decoded_set_refused_before_any_write(self):
        """A decoded set is read-only: the step and the running-statistic
        update refuse it before they write a parameter, a moment or the
        step count, and a deep copy of it trains."""
        params = make_params()
        decode_sequence(params, SPEC, np.ones((6, 3)))
        _, cache = forward_unfolded(params, SPEC, np.ones((2, 4, 3)),
                                    mode=TRAIN, rng=np.random.default_rng(1))
        grads = zero_grads(params)
        for g in grads.layers:
            g.weight += 1.0
        state = adamw_init(params)
        before, state_before = copy.deepcopy(params), copy.deepcopy(state)
        with pytest.raises(ValueError, match=r"copied \(copy.deepcopy\)"):
            adamw_step(params, grads, state, learning_rate=1e-2,
                       weight_decay=0.0)
        with pytest.raises(ValueError, match=r"copied \(copy.deepcopy\)"):
            _advance_running_stats(params, cache)
        assert state.step == 0
        for got, want in zip(params.layers, before.layers):
            for name, arr in want.arrays().items():
                np.testing.assert_array_equal(got.arrays()[name], arr)
        for got, want in zip(state.m + state.v,
                             state_before.m + state_before.v):
            for name, arr in want.items():
                np.testing.assert_array_equal(got[name], arr)
        copied = copy.deepcopy(params)
        adamw_step(copied, grads, state, learning_rate=1e-2,
                   weight_decay=0.0)
        _advance_running_stats(copied, cache)
        assert state.step == 1

    def test_second_moment_nonnegative(self):
        params = make_params()
        state = adamw_init(params)
        rng = np.random.default_rng(2)
        for _ in range(3):
            grads = zero_grads(params)
            for lg in grads.layers:
                lg.weight = rng.normal(size=lg.weight.shape)
                lg.tau = rng.normal(size=lg.tau.shape)
            adamw_step(params, grads, state, learning_rate=1e-3,
                       weight_decay=0.0)
        for layer_v in state.v:
            for arr in layer_v.values():
                assert (arr >= 0).all()
        assert state.step == 3
        for layer in params.layers:
            assert layer.tau.min() >= 0.0 and layer.tau.max() <= 1.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       learning_rate=st.floats(1e-6, 10.0),
       weight_decay=st.floats(0.0, 1.0),
       steps=st.integers(1, 3),
       data=st.data())
def test_tau_stays_in_unit_interval(dtype, learning_rate, weight_decay,
                                    steps, data):
    """Whatever finite gradients arrive, a step either ends with every
    decay factor inside [0, 1] or reports an overflow."""
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       width=np.dtype(dtype).itemsize * 8)
    params = init_params(SPEC, np.random.default_rng(0), dtype=dtype)
    for layer in params.layers:
        layer.tau[:] = data.draw(arrays(dtype, layer.tau.shape,
                                        elements=st.floats(0.0, 1.0)))
    state = adamw_init(params)
    for _ in range(steps):
        grads = Gradients([
            LayerGrads(*(data.draw(arrays(dtype, shape, elements=finite))
                         for shape in (l.weight.shape, l.tau.shape,
                                       l.norm.gamma.shape, l.norm.beta.shape)))
            for l in params.layers
        ])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                adamw_step(params, grads, state,
                           learning_rate=learning_rate,
                           weight_decay=weight_decay)
        except NumericError:
            return
        for layer in params.layers:
            assert ((layer.tau >= 0.0) & (layer.tau <= 1.0)).all(), layer.tau
