"""Unit tests for the LIF / integrator neuron kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode import (NetworkSpec, forward_streaming, init_params,
                       lif_step, reset_state, surrogate_grad)
from snndecode.neuron import (RESET_MODES, RESET_SUBTRACT, RESET_ZERO,
                              output_step)


def step(u, current, tau, reset_mode=RESET_SUBTRACT):
    """One ``lif_step`` at threshold 0.4 on float arrays: the new
    potentials and the spikes they fire, ``u >= 0.4``."""
    u = lif_step(np.asarray(u, dtype=float), np.asarray(current, dtype=float),
                 np.asarray(tau, dtype=float), 0.4, reset_mode)
    return u, u >= 0.4


def stream_with_potential(layer, shape):
    """Stream one frame through a (3, 4, 2) decoder whose state has
    ``layer``'s potential replaced by zeros of ``shape``."""
    spec = NetworkSpec(layer_widths=(3, 4, 2))
    params = init_params(spec, np.random.default_rng(0))
    state = reset_state(spec)
    state.potentials[layer] = np.zeros(shape, dtype=np.float32)
    return forward_streaming(params, spec, np.ones(3), state)


class TestNeuronParameterChecks:
    """``lif_step`` does not re-check its parameters each step; the places
    that set them do."""

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            NetworkSpec(threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            NetworkSpec(threshold=-1.0)

    def test_rejects_tau_outside_unit_interval(self):
        spec = NetworkSpec(layer_widths=(3, 4, 2))
        rng = np.random.default_rng(0)
        for tau_init in (1.2, -0.1, (0.5, 1.2), (-0.1, 0.5), float("nan"),
                         (0.25, float("nan"))):
            with pytest.raises(ValueError, match="decay factors"):
                init_params(spec, rng, tau_init=tau_init)

    def test_rejects_unknown_reset_mode(self):
        with pytest.raises(ValueError, match="reset mode"):
            NetworkSpec(reset_mode="warp")


class TestLifStep:
    def test_subtract_reset_hand_case(self):
        """tau=0.5, u=1.0 (at or above threshold: it fired), input 0.3
        lands at 0.6 and fires."""
        u, spikes = step([1.0], [0.3], [0.5])
        np.testing.assert_allclose(u, [0.6])
        np.testing.assert_array_equal(spikes, [True])

    def test_zero_is_a_fixed_point(self):
        for tau in (0.0, 0.3, 1.0):
            u, spikes = step([0.0], [0.0], [tau])
            np.testing.assert_array_equal(u, [0.0])
            np.testing.assert_array_equal(spikes, [False])

    def test_exact_threshold_fires(self):
        """The spike condition is >=, so landing exactly on the threshold
        fires, and the next step resets by it."""
        u, spikes = step([0.0], [0.4], [0.0])
        np.testing.assert_array_equal(spikes, [True])
        np.testing.assert_array_equal(step(u, [0.0], [1.0])[0], [0.0])

    def test_just_below_threshold_stays_silent(self):
        u, spikes = step([0.0], [0.4 - 1e-9], [0.0])
        np.testing.assert_array_equal(spikes, [False])
        np.testing.assert_array_equal(step(u, [0.0], [1.0])[0], u)

    def test_reset_to_zero_mode(self):
        """After a spike the zero mode forgets the whole potential."""
        u, spikes = step([1.0], [0.3], [0.5], RESET_ZERO)
        np.testing.assert_allclose(u, [0.3])
        np.testing.assert_array_equal(spikes, [False])

    def test_subtract_removes_threshold_once_per_spike(self):
        """With tau=1 and no input after the first frame, each spike costs
        exactly one threshold."""
        u = np.array([0.0])
        potentials = []
        for current in (1.0, 0.0, 0.0, 0.0):
            u, _ = step(u, [current], [1.0])
            potentials.append(u[0])
        # 1.0 -> fires -> 0.6 -> fires -> 0.2 (quiet) -> stays
        np.testing.assert_allclose(potentials, [1.0, 0.6, 0.2, 0.2])

    def test_purely_functional(self):
        u = np.array([0.5, -0.1])
        current = np.array([0.05, 0.6])
        before = u.copy(), current.copy()
        out1 = step(u, current, [0.7, 0.2])
        out2 = step(u, current, [0.7, 0.2])
        for arg, old in zip((u, current), before):
            np.testing.assert_array_equal(arg, old)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])

    def test_batched_state_shapes(self):
        rng = np.random.default_rng(7)
        u, spikes = step(rng.normal(size=(5, 8)), rng.normal(size=(5, 8)),
                         rng.uniform(0, 1, 8))
        assert u.shape == (5, 8)
        assert spikes.shape == (5, 8)
        assert spikes.any() and not spikes.all()

    def test_dimension_mismatch_raises(self):
        """``lif_step`` does not check shapes; ``forward_streaming`` refuses
        a hidden potential that would broadcast, or not fit, before any
        step runs."""
        for shape in ((1,), (3,), (1, 4)):
            with pytest.raises(ValueError, match="shape mismatch in layer 0"):
                stream_with_potential(0, shape)


class TestOutputStep:
    def test_pure_integrator_hand_case(self):
        new_u = output_step(np.array([0.2]), np.array([0.1]), np.array([1.0]))
        np.testing.assert_allclose(new_u, [0.3])

    def test_memoryless_limit(self):
        """tau=0 forgets all state: the prediction is just the input."""
        pred = output_step(np.array([5.0]), np.array([0.7]), np.array([0.0]))
        np.testing.assert_allclose(pred, [0.7])

    def test_no_input_holds_value(self):
        u = np.array([0.42])
        tau = np.array([1.0])
        zero = np.array([0.0])
        for _ in range(5):
            u = output_step(u, zero, tau)
        np.testing.assert_allclose(u, [0.42])

    def test_dimension_mismatch_raises(self):
        """The readout's potential is checked by ``forward_streaming``, not
        by ``output_step``."""
        for shape in ((1,), (3,), ()):
            with pytest.raises(ValueError, match="shape mismatch in layer 1"):
                stream_with_potential(1, shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", ["lif_" + mode for mode in RESET_MODES]
                         + ["output"])
def test_out_gives_the_same_bits(kernel, dtype):
    """A kernel writing its new potentials into ``out`` gives the bits of
    a fresh array, returns ``out`` itself, and leaves its other arguments
    as they were."""
    rng = np.random.default_rng(8)
    u, current = rng.normal(size=(2, 64)).astype(dtype)
    tau = rng.uniform(0.0, 1.0, 64).astype(dtype)
    args = (u, current, tau)
    if kernel == "output":
        run = lambda **out: output_step(*args, **out)
    else:
        mode = kernel[len("lif_"):]
        run = lambda **out: lif_step(*args, 0.4, mode, **out)
    before = [a.copy() for a in args]
    fresh = run()
    out = np.full_like(u, np.nan)
    got = run(out=out)
    assert got is out
    assert got.dtype == fresh.dtype == dtype
    assert got.tobytes() == fresh.tobytes()
    for a, b in zip(args, before):
        assert a.tobytes() == b.tobytes()


def _lif_step_with_spikes(potential, last_spikes, current, tau,
                          threshold, reset_mode):
    """The kernel that took the previous spikes as an argument of their
    own, kept as the reference the potential-only ``lif_step`` is pinned
    to bit for bit."""
    if reset_mode == RESET_SUBTRACT:
        u_next = tau * (potential - last_spikes * threshold) + current
    else:
        u_next = tau * potential * (1.0 - last_spikes) + current
    return u_next, (u_next >= threshold).astype(u_next.dtype)


def _output_step_pair(potential, input_current, tau):
    """The readout kernel that returned its potentials twice."""
    u_next = tau * potential + input_current
    return u_next, u_next


_WIDTH = 12
_THRESHOLD = 0.4


@st.composite
def _kernel_operands(draw):
    """``(dtype, potential, current, tau)`` of one width, the potentials
    drawn among values exactly at the threshold, signed zeros, NaN and
    infinities as well as ordinary floats."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    at = float(dtype(_THRESHOLD))
    special = st.sampled_from([at, 0.0, -0.0, np.nan, np.inf, -np.inf,
                               np.nextafter(dtype(at), dtype(0)).item()])
    ordinary = st.floats(-1e3, 1e3, width=width)
    vector = lambda values: st.lists(values, min_size=_WIDTH,
                                     max_size=_WIDTH).map(
        lambda v: np.array(v, dtype=dtype))
    potential = draw(vector(special | ordinary))
    current = draw(vector(st.floats(allow_nan=True, allow_infinity=True,
                                    width=width)))
    tau = draw(vector(st.floats(0.0, 1.0, width=width)))
    return dtype, potential, current, tau


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operands=_kernel_operands(), reset_mode=st.sampled_from(RESET_MODES))
def test_kernels_keep_the_spike_argument_arithmetic(operands, reset_mode):
    """``lif_step`` and ``output_step``, with and without ``out``, give
    byte for byte what the kernels that took the previous spikes, and
    returned a pair, gave when fed the spikes the potentials hold, at a
    Python-float threshold as the window passes give it and at one of the
    potentials' dtype as streaming does."""
    dtype, potential, current, tau = operands
    with np.errstate(all="ignore"):
        for threshold in (_THRESHOLD, dtype(_THRESHOLD)):
            last = (potential >= threshold).astype(dtype)
            want, _ = _lif_step_with_spikes(potential, last, current, tau,
                                            threshold, reset_mode)
            fresh = lif_step(potential, current, tau, threshold, reset_mode)
            out = np.full_like(potential, np.nan)
            lif_step(potential, current, tau, threshold, reset_mode, out=out)
            for got in (fresh, out):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()
        want, _ = _output_step_pair(potential, current, tau)
        out = np.full_like(potential, np.nan)
        for got in (output_step(potential, current, tau),
                    output_step(potential, current, tau, out=out)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestSurrogateGrad:
    def test_at_threshold(self):
        assert surrogate_grad(np.float64(0.4), 0.4) == 1.0

    def test_boundary_excluded(self):
        """|u - threshold| = 0.5 sits outside the window (strict <)."""
        assert surrogate_grad(np.float64(0.9), 0.4) == 0.0
        assert surrogate_grad(np.float64(-0.1), 0.4) == 0.0

    def test_far_below(self):
        assert surrogate_grad(np.float64(-0.2), 0.4) == 0.0

    def test_window_integrates_to_one(self):
        u = np.linspace(-2.0, 3.0, 500001)
        vals = surrogate_grad(u, 0.4)
        integral = np.trapezoid(vals, u)
        np.testing.assert_allclose(integral, 1.0, atol=1e-4)

    def test_vectorized(self):
        u = np.array([-0.2, 0.4, 0.89, 0.9])
        np.testing.assert_array_equal(surrogate_grad(u, 0.4),
                                      [0.0, 1.0, 1.0, 0.0])
