"""Unit tests for the LIF / integrator neuron kernels."""

import numpy as np
import pytest

from snndecode import (
    RESET_SUBTRACT,
    RESET_ZERO,
    NetworkSpec,
    init_params,
    lif_step,
    output_step,
    surrogate_grad,
)


def step(u, s, current, tau, reset_mode=RESET_SUBTRACT):
    """One ``lif_step`` at threshold 0.4 on float arrays."""
    return lif_step(np.asarray(u, dtype=float), np.asarray(s, dtype=float),
                    np.asarray(current, dtype=float),
                    np.asarray(tau, dtype=float), 0.4, reset_mode)


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
        for tau_init in (1.2, -0.1, (0.5, 1.2), (-0.1, 0.5)):
            with pytest.raises(ValueError, match="decay factors"):
                init_params(spec, rng, tau_init=tau_init)

    def test_rejects_unknown_reset_mode(self):
        with pytest.raises(ValueError, match="reset mode"):
            NetworkSpec(reset_mode="warp")


class TestLifStep:
    def test_subtract_reset_hand_case(self):
        """tau=0.5, u=1.0 after a spike, input 0.3 lands at 0.6 and fires."""
        u, spikes = step([1.0], [1.0], [0.3], [0.5])
        np.testing.assert_allclose(u, [0.6])
        np.testing.assert_array_equal(spikes, [1.0])

    def test_zero_is_a_fixed_point(self):
        for tau in (0.0, 0.3, 1.0):
            u, spikes = step([0.0], [0.0], [0.0], [tau])
            np.testing.assert_array_equal(u, [0.0])
            np.testing.assert_array_equal(spikes, [0.0])

    def test_exact_threshold_fires(self):
        """The spike condition is >=, so landing exactly on the threshold fires."""
        _, spikes = step([0.0], [0.0], [0.4], [0.0])
        np.testing.assert_array_equal(spikes, [1.0])

    def test_just_below_threshold_stays_silent(self):
        _, spikes = step([0.0], [0.0], [0.4 - 1e-9], [0.0])
        np.testing.assert_array_equal(spikes, [0.0])

    def test_reset_to_zero_mode(self):
        """After a spike the zero mode forgets the whole potential."""
        u, spikes = step([1.0], [1.0], [0.3], [0.5], RESET_ZERO)
        np.testing.assert_allclose(u, [0.3])
        np.testing.assert_array_equal(spikes, [0.0])

    def test_subtract_removes_threshold_once_per_spike(self):
        """With tau=1 and no input, each spike costs exactly one threshold."""
        u, s = np.array([1.0]), np.array([0.0])
        potentials = []
        for _ in range(4):
            u, s = step(u, s, [0.0], [1.0])
            potentials.append(u[0])
        # 1.0 -> fires -> 0.6 -> fires -> 0.2 (quiet) -> stays
        np.testing.assert_allclose(potentials, [1.0, 0.6, 0.2, 0.2])

    def test_purely_functional(self):
        u, s = np.array([0.5, -0.1]), np.array([1.0, 0.0])
        current = np.array([0.05, 0.6])
        before = u.copy(), s.copy(), current.copy()
        out1 = step(u, s, current, [0.7, 0.2])
        out2 = step(u, s, current, [0.7, 0.2])
        for arg, old in zip((u, s, current), before):
            np.testing.assert_array_equal(arg, old)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])

    def test_batched_state_shapes(self):
        rng = np.random.default_rng(7)
        u, spikes = step(rng.normal(size=(5, 8)), np.zeros((5, 8)),
                         rng.normal(size=(5, 8)), rng.uniform(0, 1, 8))
        assert u.shape == (5, 8)
        assert spikes.shape == (5, 8)
        np.testing.assert_array_equal(spikes, (u >= 0.4).astype(float))
        assert set(np.unique(spikes)) <= {0.0, 1.0}

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            step([0.0, 0.0], [0.0, 0.0], [1.0, 2.0, 3.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="shape mismatch"):
            step([0.0, 0.0], [0.0], [1.0, 2.0], [0.5, 0.5])


class TestOutputStep:
    def test_pure_integrator_hand_case(self):
        new_u, pred = output_step(np.array([0.2]), np.array([0.1]),
                                  np.array([1.0]))
        np.testing.assert_allclose(new_u, [0.3])
        np.testing.assert_allclose(pred, [0.3])

    def test_memoryless_limit(self):
        """tau=0 forgets all state: the prediction is just the input."""
        _, pred = output_step(np.array([5.0]), np.array([0.7]),
                              np.array([0.0]))
        np.testing.assert_allclose(pred, [0.7])

    def test_no_input_holds_value(self):
        u = np.array([0.42])
        tau = np.array([1.0])
        zero = np.array([0.0])
        for _ in range(5):
            u, pred = output_step(u, zero, tau)
        np.testing.assert_allclose(pred, [0.42])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            output_step(np.array([0.0, 0.0]), np.array([1.0]),
                        np.array([0.5, 0.5]))


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
