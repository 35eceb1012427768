"""Gradient checks: analytic backward vs two independent oracles.

The first oracle (tests/_oracle.py) is a naive per-edge tape autodiff
written separately from the vectorized backward; the second is central
finite differences on the spike-linearized network.  Both must agree
with `backward` on every parameter coordinate.
"""

import numpy as np
import pytest

from snndecode import NetworkSpec, TRAIN, forward_unfolded, init_params
from snndecode.backprop import backward, window_loss
from snndecode.errors import NumericError

from _oracle import numeric_grad_oracle, oracle_loss_and_grads

TINY = NetworkSpec(layer_widths=(2, 4, 4, 4, 2), window_len=3,
                   dropout_p=0.2)


def active_params(spec, seed):
    """Float64 parameters biased toward actual spiking activity."""
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng, dtype=np.float64)
    for layer in params.layers:
        layer.norm.gamma[:] = rng.uniform(1.5, 2.5, layer.norm.gamma.shape)
        layer.norm.beta[:] = rng.uniform(0.0, 0.3, layer.norm.beta.shape)
    return params


def run_forward(spec, params, seed, batch=4):
    rng = np.random.default_rng(seed)
    window = rng.normal(size=(batch, spec.window_len, spec.input_width))
    targets = rng.normal(size=(batch, spec.window_len, spec.output_width))
    preds, cache = forward_unfolded(params, spec, window, mode=TRAIN,
                                    rng=np.random.default_rng(seed + 1))
    return window, targets, preds, cache


def oracle_grads(spec, params, window, targets, cache, warmup):
    return oracle_loss_and_grads(
        [l.weight for l in params.layers],
        [l.tau for l in params.layers],
        [l.norm.gamma for l in params.layers],
        [l.norm.beta for l in params.layers],
        window, targets, cache.masks,
        threshold=spec.threshold, reset_mode=spec.reset_mode,
        normalize_output=spec.normalize_output, warmup=warmup,
        eps=spec.bn_eps)


class TestWindowLoss:
    def test_perfect_prediction(self):
        x = np.ones((5, 2))
        assert window_loss(x, x, 2) == 0.0

    def test_hand_case(self):
        """Only the rows after the discard contribute: (1 + 1) / 2 = 1."""
        pred = np.array([[9.0, -9.0], [3.0, 3.0], [1.0, 1.0]])
        target = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert window_loss(pred, target, 2) == pytest.approx(1.0)

    def test_discarded_rows_are_ignored(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 6, 2))
        target = rng.normal(size=(4, 6, 2))
        base = window_loss(pred, target, 2)
        noisy = pred.copy()
        noisy[:, :2, :] += rng.normal(size=(4, 2, 2)) * 100
        assert window_loss(noisy, target, 2) == pytest.approx(base)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            window_loss(np.zeros((3, 2)), np.zeros((4, 2)), 0)

    def test_bad_discard(self):
        with pytest.raises(ValueError):
            window_loss(np.zeros((3, 2)), np.zeros((3, 2)), 3)


class TestOracleSelfCheck:
    def test_linear_regression_hand_case(self):
        """One readout neuron, T=1: the tape must reproduce 2(Wx-y)x."""
        loss, w_g, tau_g, _, _ = oracle_loss_and_grads(
            [np.array([[0.3, -0.2]])], [np.array([0.0])],
            [np.ones(1)], [np.zeros(1)],
            np.array([[[1.0, 2.0]]]), np.array([[[0.5]]]),
            [None], threshold=0.4, reset_mode="subtract",
            normalize_output=False, warmup=0)
        assert loss == pytest.approx(0.36)
        np.testing.assert_allclose(w_g[0], [[-1.2, -2.4]], rtol=1e-12)
        np.testing.assert_allclose(tau_g[0], [0.0])


class TestBackwardHandCases:
    def test_linear_regression_gradient(self):
        """Readout-only network, T=1: backward is the plain lsq gradient."""
        spec = NetworkSpec(layer_widths=(2, 1), window_len=1,
                           normalize_output=False, dropout_p=0.0)
        params = init_params(spec, np.random.default_rng(0), tau_init=0.0,
                             dtype=np.float64)
        params.layers[0].weight[:] = [[0.3, -0.2]]
        window = np.array([[[1.0, 2.0]]])
        target = np.array([[[0.5]]])
        preds, cache = forward_unfolded(params, spec, window, mode=TRAIN)
        assert preds[0, 0, 0] == pytest.approx(-0.1)
        grads = backward(cache, params, spec, target)
        np.testing.assert_allclose(grads.layers[0].weight, [[-1.2, -2.4]],
                                   rtol=1e-12)

    def test_zero_loss_means_zero_gradients(self):
        spec = NetworkSpec(layer_widths=(3, 5, 2), window_len=4,
                           dropout_p=0.0)
        params = init_params(spec, np.random.default_rng(1), dtype=np.float64)
        window = np.zeros((2, 4, 3))
        preds, cache = forward_unfolded(params, spec, window, mode=TRAIN)
        grads = backward(cache, params, spec, preds.copy())
        for g in grads.layers:
            np.testing.assert_array_equal(g.weight, 0.0)
            np.testing.assert_array_equal(g.tau, 0.0)
            np.testing.assert_array_equal(g.gamma, 0.0)

    def test_requires_training_cache(self):
        spec = NetworkSpec(layer_widths=(2, 3, 2), window_len=2)
        params = init_params(spec, np.random.default_rng(2))
        window = np.zeros((2, 2, 2))
        _, cache = forward_unfolded(params, spec, window, mode="eval")
        with pytest.raises(ValueError):
            backward(cache, params, spec, np.zeros((2, 2, 2)))


class TestBackwardVsTapeOracle:
    @pytest.mark.parametrize("reset_mode", ["subtract", "zero"])
    @pytest.mark.parametrize("warmup", [0, 1])
    def test_full_network(self, reset_mode, warmup):
        spec = NetworkSpec(layer_widths=(2, 4, 4, 4, 2), window_len=3,
                           dropout_p=0.2, reset_mode=reset_mode)
        params = active_params(spec, seed=10)
        window, targets, preds, cache = run_forward(spec, params, seed=20)
        assert sum(s.sum() for s in cache.spikes[:-1]) > 0

        grads = backward(cache, params, spec, targets, warmup)
        loss, w_g, tau_g, gam_g, bet_g = oracle_grads(
            spec, params, window, targets, cache, warmup)

        assert window_loss(preds, targets, warmup) == pytest.approx(loss)
        for l, g in enumerate(grads.layers):
            np.testing.assert_allclose(g.weight, w_g[l], rtol=1e-5,
                                       atol=1e-10)
            np.testing.assert_allclose(g.tau, tau_g[l], rtol=1e-5,
                                       atol=1e-10)
            np.testing.assert_allclose(g.gamma, gam_g[l], rtol=1e-5,
                                       atol=1e-10)
            np.testing.assert_allclose(g.beta, bet_g[l], rtol=1e-5,
                                       atol=1e-10)

    def test_unnormalized_readout(self):
        spec = NetworkSpec(layer_widths=(3, 4, 2), window_len=3,
                           dropout_p=0.0, normalize_output=False)
        params = active_params(spec, seed=30)
        window, targets, _, cache = run_forward(spec, params, seed=40,
                                                batch=3)
        grads = backward(cache, params, spec, targets)
        _, w_g, tau_g, gam_g, _ = oracle_grads(
            spec, params, window, targets, cache, 0)
        for l, g in enumerate(grads.layers):
            np.testing.assert_allclose(g.weight, w_g[l], rtol=1e-5,
                                       atol=1e-10)
            np.testing.assert_allclose(g.tau, tau_g[l], rtol=1e-5,
                                       atol=1e-10)
        np.testing.assert_array_equal(grads.layers[-1].gamma, 0.0)

    def test_single_sample_batch(self):
        spec = NetworkSpec(layer_widths=(2, 4, 2), window_len=3,
                           dropout_p=0.0)
        params = active_params(spec, seed=50)
        window, targets, _, cache = run_forward(spec, params, seed=60,
                                                batch=1)
        grads = backward(cache, params, spec, targets, 1)
        _, w_g, tau_g, _, _ = oracle_grads(spec, params, window, targets,
                                           cache, 1)
        for l, g in enumerate(grads.layers):
            np.testing.assert_allclose(g.weight, w_g[l], rtol=1e-5,
                                       atol=1e-10)
            np.testing.assert_allclose(g.tau, tau_g[l], rtol=1e-5,
                                       atol=1e-10)


class TestNumericOracle:
    def test_smooth_linear_path(self):
        """With no unit inside the surrogate window the graph is smooth and
        the finite difference should agree almost exactly."""
        spec = NetworkSpec(layer_widths=(2, 1), window_len=1,
                           normalize_output=False, dropout_p=0.0)
        params = init_params(spec, np.random.default_rng(3), tau_init=0.0,
                             dtype=np.float64)
        params.layers[0].weight[:] = [[0.3, -0.2]]
        window = np.array([[[1.0, 2.0]]])
        target = np.array([[[0.5]]])
        _, cache = forward_unfolded(params, spec, window, mode=TRAIN)
        grads = backward(cache, params, spec, target)
        for idx in range(2):
            num = numeric_grad_oracle(params, spec, window, target,
                                      (0, "weight", idx))
            assert num == pytest.approx(grads.layers[0].weight.flat[idx],
                                        abs=1e-6)

    def test_output_layer_weight_and_tau(self):
        spec = NetworkSpec(layer_widths=(2, 4, 2), window_len=3,
                           dropout_p=0.0)
        params = active_params(spec, seed=70)
        window, targets, _, cache = run_forward(spec, params, seed=80,
                                                batch=2)
        grads = backward(cache, params, spec, targets)
        num_w = numeric_grad_oracle(params, spec, window, targets,
                                    (1, "weight", 3), masks=cache.masks)
        np.testing.assert_allclose(num_w, grads.layers[1].weight.flat[3],
                                   rtol=1e-5, atol=1e-8)
        num_tau = numeric_grad_oracle(params, spec, window, targets,
                                      (1, "tau", 0), masks=cache.masks)
        np.testing.assert_allclose(num_tau, grads.layers[1].tau[0],
                                   rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("reset_mode", ["subtract", "zero"])
    def test_sampled_coordinates_full_network(self, reset_mode):
        spec = NetworkSpec(layer_widths=(2, 4, 4, 4, 2), window_len=3,
                           dropout_p=0.2, reset_mode=reset_mode)
        params = active_params(spec, seed=90)
        window, targets, _, cache = run_forward(spec, params, seed=100)
        grads = backward(cache, params, spec, targets, 1)
        grad_by_field = [
            {"weight": g.weight, "tau": g.tau, "gamma": g.gamma,
             "beta": g.beta}
            for g in grads.layers
        ]
        rng = np.random.default_rng(110)
        fields = ["weight", "tau", "gamma", "beta"]
        for _ in range(25):
            l = int(rng.integers(spec.n_layers))
            field = fields[int(rng.integers(len(fields)))]
            arr = grad_by_field[l][field]
            idx = int(rng.integers(arr.size))
            num = numeric_grad_oracle(params, spec, window, targets,
                                      (l, field, idx), warmup_discard=1,
                                      masks=cache.masks, h=1e-4)
            np.testing.assert_allclose(
                num, arr.flat[idx], rtol=1e-5, atol=1e-7,
                err_msg=f"layer {l} {field}[{idx}]")

    def test_step_underflow(self):
        spec = NetworkSpec(layer_widths=(2, 1), window_len=1,
                           normalize_output=False, dropout_p=0.0)
        params = init_params(spec, np.random.default_rng(4),
                             dtype=np.float64)
        window = np.zeros((1, 1, 2))
        target = np.zeros((1, 1, 1))
        with pytest.raises(ValueError):
            numeric_grad_oracle(params, spec, window, target,
                                (0, "weight", 0), h=1e-300)


class TestGradientFiniteness:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_reported(self):
        spec = NetworkSpec(layer_widths=(2, 3, 2), window_len=2,
                           dropout_p=0.0)
        params = active_params(spec, seed=120)
        window, targets, _, cache = run_forward(spec, params, seed=130,
                                                batch=2)
        cache.potentials[-1][0, 1, 0] = np.inf
        with pytest.raises(NumericError):
            backward(cache, params, spec, targets)
