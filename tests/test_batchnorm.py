"""Unit tests for threshold-scaled batch normalization."""

import numpy as np

from snndecode import (
    TRAIN,
    NetworkSpec,
    batch_stats,
    forward_unfolded,
    init_params,
    normalize,
)
from snndecode.batchnorm import tdbn_backward
from snndecode.train import _advance_running_stats


class TestBatchStats:
    def test_pools_batch_and_time(self):
        """Statistics are per channel over every (batch, time) slot jointly."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6, 3))
        mean, var = batch_stats(x)
        flat = x.reshape(-1, 3)
        np.testing.assert_allclose(mean, flat.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(var, flat.var(axis=0), rtol=1e-12)

    def test_population_variance(self):
        x = np.array([[[1.0], [3.0]]])          # population {1, 3}
        mean, var = batch_stats(x)
        np.testing.assert_allclose(mean, [2.0])
        np.testing.assert_allclose(var, [1.0])  # biased: ((1)^2+(1)^2)/2


def tdbn_train(x, gamma, beta, threshold=0.4, eps=1e-5):
    """Training-mode tdBN as the forward pass applies it."""
    mean, var = batch_stats(x)
    out, _, _ = normalize(x, mean, var, gamma, beta, threshold, eps)
    return out


class TestTdbnApply:
    """tdBN as training and inference apply it: pooled batch statistics
    or the running ones through :func:`normalize`, and the running
    averages advanced by the trainer."""

    def test_two_point_hand_case(self):
        """Values {1, 3} normalize to +-1, then scale by threshold 0.4."""
        x = np.array([[[1.0], [3.0]]])
        out = tdbn_train(x, gamma=np.ones(1), beta=np.zeros(1), eps=1e-12)
        np.testing.assert_allclose(out, [[[-0.4], [0.4]]], atol=1e-6)

    def test_constant_channel_collapses_to_beta(self):
        x = np.full((2, 5, 3), 7.5)
        beta = np.array([0.1, -0.2, 0.0])
        out = tdbn_train(x, gamma=np.ones(3), beta=beta)
        np.testing.assert_allclose(out, np.broadcast_to(beta, x.shape),
                                   atol=1e-7)

    def test_gamma_cancels_threshold(self):
        """gamma = 1/threshold turns the transform into plain standardization."""
        rng = np.random.default_rng(11)
        x = rng.normal(2.0, 3.0, size=(8, 4, 5))
        thr = 0.4
        out = tdbn_train(x, gamma=np.full(5, 1.0 / thr), beta=np.zeros(5),
                         threshold=thr, eps=1e-12)
        mean, var = batch_stats(x)
        np.testing.assert_allclose(out, (x - mean) / np.sqrt(var),
                                   rtol=1e-9, atol=1e-9)

    def test_train_output_statistics(self):
        """Train-mode output has mean beta and deviation threshold*gamma."""
        rng = np.random.default_rng(5)
        x = rng.normal(-1.0, 2.5, size=(16, 10, 4))
        gamma = np.array([1.0, 0.5, 2.0, 1.5])
        beta = np.array([0.0, 1.0, -1.0, 0.25])
        out = tdbn_train(x, gamma, beta, eps=1e-12)
        flat = out.reshape(-1, 4)
        np.testing.assert_allclose(flat.mean(axis=0), beta, atol=1e-9)
        np.testing.assert_allclose(flat.std(axis=0), 0.4 * gamma, rtol=1e-6)

    def test_running_statistics_ema(self):
        """After a batch the trainer moves each running statistic a
        ``bn_momentum`` step toward the batch statistic it pooled."""
        spec = NetworkSpec(layer_widths=(3, 4, 2), window_len=5,
                           dropout_p=0.0, bn_momentum=0.1)
        rng = np.random.default_rng(9)
        params = init_params(spec, rng, dtype=np.float64)
        for layer in params.layers:
            layer.norm.run_mean[:] = rng.normal(size=layer.norm.run_mean.shape)
            layer.norm.run_var[:] = rng.uniform(0.5, 2.0,
                                                layer.norm.run_var.shape)
        before = params.copy()
        x = rng.normal(size=(6, 5, 3))
        _, cache = forward_unfolded(params, spec, x, mode=TRAIN)
        _advance_running_stats(params, cache, spec)
        act = x
        for l, (old, new) in enumerate(zip(before.layers, params.layers)):
            mean, var = batch_stats(act @ old.weight.T)
            np.testing.assert_allclose(
                new.norm.run_mean, 0.9 * old.norm.run_mean + 0.1 * mean)
            np.testing.assert_allclose(
                new.norm.run_var, 0.9 * old.norm.run_var + 0.1 * var)
            if l < spec.n_hidden:
                act = cache.spikes[l]

    def test_eval_uses_and_keeps_running_statistics(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4, 2))
        run_mean = np.array([0.3, -0.7])
        run_var = np.array([1.5, 0.25])
        gamma = np.array([1.2, 0.8])
        beta = np.array([0.0, 0.1])
        out, _, _ = normalize(x, run_mean, run_var, gamma, beta, 0.4, 1e-5)
        expect = 0.4 * gamma * (x - run_mean) / np.sqrt(run_var + 1e-5) + beta
        np.testing.assert_allclose(out, expect, rtol=1e-6)
        np.testing.assert_array_equal(run_mean, [0.3, -0.7])
        np.testing.assert_array_equal(run_var, [1.5, 0.25])


class TestTdbnBackward:
    def test_matches_central_differences(self):
        """Gradients through the pooled normalizer agree with finite steps."""
        rng = np.random.default_rng(21)
        B, T, C = 2, 3, 4
        x = rng.normal(size=(B, T, C))
        gamma = rng.uniform(0.5, 1.5, C)
        beta = rng.normal(size=C)
        probe = rng.normal(size=(B, T, C))      # fixed downstream weights
        thr = 0.4

        def scalar_out(xv, gv, bv):
            mean, var = batch_stats(xv)
            out, _, _ = normalize(xv, mean, var, gv, bv, thr, 1e-5)
            return float((out * probe).sum())

        mean, var = batch_stats(x)
        _, xhat, inv_std = normalize(x, mean, var, gamma, beta, thr, 1e-5)
        grad_in, grad_gamma, grad_beta = tdbn_backward(
            probe, xhat, inv_std, gamma, thr)

        h = 1e-6
        num_in = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            num_in[idx] = (scalar_out(xp, gamma, beta)
                           - scalar_out(xm, gamma, beta)) / (2 * h)
        np.testing.assert_allclose(grad_in, num_in, rtol=1e-4, atol=1e-7)

        num_gamma = np.zeros(C)
        num_beta = np.zeros(C)
        for j in range(C):
            gp, gm = gamma.copy(), gamma.copy()
            gp[j] += h
            gm[j] -= h
            num_gamma[j] = (scalar_out(x, gp, beta)
                            - scalar_out(x, gm, beta)) / (2 * h)
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            num_beta[j] = (scalar_out(x, gamma, bp)
                           - scalar_out(x, gamma, bm)) / (2 * h)
        np.testing.assert_allclose(grad_gamma, num_gamma, rtol=1e-5)
        np.testing.assert_allclose(grad_beta, num_beta, rtol=1e-5)
