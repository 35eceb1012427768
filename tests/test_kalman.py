import dataclasses

import numpy as np
import pytest

from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.errors import NumericError
from snndecode.kalman import KfModel, KfState, kf_fit, kf_init, kf_run, kf_step
from snndecode.metrics import pearson


def simulate(A, C, n, seed=0):
    """Roll out x_{t+1} = A x_t noiselessly, observe y = C x."""
    rng = np.random.default_rng(seed)
    x = np.array([rng.normal(), rng.normal(), 1.0])
    states = np.empty((n, 3))
    for t in range(n):
        states[t] = x
        x = A @ x
    return states, states @ C.T


def test_fit_recovers_exact_linear_system():
    # slowly decaying rotation: a single long trajectory keeps exciting
    # all three state directions, so the regression is full rank
    c, s = 0.995 * np.cos(0.3), 0.995 * np.sin(0.3)
    A_true = np.array([[c, -s, 0.05],
                       [s, c, -0.1],
                       [0.0, 0.0, 1.0]])
    rng = np.random.default_rng(4)
    C_true = rng.normal(size=(12, 3))
    states, feats = simulate(A_true, C_true, 400, seed=4)
    model = kf_fit(feats, states[:, :2])
    assert np.abs(model.A - A_true).max() < 1e-6
    assert np.abs(model.C - C_true).max() < 1e-6


def test_constant_velocity_gives_identity_row():
    n = 100
    vel = np.tile([0.7, -0.3], (n, 1))
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(n, 5))
    model = kf_fit(feats, vel)
    # x_{t+1} = x_t exactly, and the ridge fallback must have engaged
    # because constant states are rank deficient
    assert np.abs(model.A @ np.array([0.7, -0.3, 1.0])
                  - np.array([0.7, -0.3, 1.0])).max() < 1e-4
    assert model.ridge > 0


def test_noise_covariances_symmetric_psd():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(300, 8))
    vel = rng.normal(size=(300, 2))
    model = kf_fit(feats, vel)
    for M in (model.W, model.Q):
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() > -1e-12


def test_huge_observation_noise_ignores_observation():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(200, 6))
    vel = rng.normal(size=(200, 2))
    model = kf_fit(feats, vel)
    model = dataclasses.replace(model, Q=model.Q + 1e12 * np.eye(6))
    state = KfState(mean=np.array([0.5, -0.5, 1.0]), cov=np.eye(3))
    prior_mean = model.A @ state.mean
    new_state, est = kf_step(model, state, rng.normal(size=6))
    assert np.abs(new_state.mean - prior_mean).max() < 1e-3
    assert np.abs(est - prior_mean[:2]).max() < 1e-3


def test_noiseless_stream_tracks_truth():
    frames = synth_generate(4000, seed=5, noise_std=0.0)
    train, val = split_train_val(frames)
    std = Standardizer.fit(train)
    ftr, vtr = std.apply(train)
    model = kf_fit(ftr.astype(np.float64), vtr.astype(np.float64))
    preds = kf_run(model, std.apply_features(val.features).astype(np.float64))
    truth = std.apply_velocities(val.velocities)
    for d in range(2):
        assert pearson(preds[:, d], truth[:, d]) > 0.99


def test_covariance_stays_symmetric_psd_over_many_steps():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(500, 4))
    vel = rng.normal(size=(500, 2))
    model = kf_fit(feats, vel)
    state = kf_init(model)
    for _ in range(10_000):
        state, _ = kf_step(model, state, rng.normal(size=4))
    assert np.array_equal(state.cov, state.cov.T)
    assert np.linalg.eigvalsh(state.cov).min() > -1e-12


def test_bias_component_stays_pinned():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(300, 5))
    vel = rng.normal(size=(300, 2))
    model = kf_fit(feats, vel)
    state = kf_init(model)
    for obs in rng.normal(size=(50, 5)):
        state, _ = kf_step(model, state, obs)
        assert state.mean[2] == 1.0


def test_singular_innovation_raises_with_condition():
    model = KfModel(A=np.eye(3), W=np.zeros((3, 3)),
                    C=np.zeros((4, 3)), Q=np.zeros((4, 4)))
    state = KfState(mean=np.array([0.0, 0.0, 1.0]), cov=np.zeros((3, 3)))
    with pytest.raises(NumericError, match="cond"):
        kf_step(model, state, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_observation_refused_state_kept(bad):
    """A NaN frame is refused before any arithmetic and the state passed in
    is untouched, so decoding goes on from it; without the check every
    later estimate of ``kf_run`` would be NaN."""
    rng = np.random.default_rng(8)
    model = kf_fit(rng.normal(size=(200, 5)), rng.normal(size=(200, 2)))
    obs = rng.normal(size=(5, 5))
    state, _ = kf_step(model, kf_init(model), obs[0])
    mean, cov = state.mean.copy(), state.cov.copy()
    poisoned = obs[1].copy()
    poisoned[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kf_step(model, state, poisoned)
    assert np.array_equal(state.mean, mean) and np.array_equal(state.cov, cov)
    for frame in obs[2:]:
        state, est = kf_step(model, state, frame)
        assert np.isfinite(est).all()
    features = obs.copy()
    features[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kf_run(model, features)


def test_fit_requires_two_frames():
    with pytest.raises(ValueError):
        kf_fit(np.ones((1, 4)), np.ones((1, 2)))


def _matrices(**arrays):
    """The matrices of a valid four-channel filter, some replaced."""
    return {"A": np.eye(3), "W": np.eye(3), "C": np.ones((4, 3)),
            "Q": np.eye(4), **arrays}


@pytest.mark.parametrize("fields, named", [
    pytest.param(_matrices(Q=np.eye(5)), "Q", id="Q-of-another-size"),
    pytest.param(_matrices(W=np.where(np.eye(3) == 1, np.nan, 0.0)), "W",
                 id="nan-in-W"),
    pytest.param(_matrices(Q=np.full((4, 4), np.inf)), "Q", id="inf-in-Q"),
    pytest.param(_matrices(A=np.eye(3, dtype=np.float32)), "A",
                 id="float32-A"),
    pytest.param(_matrices(C=np.ones((4, 2))), "C", id="C-of-two-columns"),
    pytest.param(_matrices(C=np.ones((0, 3)), Q=np.eye(0)), "C",
                 id="no-channels"),
    pytest.param(_matrices(C=np.ones(3)), "C", id="one-dimensional-C"),
    pytest.param(_matrices(A=np.eye(3).tolist()), "A", id="list-A"),
    pytest.param({**_matrices(), "ridge": -1e-8}, "ridge",
                 id="negative-ridge"),
    pytest.param({**_matrices(), "ridge": float("nan")}, "ridge",
                 id="nan-ridge"),
    pytest.param({**_matrices(), "ridge": "0"}, "ridge", id="string-ridge"),
])
def test_unusable_model_refused(fields, named):
    """A hand-built filter meets the loaded one's rule: ValueError whose
    message starts with the field's name, not numpy's broadcast error or
    an SVD that does not converge inside ``kf_run``."""
    with pytest.raises(ValueError, match=f"^{named}"):
        KfModel(**fields)


def test_model_is_frozen():
    """No matrix escapes the rule by being reassigned later."""
    model = KfModel(**_matrices())
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.Q = np.eye(5)


@pytest.mark.parametrize("shape", [(3,), (4, 1), ()])
def test_misshaped_observation_refused(shape):
    """An observation of another shape is refused before any arithmetic."""
    model = KfModel(**_matrices())
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        kf_step(model, kf_init(model), np.zeros(shape))
