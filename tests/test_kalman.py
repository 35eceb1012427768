import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.errors import NumericError
from snndecode.kalman import (_COND_LIMIT, KfModel, KfState, _certified,
                              kf_fit, kf_init, kf_run, kf_step)
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


def _counting_cond(monkeypatch):
    """Count the calls to ``np.linalg.cond`` from here on."""
    calls, cond = [], np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda *a, **kw: calls.append(1) or cond(*a, **kw))
    return calls


def test_singular_innovation_raises_with_condition(monkeypatch):
    model = KfModel(A=np.eye(3), W=np.zeros((3, 3)),
                    C=np.zeros((4, 3)), Q=np.zeros((4, 4)))
    state = KfState(mean=np.array([0.0, 0.0, 1.0]), cov=np.zeros((3, 3)))
    calls = _counting_cond(monkeypatch)
    with pytest.raises(NumericError, match="cond"):
        kf_step(model, state, np.zeros(4))
    assert calls == [1]


def _fitted_session(frames, seed):
    """A filter fit on a synth session's train split, and the whole
    session's standardized features."""
    session = synth_generate(frames, seed=seed)
    train, _ = split_train_val(session)
    std = Standardizer.fit(train)
    ftr, vtr = std.apply(train)
    model = kf_fit(ftr.astype(np.float64), vtr.astype(np.float64))
    return model, std.apply_features(session.features).astype(np.float64)


def _run_checking_every_frame(model, features):
    """``kf_run`` as the recursion is written out, with the full condition
    check on every frame: the reference the certificate must not change."""
    mean, cov = np.array([0.0, 0.0, 1.0]), np.eye(3)
    out = np.empty((len(features), 2))
    for t, observation in enumerate(features):
        mean_pred = model.A @ mean
        cov_pred = model.A @ cov @ model.A.T + model.W
        S = model.C @ cov_pred @ model.C.T + model.Q
        assert np.linalg.cond(S) <= _COND_LIMIT
        gain = np.linalg.solve(S, model.C @ cov_pred).T
        innovation = observation - model.C @ mean_pred
        mean = mean_pred + gain @ innovation
        shrink = np.eye(3) - gain @ model.C
        cov = shrink @ cov_pred @ shrink.T + gain @ model.Q @ gain.T
        cov = (cov + cov.T) / 2.0
        mean[2] = 1.0
        out[t] = mean[:2]
    return out


def test_run_equals_recursion_with_condition_on_every_frame():
    """Skipping the SVD on certified frames leaves every output bit."""
    model, features = _fitted_session(2000, seed=11)
    assert kf_run(model, features).tobytes() == \
        _run_checking_every_frame(model, features).tobytes()


def test_fitted_model_decodes_without_svd(monkeypatch):
    """Every frame of a fitted filter on a synth session is certified, so
    the exact condition number is never computed."""
    model, features = _fitted_session(1500, seed=12)
    calls = _counting_cond(monkeypatch)
    kf_run(model, features)
    assert calls == []


def test_model_bounds_follow_q_and_c():
    """The bounds are derived by the constructor, so ``replace`` derives
    them again; a ``Q`` that is not exactly symmetric certifies nothing."""
    model = KfModel(**_matrices(Q=np.diag([1.0, 2.0, 3.0, 4.0])))
    assert (model.q_lo, model.q_hi) == pytest.approx((1.0, 4.0))
    assert model.c2 == pytest.approx(12.0)
    wider = dataclasses.replace(model, C=2.0 * model.C)
    assert wider.c2 == pytest.approx(48.0)
    Q = model.Q.copy()
    Q[0, 1] = 1e-17
    skewed = dataclasses.replace(model, Q=Q)
    assert skewed.q_lo == 0.0
    assert not _certified(skewed, np.eye(3))
    assert _certified(model, np.eye(3))


@st.composite
def _innovations(draw):
    """A filter's ``C`` and ``Q`` and a predicted covariance ``P``.

    ``Q`` is exactly symmetric with condition 1 to 1e14, ``C`` at scales
    from 1e-3 to 1e3, and ``P`` positive semi-definite, indefinite,
    slightly asymmetric, or negative along one direction by just less
    than what makes ``S`` singular; all but the last at scales from 1e-6
    to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.integers(2, 12))
    basis, _ = np.linalg.qr(rng.normal(size=(channels, channels)))
    spread = draw(st.floats(0.0, 14.0))
    powers = np.r_[0.0, spread, rng.uniform(size=channels - 2) * spread]
    Q = (basis * 10.0 ** -powers) @ basis.T * 10.0 ** draw(st.floats(-3, 3))
    Q = (Q + Q.T) / 2.0
    C = rng.normal(size=(channels, 3)) * 10.0 ** draw(st.sampled_from(
        (-3, 0, 3)))
    root = rng.normal(size=(3, 3))
    kind = draw(st.sampled_from(
        ("psd", "indefinite", "asymmetric", "near-singular")))
    if kind == "near-singular":
        # Q - s·u·uᵀ with u = C·e is singular at s = 1 / (uᵀ Q⁻¹ u)
        e = root[0]
        u = C @ e
        s = (1.0 - 10.0 ** draw(st.floats(-16, 0))) / (
            u @ np.linalg.solve(Q, u))
        return C, Q, -s * np.outer(e, e)
    P = root @ root.T if kind != "indefinite" else root + root.T
    if kind == "asymmetric":
        P = P + 10.0 ** draw(st.floats(-12, -1)) * rng.normal(size=(3, 3))
    return C, Q, P * 10.0 ** draw(st.floats(-6, 6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_innovations())
def test_certified_frame_is_within_the_condition_limit(case):
    """Whenever the bounds certify a frame, the exact check would pass."""
    C, Q, P = case
    model = KfModel(A=np.eye(3), W=np.zeros((3, 3)), C=C, Q=Q)
    if _certified(model, P):
        assert np.linalg.cond(C @ P @ C.T + Q) <= _COND_LIMIT


@pytest.mark.parametrize("mean, cov, message", [
    pytest.param(np.zeros(2), np.eye(3), "shape", id="mean-of-two"),
    pytest.param(np.zeros(3), np.eye(2), "shape", id="cov-two-by-two"),
    pytest.param(np.zeros((3, 1)), np.eye(3), "shape", id="mean-column"),
    pytest.param(np.zeros(3), np.full((3, 3), np.nan), "non-finite",
                 id="nan-cov"),
    pytest.param(np.array([0.0, np.inf, 1.0]), np.eye(3), "non-finite",
                 id="inf-mean"),
])
def test_malformed_state_refused_state_kept(mean, cov, message):
    """A state the recursion cannot use is refused before any arithmetic,
    not by an SVD that does not converge or numpy's matmul message."""
    model = KfModel(**_matrices())
    state = KfState(mean=mean, cov=cov)
    kept = mean.copy(), cov.copy()
    with pytest.raises(ValueError, match=f"state.*{message}|{message}.*state"):
        kf_step(model, state, np.zeros(4))
    assert np.array_equal(state.mean, kept[0], equal_nan=True)
    assert np.array_equal(state.cov, kept[1], equal_nan=True)


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
