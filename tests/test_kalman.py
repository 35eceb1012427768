import contextlib
import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode import container
from snndecode.checkpoint import save_kf
from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.errors import NumericError
from snndecode.kalman import (_COND_LIMIT, KF_ARRAYS, KfModel, KfState,
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


def _counting(monkeypatch, *names):
    """Count the calls to the named ``np.linalg`` functions from here on."""
    calls = []

    def counted(name, function):
        return lambda *a, **kw: calls.append(name) or function(*a, **kw)

    for name in names:
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    return calls


def test_singular_innovation_raises_with_condition():
    """The all-zero filter has a singular ``Q``: its first step refuses it
    and names the condition estimate, from ``kf_step`` and ``kf_run``."""
    model = KfModel(A=np.eye(3), W=np.zeros((3, 3)),
                    C=np.zeros((4, 3)), Q=np.zeros((4, 4)))
    state = KfState(mean=np.array([0.0, 0.0, 1.0]), cov=np.zeros((3, 3)))
    with pytest.raises(NumericError, match="cond"):
        kf_step(model, state, np.zeros(4))
    with pytest.raises(NumericError, match="cond"):
        kf_run(model, np.zeros((3, 4)))


def test_exactly_singular_update_raises_with_infinite_condition():
    """With ``P⁻ = W = diag(-1, 0, 0)`` and ``M = diag(1, 0, 0)``,
    ``I + P⁻M`` is exactly singular and cannot be inverted at all; the
    step reports an infinite condition estimate, from ``kf_step`` and
    ``kf_run``, and leaves the state it was given unchanged."""
    model = KfModel(A=np.zeros((3, 3)), W=np.diag([-1.0, 0.0, 0.0]),
                    C=np.array([[1.0, 0.0, 0.0]]), Q=np.array([[1.0]]))
    state = kf_init(model)
    before = (state.mean.copy(), state.cov.copy())
    with pytest.raises(NumericError, match="condition estimate inf"):
        kf_step(model, state, np.zeros(1))
    np.testing.assert_array_equal(state.mean, before[0])
    np.testing.assert_array_equal(state.cov, before[1])
    with pytest.raises(NumericError, match="condition estimate inf"):
        kf_run(model, np.zeros((3, 1)))


def _fitted_session(frames, seed):
    """A filter fit on a synth session's train split, and the whole
    session's standardized features."""
    session = synth_generate(frames, seed=seed)
    train, _ = split_train_val(session)
    std = Standardizer.fit(train)
    ftr, vtr = std.apply(train)
    model = kf_fit(ftr.astype(np.float64), vtr.astype(np.float64))
    return model, std.apply_features(session.features).astype(np.float64)


def _joseph_step(model, mean, cov, observation):
    """One step of the covariance form, ``S = C P Cᵀ + Q`` solved and the
    Joseph covariance update: the recursion the information form must
    reproduce.  Returns ``(mean, cov)``."""
    mean_pred = model.A @ mean
    cov_pred = model.A @ cov @ model.A.T + model.W
    S = model.C @ cov_pred @ model.C.T + model.Q
    gain = np.linalg.solve(S, model.C @ cov_pred).T
    mean = mean_pred + gain @ (observation - model.C @ mean_pred)
    shrink = np.eye(3) - gain @ model.C
    cov = shrink @ cov_pred @ shrink.T + gain @ model.Q @ gain.T
    mean[2] = 1.0
    return mean, (cov + cov.T) / 2.0


def test_run_matches_joseph_form_recursion():
    """A fitted filter decodes a synth session as the Joseph-form
    recursion does, to rounding."""
    for seed, frames in ((11, 2000), (12, 1500)):
        model, features = _fitted_session(frames, seed)
        mean, cov = np.array([0.0, 0.0, 1.0]), np.eye(3)
        want = np.empty((len(features), 2))
        for t, observation in enumerate(features):
            mean, cov = _joseph_step(model, mean, cov, observation)
            want[t] = mean[:2]
        np.testing.assert_allclose(kf_run(model, features), want,
                                   rtol=0.0, atol=1e-10)


def test_run_equals_step_loop_byte_for_byte():
    """``kf_run`` checks the features once, then runs the update a
    ``kf_step`` loop runs: the same bytes."""
    model, features = _fitted_session(1500, seed=13)
    state, steps = kf_init(model), np.empty((len(features), 2))
    for t, observation in enumerate(features):
        state, steps[t] = kf_step(model, state, observation)
    assert kf_run(model, features).tobytes() == steps.tobytes()


def test_fitted_model_decodes_without_svd(monkeypatch):
    """The condition number of ``Q`` is taken once, by the constructor:
    decoding takes no condition number and no SVD."""
    model, features = _fitted_session(1500, seed=12)
    calls = _counting(monkeypatch, "cond", "svd")
    kf_run(model, features)
    assert calls == []
    dataclasses.replace(model)
    assert calls == ["cond"]


def test_derived_fields_follow_q_and_c(tmp_path):
    """``q_cond``, ``CtQi`` and ``M`` are derived by the constructor, so
    ``replace`` derives them again; they are not compared, and a ``kf``
    checkpoint stores only the matrices of ``KF_ARRAYS``."""
    model = KfModel(**_matrices(Q=np.diag([1.0, 2.0, 4.0, 8.0])))
    assert model.q_cond == pytest.approx(8.0)
    assert model.CtQi.flags.c_contiguous
    np.testing.assert_allclose(model.CtQi,
                               np.tile([1.0, 0.5, 0.25, 0.125], (3, 1)))
    np.testing.assert_allclose(model.M, np.full((3, 3), 1.875))
    wider = dataclasses.replace(model, C=2.0 * model.C)
    np.testing.assert_allclose(wider.M, 4.0 * model.M)
    singular = dataclasses.replace(model, Q=np.diag([1.0, 1.0, 1.0, 1e-13]))
    assert singular.q_cond > _COND_LIMIT
    assert singular.CtQi is None and singular.M is None

    derived = [f.name for f in dataclasses.fields(KfModel)
               if not (f.init or f.compare or f.repr)]
    assert derived == ["q_cond", "CtQi", "M"]
    twin = dataclasses.replace(model)
    object.__setattr__(twin, "M", -model.M)
    assert twin == model

    path = tmp_path / "k.ckpt"
    std = Standardizer(feat_mean=np.zeros(4), feat_std=np.ones(4),
                       vel_mean=np.zeros(2), vel_std=np.ones(2))
    save_kf(path, model, std)
    meta, arrays = container.read(path, container.KF)
    assert [k for k in arrays if k.startswith("kf.")] == \
        [f"kf.{name}" for name in KF_ARRAYS]
    assert set(meta) == {"ridge", "extra"}


@st.composite
def _innovations(draw):
    """A filter's ``C`` and ``Q``, a predicted covariance ``P``, the kind
    of ``P``, and ``det(I + P M)`` for the near-singular kind (else None).

    ``Q`` is exactly symmetric with condition 1 to 1e14, ``C`` at scales
    from 1e-3 to 1e3, and ``P`` positive semi-definite, indefinite,
    slightly asymmetric, or negative along one direction by just less
    than what makes ``I + P M`` (and so ``S``) singular; all but the last
    at scales from 1e-6 to 1e6."""
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
        # with P = -s·e·eᵀ and u = C·e, det(I + P M) = 1 - s·uᵀ Q⁻¹ u
        e = root[0]
        u = C @ e
        margin = 10.0 ** draw(st.floats(-20, 0))
        s = (1.0 - margin) / (u @ np.linalg.solve(Q, u))
        return C, Q, -s * np.outer(e, e), kind, margin
    P = root @ root.T if kind != "indefinite" else root + root.T
    if kind == "asymmetric":
        P = P + 10.0 ** draw(st.floats(-12, -1)) * rng.normal(size=(3, 3))
    return C, Q, P * 10.0 ** draw(st.floats(-6, 6)), kind, None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_innovations())
def test_one_step_matches_covariance_form(case):
    """One information-form step against the covariance form.

    A numerically singular ``Q`` or ``I + P M`` is refused.  Where ``P``
    is positive semi-definite and both forms are well conditioned (``Q``,
    ``S`` and ``I + P M`` within 1e6), the step matches the Joseph-form
    step to 1e-8 relative; any other step is refused or finite.  The condition of ``I + P M`` bounds the
    comparison because the information form loses about that many ulps:
    with two channels and very informative frames it can reach 1e11 while
    ``S`` stays near 1."""
    C, Q, P, kind, det_g = case
    model = KfModel(A=np.eye(3), W=np.zeros((3, 3)), C=C, Q=Q)
    mean = np.array([0.3, -0.2, 1.0])
    observation = np.linspace(-1.0, 1.0, len(C))
    def step():
        return kf_step(model, KfState(mean=mean, cov=P), observation)[0]

    q_cond = np.linalg.cond(Q)
    if q_cond > _COND_LIMIT or (det_g is not None and det_g < 1e-14):
        with pytest.raises(NumericError, match="cond"):
            step()
        return
    if not (kind == "psd" and q_cond <= 1e6
            and np.linalg.cond(C @ P @ C.T + Q) <= 1e6
            and np.linalg.cond(np.eye(3) + P @ model.M, 1) <= 1e6):
        with contextlib.suppress(NumericError):
            state = step()
            assert np.isfinite(state.mean).all()
            assert np.isfinite(state.cov).all()
        return
    state = step()
    want_mean, want_cov = _joseph_step(model, mean, P, observation)
    for got, want in ((state.mean, want_mean), (state.cov, want_cov)):
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def test_fit_and_run_same_bytes_at_1_and_4_threads():
    """``kf_fit`` and ``kf_run`` give the same bytes at 1 and 4 BLAS
    threads, each run in a fresh process."""
    def run(threads):
        env = dict(os.environ,
                   OMP_NUM_THREADS=str(threads),
                   OPENBLAS_NUM_THREADS=str(threads),
                   MKL_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", _THREAD_JOB], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        return proc.stdout.strip()

    assert run(1) == run(4), "Kalman filter differs across BLAS threads"


_THREAD_JOB = """
import hashlib
import numpy as np
from snndecode.data import Standardizer, split_train_val, synth_generate
from snndecode.kalman import KF_ARRAYS, kf_fit, kf_run

train, val = split_train_val(synth_generate(12000, seed=3))
std = Standardizer.fit(train)
ftr, vtr = std.apply(train)
model = kf_fit(ftr.astype(np.float64), vtr.astype(np.float64))
out = kf_run(model, std.apply_features(val.features).astype(np.float64))
digest = hashlib.sha256(out.tobytes())
for name in KF_ARRAYS:
    digest.update(getattr(model, name).tobytes())
print(digest.hexdigest())
"""


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
    pytest.param({**_matrices(), "ridge": True}, "ridge", id="bool-ridge"),
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
    """An observation of another shape is refused before any arithmetic,
    by ``kf_step`` and by ``kf_run``'s check of the whole array alike."""
    model = KfModel(**_matrices())
    message = re.escape(f"expected an observation of shape (4,), got {shape}")
    with pytest.raises(ValueError, match=message):
        kf_step(model, kf_init(model), np.zeros(shape))
    with pytest.raises(ValueError, match=message):
        kf_run(model, np.zeros((2, *shape)))
