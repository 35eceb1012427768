"""Linear Kalman-filter velocity decoder, the classical baseline.

State is ``[v1, v2, 1]`` — the two finger velocities plus a constant
bias component.  The transition and observation matrices are fit by
ordinary least squares on the training split, the noise covariances
from the fit residuals.  A :class:`KfModel` is frozen and its
constructor is its one rule, for a fitted, loaded or hand-built filter
alike.

Decoding is the standard predict/update recursion in information form.
With ``M = Cᵀ Q⁻¹ C``, derived once per model, the matrix inversion
lemma turns the update into::

    P⁺ = (I + P⁻ M)⁻¹ P⁻        x⁺ = x⁻ + P⁺ (Cᵀ Q⁻¹ z − M x⁻)

so a frame costs 3 × 3 algebra and one 3 × channels product, and no
channels × channels matrix is formed per frame.  ``P⁻`` itself is never
inverted: a fitted ``W`` has a zero bias row and column, so the bias
variance of ``P⁻`` shrinks about like 1/t.

The filter refuses a numerically singular innovation covariance
``S = C P⁻ Cᵀ + Q``.  Since ``det S = det Q · det(I + P⁻ M)`` (Sylvester's
identity), it checks the two factors: the condition number of ``Q``,
computed once when the model is built, and the 1-norm condition number
of the 3 × 3 ``I + P⁻ M`` on every frame.  Either one over
``_COND_LIMIT`` raises :class:`NumericError`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import NumericError

_COND_LIMIT = 1e12
_EYE = np.eye(3)

# The filter's matrices, in checkpoint order, each stored as ``kf.<name>``.
KF_ARRAYS = ("A", "W", "C", "Q")


@dataclass(frozen=True)
class KfModel:
    """Fitted filter matrices (in standardized units).

    Building one is the model's one rule: ``A`` and ``W`` are ``(3, 3)``,
    ``C`` is ``(channels, 3)`` with at least one channel and ``Q``
    ``(channels, channels)``, all finite float64 (the dtype
    :func:`kf_fit` gives), and ``ridge`` is a non-negative, finite
    number; anything else raises ``ValueError`` whose message starts
    with the field's name.

    The constructor also derives, once, what every step uses: ``q_cond``,
    the condition number of ``Q``, and, when that is within
    ``_COND_LIMIT``, ``CtQi = (Q⁻¹ C)ᵀ`` (3 × channels, C-contiguous) and
    ``M = CtQi @ C``, symmetrized.  Otherwise both are ``None`` and every
    step refuses the model.  The three are not stored by ``save_kf`` and
    not compared, and ``dataclasses.replace`` derives them again.
    """

    A: np.ndarray               # (3, 3) state transition
    W: np.ndarray               # (3, 3) process noise covariance
    C: np.ndarray               # (channels, 3) observation matrix
    Q: np.ndarray               # (channels, channels) observation noise
    ridge: float = 0.0          # regularizer used if the fit was deficient
    q_cond: float = field(init=False, compare=False, repr=False)
    CtQi: np.ndarray | None = field(init=False, compare=False, repr=False)
    M: np.ndarray | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        c = len(self.C) if getattr(self.C, "ndim", 0) == 2 else 0
        for name, want in zip(KF_ARRAYS,
                              ((3, 3), (3, 3), (max(c, 1), 3), (c, c))):
            arr = getattr(self, name)
            if not (getattr(arr, "dtype", None) == np.float64
                    and arr.shape == want and np.isfinite(arr).all()):
                raise ValueError(
                    f"{name} is {getattr(arr, 'dtype', type(arr))} of shape "
                    f"{np.shape(arr)}, not finite float64 of shape {want}")
        if isinstance(self.ridge, bool) or not (
                isinstance(self.ridge, (int, float))
                and 0.0 <= self.ridge < np.inf):
            raise ValueError(f"ridge={self.ridge!r} is not a non-negative, "
                             f"finite number")
        q_cond = float(np.linalg.cond(self.Q))
        CtQi = M = None
        if q_cond <= _COND_LIMIT:
            CtQi = np.ascontiguousarray(np.linalg.solve(self.Q, self.C).T)
            M = CtQi @ self.C
            M = (M + M.T) / 2.0
        for name, value in (("q_cond", q_cond), ("CtQi", CtQi), ("M", M)):
            object.__setattr__(self, name, value)


@dataclass
class KfState:
    mean: np.ndarray            # (3,)
    cov: np.ndarray             # (3, 3)


def _lstsq_rows(X, Y):
    """Solve ``M @ X.T = Y.T`` rows by least squares: returns (M, ridge)."""
    gram = X.T @ X
    ridge = 0.0
    if np.linalg.cond(gram) > _COND_LIMIT:
        ridge = 1e-8 * float(np.trace(gram)) / gram.shape[0]
        gram = gram + ridge * np.eye(gram.shape[0])
    M = np.linalg.solve(gram, X.T @ Y).T
    return M, ridge


def kf_fit(features: np.ndarray, velocities: np.ndarray) -> KfModel:
    """Fit filter matrices on a training split.

    ``features`` is (frames, channels) and ``velocities`` (frames, 2),
    both already standardized.  Rank-deficient regressions fall back to
    a small ridge penalty, reported in the returned model.
    """
    features = np.asarray(features, dtype=np.float64)
    velocities = np.asarray(velocities, dtype=np.float64)
    n = len(features)
    if n < 2 or len(velocities) != n:
        raise ValueError("need at least two aligned training frames")

    states = np.hstack([velocities, np.ones((n, 1))])      # (n, 3)

    A, ridge_a = _lstsq_rows(states[:-1], states[1:])
    A[2] = (0.0, 0.0, 1.0)                  # bias component is constant
    resid_a = states[1:] - states[:-1] @ A.T
    W = resid_a.T @ resid_a / (n - 1)

    C, ridge_c = _lstsq_rows(states, features)
    # in place: a second (frames, channels) temporary let glibc trim the
    # heap between the benchmark's Kalman chunks and slowed the next decode
    resid_c = states @ C.T
    np.subtract(features, resid_c, out=resid_c)
    Q = resid_c.T @ resid_c / n

    W = (W + W.T) / 2.0
    Q = (Q + Q.T) / 2.0
    # observation-noise floor: keeps the innovation covariance invertible
    # when residuals are (near-)degenerate, e.g. noiseless data; features
    # are standardized, so this is far below any real noise level
    Q += 1e-6 * np.eye(Q.shape[0])
    return KfModel(A=A, W=W, C=C, Q=Q, ridge=max(ridge_a, ridge_c))


def kf_init(model: KfModel) -> KfState:
    """Start-of-stream state: zero velocity, unit bias, unit covariance."""
    return KfState(mean=np.array([0.0, 0.0, 1.0]), cov=np.eye(3))


def _observations(model: KfModel, frames) -> np.ndarray:
    """``frames`` as finite float64 of shape (frames, channels), or
    ``ValueError`` naming the shape one frame should have."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1:] != (model.C.shape[0],):
        raise ValueError(f"expected an observation of shape "
                         f"({model.C.shape[0]},), got {frames.shape[1:]}")
    if not np.isfinite(frames).all():
        raise ValueError("observation contains non-finite values")
    return frames


def _update(model: KfModel, mean, cov, observation):
    """One checked predict/update cycle in information form; returns the
    new ``(mean, cov)`` without touching the arrays passed in."""
    cond = model.q_cond                         # Q's, then I + P⁻M's
    if cond <= _COND_LIMIT:
        mean_pred = model.A @ mean
        cov_pred = model.A @ cov @ model.A.T + model.W
        G = _EYE + cov_pred @ model.M
        try:
            Gi = np.linalg.inv(G)
            cond = np.abs(G).sum(0).max() * np.abs(Gi).sum(0).max()
        except np.linalg.LinAlgError:           # exactly singular
            cond = np.inf
    if not cond <= _COND_LIMIT:                 # NaN included
        raise NumericError(f"innovation covariance numerically singular "
                           f"(condition estimate {cond:.3e})")
    cov = Gi @ cov_pred
    mean = mean_pred + cov @ (model.CtQi @ observation - model.M @ mean_pred)
    cov = (cov + cov.T) / 2.0
    mean[2] = 1.0                               # pin the bias component
    return mean, cov


def kf_step(model: KfModel, state: KfState, observation: np.ndarray):
    """One predict/update cycle; returns ``(state', velocity_estimate)``.

    The passed-in state is not modified.  An observation of another shape,
    a state whose ``mean`` is not ``(3,)`` or whose ``cov`` is not
    ``(3, 3)``, or a NaN or an infinity in any of them raises
    ``ValueError`` before any arithmetic, so the caller can go on from the
    same state.  A model whose ``Q`` is numerically singular, or a frame
    whose ``I + P⁻ M`` is, raises :class:`NumericError` with that
    condition estimate (see the module docstring).
    """
    observation = _observations(model, np.asarray(observation)[None])[0]
    mean = np.asarray(state.mean, dtype=np.float64)
    cov = np.asarray(state.cov, dtype=np.float64)
    if mean.shape != (3,) or cov.shape != (3, 3):
        raise ValueError(f"expected a state whose mean has shape (3,) and "
                         f"cov shape (3, 3), got {mean.shape} and {cov.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("state contains non-finite values")
    mean, cov = _update(model, mean, cov, observation)
    return KfState(mean=mean, cov=cov), mean[:2].copy()


def kf_run(model: KfModel, features: np.ndarray) -> np.ndarray:
    """Decode a whole sequence from the start-of-stream state.

    The same recursion as a :func:`kf_step` loop, bit for bit, but the
    feature array is checked once, with :func:`kf_step`'s messages.
    """
    features = _observations(model, features)
    mean, cov = astuple(kf_init(model))
    out = np.empty((len(features), 2))
    for t, observation in enumerate(features):
        mean, cov = _update(model, mean, cov, observation)
        out[t] = mean[:2]
    return out
