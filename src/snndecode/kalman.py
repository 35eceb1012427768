"""Linear Kalman-filter velocity decoder, the classical baseline.

State is ``[v1, v2, 1]`` — the two finger velocities plus a constant
bias component.  The transition and observation matrices are fit by
ordinary least squares on the training split, the noise covariances
from the fit residuals.  Decoding is the standard predict/update
recursion with the Joseph-form covariance update, which keeps the
posterior covariance symmetric positive semi-definite.  A
:class:`KfModel` is frozen and its constructor is its one rule, for a
fitted, loaded or hand-built filter alike.

Every step refuses an innovation covariance ``S = C P Cᵀ + Q`` whose
condition number exceeds ``_COND_LIMIT``.  Computing that number exactly
is a full SVD of the channels × channels ``S``, several times the cost of
the rest of the step.  So the model keeps bounds on ``Q`` and ``C``,
computed once, and a step first bounds the singular values of ``S`` from
them and from the 3 × 3 predicted covariance ``P`` (Weyl's inequality).
When those bounds prove the condition number at most half the limit, the
SVD is skipped; otherwise the exact check runs.  Either way the same
frames are refused and the arithmetic of the update is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

_COND_LIMIT = 1e12

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

    The constructor also derives the bounds :func:`kf_step` certifies the
    innovation covariance from: ``q_lo`` and ``q_hi``, the extreme
    eigenvalues of ``Q``, and ``c2 = ‖C‖₂²``.  A ``Q`` that is not exactly
    symmetric or not positive definite gets ``q_lo = 0``, which certifies
    no frame.  They are not stored by ``save_kf`` and not compared, and
    ``dataclasses.replace`` derives them again.
    """

    A: np.ndarray               # (3, 3) state transition
    W: np.ndarray               # (3, 3) process noise covariance
    C: np.ndarray               # (channels, 3) observation matrix
    Q: np.ndarray               # (channels, channels) observation noise
    ridge: float = 0.0          # regularizer used if the fit was deficient
    q_lo: float = field(init=False, compare=False, repr=False)
    q_hi: float = field(init=False, compare=False, repr=False)
    c2: float = field(init=False, compare=False, repr=False)

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
        if not (isinstance(self.ridge, (int, float))
                and 0.0 <= self.ridge < np.inf):
            raise ValueError(f"ridge={self.ridge!r} is not a non-negative, "
                             f"finite number")
        q_lo = q_hi = 0.0
        if np.array_equal(self.Q, self.Q.T):
            q = np.linalg.eigvalsh(self.Q)
            q_lo, q_hi = max(float(q[0]), 0.0), float(q[-1])
        c = float(np.linalg.norm(self.C, 2))
        object.__setattr__(self, "q_lo", q_lo)
        object.__setattr__(self, "q_hi", q_hi)
        object.__setattr__(self, "c2", c * c)


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


def _certified(model: KfModel, P: np.ndarray) -> bool:
    """Whether ``S = C P Cᵀ + Q`` provably has condition at most
    ``_COND_LIMIT / 2``, from the model's bounds and the 3 × 3 ``P``.

    With ``Ps`` symmetric and ``a ≥ ‖P − Ps‖_F``, the eigenvalues of
    ``Q + C Ps Cᵀ`` lie in ``[q_lo + c2·min(p_lo, 0), q_hi + c2·max(p_hi,
    0)]`` and the rest of ``S`` has norm at most ``c2·a``, so by Weyl every
    singular value of ``S`` lies in ``[lo, hi]`` below.  The factor ½
    covers rounding in ``S`` and in its SVD.  Every step below is safe for
    any finite ``P``: nothing overflows with a warning.
    """
    if not np.isfinite(P).all():
        return False
    half = P / 2.0
    Ps = half + half.T
    p = np.linalg.eigvalsh(Ps)
    a = 3.0 * float(np.abs(P - Ps).max())   # ‖K‖_F ≤ 3·max|Kᵢⱼ| for 3 × 3
    p_lo, p_hi = float(p[0]), float(p[-1])
    lo = model.q_lo + model.c2 * min(p_lo, 0.0) - model.c2 * a
    hi = model.q_hi + model.c2 * max(p_hi, 0.0) + model.c2 * a
    return lo > 0.0 and hi <= 0.5 * _COND_LIMIT * lo


def kf_step(model: KfModel, state: KfState, observation: np.ndarray):
    """One predict/update cycle; returns ``(state', velocity_estimate)``.

    The passed-in state is not modified.  An observation of another shape,
    a state whose ``mean`` is not ``(3,)`` or whose ``cov`` is not
    ``(3, 3)``, or a NaN or an infinity in any of them raises
    ``ValueError`` before any arithmetic, so the caller can go on from the
    same state.  A numerically singular innovation covariance raises
    :class:`NumericError` with its condition estimate.  That estimate,
    a full SVD, runs only on frames the model's bounds do not certify
    (see :func:`_certified`); for a filter from :func:`kf_fit` that is
    rarely any frame.
    """
    observation = np.asarray(observation, dtype=np.float64)
    if observation.shape != (model.C.shape[0],):
        raise ValueError(
            f"expected an observation of shape ({model.C.shape[0]},), "
            f"got {observation.shape}"
        )
    if not np.isfinite(observation).all():
        raise ValueError("observation contains non-finite values")
    mean = np.asarray(state.mean, dtype=np.float64)
    cov = np.asarray(state.cov, dtype=np.float64)
    if mean.shape != (3,) or cov.shape != (3, 3):
        raise ValueError(
            f"expected a state whose mean has shape (3,) and cov shape "
            f"(3, 3), got {mean.shape} and {cov.shape}"
        )
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("state contains non-finite values")

    mean_pred = model.A @ mean
    cov_pred = model.A @ cov @ model.A.T + model.W

    c_cov = model.C @ cov_pred                  # (channels, 3), used twice
    S = c_cov @ model.C.T + model.Q
    if not _certified(model, cov_pred):
        cond = np.linalg.cond(S)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericError(
                f"innovation covariance numerically singular "
                f"(condition estimate {cond:.3e})"
            )
    gain = np.linalg.solve(S, c_cov).T    # (3, channels)

    innovation = observation - model.C @ mean_pred
    mean = mean_pred + gain @ innovation
    ident = np.eye(3)
    shrink = ident - gain @ model.C
    cov = shrink @ cov_pred @ shrink.T + gain @ model.Q @ gain.T
    cov = (cov + cov.T) / 2.0
    mean[2] = 1.0                               # pin the bias component

    new_state = KfState(mean=mean, cov=cov)
    return new_state, mean[:2].copy()


def kf_run(model: KfModel, features: np.ndarray) -> np.ndarray:
    """Decode a whole sequence from the start-of-stream state."""
    features = np.asarray(features, dtype=np.float64)
    state = kf_init(model)
    out = np.empty((len(features), 2))
    for t, obs in enumerate(features):
        state, out[t] = kf_step(model, state, obs)
    return out
