"""Reduced-rank t model for irregularly sampled curves.

Each curve i contributes observations x_i = B_i theta + B_i Xi z_i + sigma eps_i,
where B_i is the spline design matrix on the curve's own time grid, Xi = H Lam^{1/2}
holds the component loadings, and (z_i, eps_i) is jointly multivariate t with nu
degrees of freedom (nu = inf gives the Normal reduced-rank model). Marginally
x_i ~ t_nu(B_i theta, Sigma_i) with Sigma_i = B_i Xi Xi^T B_i^T + sigma2 I.

Estimation is by EM with closed-form updates; atypical curves are downweighted
through the factors (nu + m_i) / (nu + s_i), where s_i is the squared Mahalanobis
distance of the curve from the model mean.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln

from .basis import SplineBasis
from .errors import (
    ConditioningError,
    DegenerateFitError,
    DimensionMismatchError,
    InvalidParamsError,
    NumericalOverflowError,
)

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """One subject's irregular (time, value) record."""

    id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise DimensionMismatchError(
                f"curve {self.id!r}: times and values must be equal-length vectors"
            )
        if times.size < 1:
            raise ValueError(f"curve {self.id!r}: needs at least one observation")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError(f"curve {self.id!r}: times and values must be finite")
        if np.any(np.diff(times) < 0):
            raise ValueError(f"curve {self.id!r}: times must be nondecreasing")

    @property
    def m(self) -> int:
        return self.times.size


class _DesignStats(NamedTuple):
    """Per-curve sufficient statistics; everything the EM loop needs."""

    m: np.ndarray      # (n,) observation counts
    btb: np.ndarray    # (n, p, p) B_i^T B_i
    btx: np.ndarray    # (n, p) B_i^T x_i
    xtx: np.ndarray    # (n,) x_i^T x_i
    total_obs: int


class Dataset:
    """A collection of trajectories sharing one spline basis."""

    def __init__(self, trajectories: Sequence[Trajectory], basis: SplineBasis):
        trajectories = list(trajectories)
        if not trajectories:
            raise ValueError("dataset needs at least one trajectory")
        ids = [t.id for t in trajectories]
        if len(set(ids)) != len(ids):
            raise ValueError("trajectory ids must be unique")
        a, b = basis.domain
        for t in trajectories:
            if t.times.min() < a or t.times.max() > b:
                raise ValueError(
                    f"curve {t.id!r} has times outside the basis domain [{a}, {b}]"
                )
        self.trajectories = trajectories
        self.basis = basis

    @property
    def n(self) -> int:
        return len(self.trajectories)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def design_matrices(self) -> list[np.ndarray]:
        # One basis evaluation on the pooled time vector, then split per curve.
        times = np.concatenate([t.times for t in self.trajectories])
        B = self.basis.design_matrix(times)
        offsets = np.cumsum([t.m for t in self.trajectories])[:-1]
        return np.split(B, offsets, axis=0)

    @cached_property
    def design_stats(self) -> _DesignStats:
        n, p = self.n, self.basis.dimension
        m = np.array([t.m for t in self.trajectories])
        btb = np.empty((n, p, p))
        btx = np.empty((n, p))
        xtx = np.empty(n)
        designs = self.design_matrices
        for i, traj in enumerate(self.trajectories):
            B = designs[i]
            btb[i] = B.T @ B
            btx[i] = B.T @ traj.values
            xtx[i] = traj.values @ traj.values
        return _DesignStats(m, btb, btx, xtx, int(m.sum()))

    def drop(self, index: int) -> "Dataset":
        """Dataset without curve ``index``, reusing cached design statistics."""
        sub = Dataset(
            self.trajectories[:index] + self.trajectories[index + 1 :], self.basis
        )
        if "design_stats" in self.__dict__:
            s = self.design_stats
            keep = np.arange(self.n) != index
            sub.__dict__["design_stats"] = _DesignStats(
                s.m[keep], s.btb[keep], s.btx[keep], s.xtx[keep],
                int(s.total_obs - s.m[index]),
            )
        return sub


@dataclass(frozen=True)
class ModelConfig:
    """Fit configuration: t degrees of freedom, model dimension, penalties,
    and EM stopping rule. ``nu=math.inf`` selects the Normal model."""

    nu: float = 1.0
    d: int = 0
    mean_penalty: float = 0.0
    component_penalties: float | Sequence[float] = 0.0
    max_iter: int = 2000
    tol: float = 1e-8
    seed: int = 0
    deep_convergence: bool = False

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError(f"nu must be positive or inf, got {self.nu}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.mean_penalty < 0:
            raise ValueError("mean_penalty must be >= 0")
        if np.any(np.asarray(self.component_penalties, dtype=float) < 0):
            raise ValueError("component_penalties must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")

    def component_penalty_vector(self, d: int | None = None) -> np.ndarray:
        d = self.d if d is None else d
        alphas = np.asarray(self.component_penalties, dtype=float)
        if alphas.ndim == 0:
            return np.full(d, float(alphas))
        if alphas.size < d:
            raise ValueError(
                f"component_penalties has {alphas.size} entries, need {d}"
            )
        return alphas[:d].astype(float)

    @property
    def penalized(self) -> bool:
        return self.mean_penalty > 0 or np.any(
            np.asarray(self.component_penalties, dtype=float) > 0
        )


@dataclass(frozen=True)
class ModelParams:
    """Fitted parameters: mean coefficients, loadings, noise variance.

    ``xi`` and (``H``, ``lam``) describe the same loadings: xi = H diag(lam)^{1/2}
    with H orthonormal in the Gram-matrix metric and lam descending.
    """

    theta: np.ndarray
    xi: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    sigma2: float
    nu: float
    basis: SplineBasis

    def __post_init__(self):
        p = self.basis.dimension
        if self.theta.shape != (p,):
            raise InvalidParamsError(f"theta must have shape ({p},)")
        d = self.H.shape[1] if self.H.ndim == 2 else -1
        if self.H.shape != (p, d) or self.xi.shape != (p, d) or self.lam.shape != (d,):
            raise InvalidParamsError("xi, H, lam have inconsistent shapes")
        if not (self.sigma2 > 0):
            raise InvalidParamsError(f"sigma2 must be positive, got {self.sigma2}")
        if not (self.nu > 0):
            raise InvalidParamsError(f"nu must be positive or inf, got {self.nu}")
        if d > 0:
            if np.any(self.lam <= 0) or np.any(np.diff(self.lam) > 0):
                raise InvalidParamsError("lam must be positive and descending")
            J = self.basis.gram_matrix
            if not np.allclose(self.H.T @ J @ self.H, np.eye(d), atol=1e-8):
                raise InvalidParamsError("H is not orthonormal in the J metric")
            hlh = (self.H * self.lam) @ self.H.T
            xxt = self.xi @ self.xi.T
            scale = max(1.0, np.linalg.norm(xxt))
            if np.linalg.norm(xxt - hlh) > 1e-8 * scale:
                raise InvalidParamsError("xi and (H, lam) are inconsistent")

    @property
    def d(self) -> int:
        return self.H.shape[1]

    @property
    def p(self) -> int:
        return self.basis.dimension

    @classmethod
    def from_xi(cls, theta, xi, sigma2, nu, basis) -> "ModelParams":
        """Build canonical parameters from raw loadings via orthonormalization."""
        H, lam = orthonormalize(xi, basis.gram_matrix)
        return cls(
            theta=np.asarray(theta, dtype=float),
            xi=H * np.sqrt(lam),
            H=H,
            lam=lam,
            sigma2=float(sigma2),
            nu=float(nu),
            basis=basis,
        )

    def mean(self, times) -> np.ndarray:
        """Model mean evaluated at ``times``."""
        return self.basis.eval_function(self.theta, times)

    def components(self, times) -> np.ndarray:
        """Principal component functions evaluated at ``times`` (columns)."""
        return self.basis.design_matrix(times) @ self.H


@dataclass(frozen=True)
class PosteriorStats:
    """Per-curve conditional quantities at given parameters."""

    zhat: np.ndarray   # predicted standardized scores, length d
    V: np.ndarray      # d x d posterior precision factor I + Xi^T B^T B Xi / sigma2
    s: float           # squared Mahalanobis distance
    weight: float      # (nu + m) / (nu + s), or 1 under the Normal model


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    loglik_trace: np.ndarray
    converged: bool
    iterations: int
    per_curve: list[PosteriorStats]
    stages: tuple["FitResult", ...] = field(default=(), repr=False)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def robust_weight(nu: float, m, s):
    """Downweighting factor (nu + m) / (nu + s); exactly 1 when nu is inf."""
    if math.isinf(nu):
        return np.ones_like(np.asarray(s, dtype=float)) if np.ndim(s) else 1.0
    return (nu + np.asarray(m)) / (nu + np.asarray(s))


def orthonormalize(xi: np.ndarray, J: np.ndarray):
    """Rotate raw loadings to J-orthonormal components with descending variances.

    Returns (H, lam) from the spectral decomposition of xi^T J xi; H lam H^T
    reproduces xi xi^T. Column signs are fixed so each component has a
    nonnegative J-weighted integral against the constant function (first
    coefficient breaks exact ties), making output reproducible.
    """
    xi = np.asarray(xi, dtype=float)
    p, d = xi.shape
    if d == 0:
        return np.zeros((p, 0)), np.zeros(0)
    A = xi.T @ J @ xi
    A = 0.5 * (A + A.T)
    evals, U = np.linalg.eigh(A)
    evals, U = evals[::-1], U[:, ::-1]
    if evals[-1] <= 0 or evals[-1] < 1e-12 * evals[0]:
        raise ConditioningError(
            "xi^T J xi is rank deficient; loadings do not span d directions"
        )
    H = (xi @ U) / np.sqrt(evals)
    ref = J @ np.ones(p)  # coefficient vector of the constant function is all ones
    for k in range(d):
        sgn = H[:, k] @ ref
        if abs(sgn) < 1e-12:
            sgn = H[0, k]
        if sgn < 0:
            H[:, k] = -H[:, k]
    return H, evals.copy()


def sigma_solve(params: ModelParams, design: np.ndarray, rhs: np.ndarray):
    """Solve Sigma_i @ sol = rhs and return (sol, log det Sigma_i).

    Uses the low-rank identity Sigma^{-1} = (I - G V^{-1} G^T / sigma2) / sigma2
    with G = B Xi and V = I + G^T G / sigma2, so the m x m covariance is never
    formed.
    """
    B = np.asarray(design, dtype=float)
    m, p = B.shape
    if p != params.p:
        raise DimensionMismatchError(f"design has {p} columns, basis has {params.p}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != m:
        raise DimensionMismatchError("rhs rows must match design rows")
    if not (params.sigma2 > 0):
        raise InvalidParamsError("sigma2 must be positive")
    sigma2 = params.sigma2
    G = B @ params.xi
    V = np.eye(params.d) + (G.T @ G) / sigma2
    if params.d == 0:
        return rhs / sigma2, m * math.log(sigma2)
    try:
        chol = cho_factor(V, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"V_i is not positive definite: {exc}") from exc
    sol = (rhs - G @ cho_solve(chol, G.T @ rhs) / sigma2) / sigma2
    logdet = m * math.log(sigma2) + 2.0 * np.log(np.diag(chol[0])).sum()
    return sol, logdet


def mahalanobis(params: ModelParams, traj: Trajectory) -> float:
    """Squared distance of a curve from the model mean in the Sigma_i metric."""
    B = params.basis.design_matrix(traj.times)
    r = traj.values - B @ params.theta
    sol, _ = sigma_solve(params, B, r)
    return max(float(r @ sol), 0.0)


def posterior_stats(params: ModelParams, traj: Trajectory) -> PosteriorStats:
    """Predicted scores, their precision factor, distance and robust weight."""
    B = params.basis.design_matrix(traj.times)
    r = traj.values - B @ params.theta
    sol, _ = sigma_solve(params, B, r)
    G = B @ params.xi
    zhat = G.T @ sol
    V = np.eye(params.d) + (G.T @ G) / params.sigma2
    s = max(float(r @ sol), 0.0)
    return PosteriorStats(zhat=zhat, V=V, s=s, weight=float(robust_weight(params.nu, traj.m, s)))


# ---------------------------------------------------------------------------
# Batched E-step / M-step over the whole dataset
# ---------------------------------------------------------------------------

class _EStep(NamedTuple):
    A: np.ndarray        # (n, p, d) BtB @ xi
    xtbx: np.ndarray     # (n, d, d) Xi^T BtB Xi
    Vinv: np.ndarray     # (n, d, d)
    btr: np.ndarray      # (n, p) B^T (x - B theta)
    u: np.ndarray        # (n, d) Xi^T btr
    zhat: np.ndarray     # (n, d)
    rtr: np.ndarray      # (n,) squared residual norms
    s: np.ndarray        # (n,)
    w: np.ndarray        # (n,)
    ll_curve: np.ndarray # (n,) per-curve log density
    loglik: float


def _log_density(m: np.ndarray, nu: float, logdet: np.ndarray, s: np.ndarray) -> np.ndarray:
    if math.isinf(nu):
        return -0.5 * (m * LOG_2PI + logdet + s)
    # multivariate t_nu in dimension m:
    #   log Gamma((nu+m)/2) - log Gamma(nu/2) - (m/2) log(nu pi)
    #   - (1/2) log|Sigma| - ((nu+m)/2) log(1 + s/nu)
    return (
        gammaln(0.5 * (nu + m))
        - gammaln(0.5 * nu)
        - 0.5 * m * math.log(nu * math.pi)
        - 0.5 * logdet
        - 0.5 * (nu + m) * np.log1p(s / nu)
    )


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-curve matrix-vector products: (n, a, b) x (n, b) -> (n, a)."""
    return (M @ v[:, :, None])[:, :, 0]


def _estep(data: Dataset, theta, xi, sigma2, nu) -> _EStep:
    """Conditional quantities of every curve at the given parameters.

    All products over the (n, p, p) design blocks are flat matrix products
    over ``btb.reshape(n * p, p)``; only the d x d solves are batched.
    """
    stats = data.design_stats
    n, p = stats.btx.shape
    d = xi.shape[1]
    btb_rows = stats.btb.reshape(n * p, p)
    A = (btb_rows @ xi).reshape(n, p, d)
    # xtbx[i, k, l] = sum_p xi[p, k] A[i, p, l]: one product with xi (x) I_d,
    # whose row (p, j) and column (k, l) hold xi[p, k] [j == l]
    xi_kron_eye = (xi[:, None, :, None] * np.eye(d)[None, :, None, :]).reshape(p * d, d * d)
    xtbx = (A.reshape(n, p * d) @ xi_kron_eye).reshape(n, d, d)
    V = xtbx / sigma2
    V.reshape(n, d * d)[:, :: d + 1] += 1.0
    # slogdet and inv run the same LU factorization: a zero pivot, the only
    # case in which inv raises, shows here first as a zero sign
    sign, logdet_v = np.linalg.slogdet(V)
    if np.any(sign <= 0):
        bad = int(np.flatnonzero(sign <= 0)[0])
        raise ConditioningError(
            "V_i is numerically singular or indefinite for curve "
            f"{data.trajectories[bad].id!r}"
        )
    Vinv = np.linalg.inv(V)
    btheta = (btb_rows @ theta).reshape(n, p)
    btr = stats.btx - btheta
    u = btr @ xi
    zhat = _matvec(Vinv, u) / sigma2
    rtr = stats.xtx - 2.0 * (stats.btx @ theta) + btheta @ theta
    s = np.maximum((rtr - (u * zhat).sum(axis=1)) / sigma2, 0.0)
    w = np.ones(n) if math.isinf(nu) else (nu + stats.m) / (nu + s)
    logdet = stats.m * math.log(sigma2) + logdet_v
    ll = _log_density(stats.m, nu, logdet, s)
    return _EStep(A, xtbx, Vinv, btr, u, zhat, rtr, s, w, ll, float(ll.sum()))


def _resid2(e: _EStep) -> np.ndarray:
    """Squared norms of the curves' residuals from their predicted fits."""
    return np.maximum(
        e.rtr
        - 2.0 * (e.zhat * e.u).sum(axis=1)
        + (e.zhat * _matvec(e.xtbx, e.zhat)).sum(axis=1),
        0.0,
    )


def _whitened_terms(stats: _DesignStats, e: _EStep, sigma2: float):
    """Per-curve B_i^T Sigma_i^{-1} r_i, shape (n, p), and B_i^T Sigma_i^{-1} B_i,
    shape (n, p, p), by the low-rank identity behind ``sigma_solve``."""
    bt_sinv_r = (e.btr - _matvec(e.A, e.zhat)) / sigma2
    bt_sinv_b = (stats.btb - (e.A @ e.Vinv) @ e.A.transpose(0, 2, 1) / sigma2) / sigma2
    return bt_sinv_r, bt_sinv_b


def _mstep(stats: _DesignStats, e: _EStep, theta, xi, sigma2, alpha, alphas, P):
    """Closed-form updates, all E-quantities held at the current parameters."""
    n, p = stats.btx.shape
    d = xi.shape[1]
    w = e.w
    btb_flat = stats.btb.reshape(n, p * p)

    lhs_theta = (w @ btb_flat).reshape(p, p)
    rhs_theta = w @ (stats.btx - _matvec(e.A, e.zhat))
    if alpha > 0:
        lhs_theta = lhs_theta + 2.0 * alpha * P
    try:
        theta_new = np.linalg.solve(lhs_theta, rhs_theta)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"theta update system is singular: {exc}") from exc

    if d > 0:
        C = e.Vinv + w[:, None, None] * e.zhat[:, :, None] * e.zhat[:, None, :]
        # sum_i C_i (x) BtB_i: one (d*d x n)(n x p*p) product, blocks reordered
        # from (k, l, p, q) to (k, p, l, q)
        lhs = (
            (C.reshape(n, d * d).T @ btb_flat)
            .reshape(d, d, p, p)
            .transpose(0, 2, 1, 3)
            .reshape(d * p, d * p)
        )
        rhs = ((w[:, None] * e.zhat).T @ e.btr).reshape(d * p)
        for k in range(d):
            if alphas[k] > 0:
                blk = slice(k * p, (k + 1) * p)
                lhs[blk, blk] += 2.0 * alphas[k] * P
        try:
            vec = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"xi update system is singular: {exc}") from exc
        xi_new = vec.reshape(d, p).T
    else:
        xi_new = xi

    trace = e.Vinv.reshape(-1) @ e.xtbx.transpose(0, 2, 1).reshape(-1)
    num = float(w @ _resid2(e) + trace)
    if alpha > 0 or np.any(alphas > 0):
        # keep the penalized objective ascending: the penalty enters the scale
        # update with the same 1/sigma2 weighting as the residual sum
        num += 2.0 * _penalty_value(theta, xi, alpha, alphas, P)
    sigma2_new = num / stats.total_obs
    if sigma2_new <= 0:
        raise DegenerateFitError("sigma2 update is nonpositive; residuals vanished")
    return theta_new, xi_new, sigma2_new


def _penalty_value(theta, xi, alpha, alphas, P) -> float:
    if P is None:
        return 0.0
    val = alpha * float(theta @ P @ theta)
    for k in range(xi.shape[1]):
        if alphas[k] > 0:
            val += alphas[k] * float(xi[:, k] @ P @ xi[:, k])
    return val


def _check_finite(ll_curve: np.ndarray, data: Dataset) -> None:
    if not np.all(np.isfinite(ll_curve)):
        bad = int(np.flatnonzero(~np.isfinite(ll_curve))[0])
        raise NumericalOverflowError(
            f"log-likelihood is non-finite for curve {data.trajectories[bad].id!r}"
        )


_AITKEN_RATE_CAP = 0.999  # treat slower apparent rates as noise in the gap estimate


def _converged(trace: list, tol: float, deep: bool) -> bool:
    """EM stopping rule.

    The base rule stops once the relative objective change drops below tol,
    the classical EM criterion. In deep mode the Aitken-extrapolated
    remaining ascent (step * rate / (1 - rate)) must also fall below tol:
    the objective converges geometrically while parameters lag behind as the
    square root of the remaining ascent, so the base rule alone can stop far
    from the stationary point. Deep mode is what makes a tol=1e-10 fit land
    on the estimating equations to fixed-point accuracy.
    """
    if len(trace) < 3:
        return False
    step = abs(trace[-1] - trace[-2])
    if step / (abs(trace[-2]) + 1.0) >= tol:
        return False
    if not deep:
        return True
    prev = abs(trace[-2] - trace[-3])
    rate = min(step / prev, _AITKEN_RATE_CAP) if prev > 0 else 0.0
    return step * rate / (1.0 - rate) < tol


def _em_loop(data: Dataset, theta, xi, sigma2, nu, alpha, alphas, P, max_iter, tol,
             deep: bool = False):
    """Iterate EM updates until the objective stabilizes.

    Returns (theta, xi, sigma2, trace, converged, final E-step). The trace
    holds the (penalized) log-likelihood at each visited parameter value, so
    its last entry corresponds to the returned parameters.
    """
    stats = data.design_stats
    trace = []
    e = None
    for it in range(max_iter + 1):
        e = _estep(data, theta, xi, sigma2, nu)
        _check_finite(e.ll_curve, data)
        obj = e.loglik - _penalty_value(theta, xi, alpha, alphas, P) / sigma2
        trace.append(obj)
        if _converged(trace, tol, deep):
            return theta, xi, sigma2, np.array(trace), True, e
        if it == max_iter:
            break
        theta, xi, sigma2 = _mstep(stats, e, theta, xi, sigma2, alpha, alphas, P)
    return theta, xi, sigma2, np.array(trace), False, e


# ---------------------------------------------------------------------------
# Public likelihood / EM surface
# ---------------------------------------------------------------------------

def log_likelihood(params: ModelParams, data: Dataset) -> float:
    """Sum of per-curve t (or Gaussian, nu=inf) log densities."""
    e = _estep(data, params.theta, params.xi, params.sigma2, params.nu)
    _check_finite(e.ll_curve, data)
    return e.loglik


def em_step(params: ModelParams, data: Dataset, config: ModelConfig) -> ModelParams:
    """One EM update of (theta, xi, sigma2) from the given parameters.

    The degrees of freedom come from ``config`` (a hyperparameter, never
    estimated), so a warm start from another model's parameters is possible.
    """
    if params.d != config.d:
        raise DimensionMismatchError(
            f"params have d={params.d} but config requests d={config.d}"
        )
    alpha, alphas, P = _penalty_terms(config, data.basis, params.d)
    e = _estep(data, params.theta, params.xi, params.sigma2, config.nu)
    _check_finite(e.ll_curve, data)
    theta, xi, sigma2 = _mstep(
        data.design_stats, e, params.theta, params.xi, params.sigma2, alpha, alphas, P
    )
    return ModelParams.from_xi(theta, xi, sigma2, config.nu, data.basis)


def _penalty_terms(config: ModelConfig, basis: SplineBasis, d: int):
    alpha = float(config.mean_penalty)
    alphas = config.component_penalty_vector(d)
    P = basis.penalty_matrix if (alpha > 0 or np.any(alphas > 0)) else None
    return alpha, alphas, P


_INIT_TRIM = 0.25  # fraction of highest-distance curves excluded from the init scatter


def _init_new_column(data: Dataset, theta, xi, sigma2, nu) -> np.ndarray:
    """Seed the next loading column from the weighted residual scatter.

    Residual coefficient vectors come from a ridge-regularized projection of
    each curve's current residuals onto the basis; the column is the leading
    eigenvector of their weighted scatter in the Gram metric, scaled so its
    initial variance is sigma2 / 2. Under a t model the scatter additionally
    drops the quarter of curves with the largest Mahalanobis distances:
    outlying curves can otherwise hand the initializer a contamination
    direction whose EM basin the robust fit never escapes. The Normal-model
    initializer uses the plain scatter.
    """
    stats = data.design_stats
    p = theta.size
    e = _estep(data, theta, xi, sigma2, nu)
    btr_model = e.btr - _matvec(e.A, e.zhat)
    # ridge at the scale of the average design diagonal: boundary basis
    # directions with little data support would otherwise dominate the
    # projected-residual scatter through noise amplification
    ridge = np.trace(stats.btb, axis1=1, axis2=2) / p + 1e-12
    reg = stats.btb + ridge[:, None, None] * np.eye(p)
    coefs = np.linalg.solve(reg, btr_model[:, :, None])[:, :, 0]
    w = e.w
    if not math.isinf(nu) and data.n >= 8:
        cutoff = np.quantile(e.s, 1.0 - _INIT_TRIM)
        w = np.where(e.s <= cutoff, w, 0.0)
    J = data.basis.gram_matrix
    L = np.linalg.cholesky(J)
    scatter = (w[:, None] * coefs).T @ coefs
    M = L.T @ scatter @ L
    _, evecs = np.linalg.eigh(0.5 * (M + M.T))
    v = np.linalg.solve(L.T, evecs[:, -1])
    norm = math.sqrt(max(float(v @ J @ v), np.finfo(float).tiny))
    v = v / norm
    top = np.argmax(np.abs(v))
    if v[top] < 0:
        v = -v
    return v * math.sqrt(sigma2 / 2.0)


def _stage_result(data, theta, xi, sigma2, nu, trace, converged, e: _EStep) -> FitResult:
    """Canonicalize a converged stage and attach per-curve statistics.

    ``e`` is the E-step at (theta, xi, sigma2). Canonical loadings are
    xi Q with Q = xi^T J H / sqrt(lam) orthogonal, so predicted scores rotate
    to zhat Q and Xi^T B^T B Xi to Q^T (.) Q; distances and weights are
    rotation invariant.
    """
    params = ModelParams.from_xi(theta, xi, sigma2, nu, data.basis)
    Q = xi.T @ data.basis.gram_matrix @ params.H / np.sqrt(params.lam)
    zhat = e.zhat @ Q
    V = Q.T @ e.xtbx @ Q / params.sigma2
    V.reshape(data.n, params.d**2)[:, :: params.d + 1] += 1.0
    per_curve = [
        PosteriorStats(zhat=zhat[i], V=V[i], s=float(e.s[i]), weight=float(e.w[i]))
        for i in range(data.n)
    ]
    return FitResult(
        params=params,
        loglik_trace=trace,
        converged=converged,
        iterations=len(trace) - 1,
        per_curve=per_curve,
    )


def fit(data: Dataset, config: ModelConfig) -> FitResult:
    """Sequential fit of the reduced-rank t model up to dimension config.d.

    Starts from the mean-only model (theta = 0, sigma2 = mean squared value)
    and adds one component at a time, warm-starting each stage from the
    previous one. The returned result is the final stage; ``stages`` holds
    every intermediate fit in dimension order 0..d.
    """
    p = data.basis.dimension
    if config.d > p:
        raise DimensionMismatchError(f"d={config.d} exceeds basis dimension p={p}")
    if data.n < 2:
        raise ValueError("fit needs at least two curves")
    stats = data.design_stats
    sigma2 = float(stats.xtx.sum() / stats.total_obs)
    if sigma2 <= 0:
        raise DegenerateFitError("all observed values are zero; nothing to fit")
    theta = np.zeros(p)
    xi = np.zeros((p, 0))
    alpha = float(config.mean_penalty)
    alphas_full = config.component_penalty_vector()
    need_pen = alpha > 0 or np.any(alphas_full > 0)
    P = data.basis.penalty_matrix if need_pen else None

    stages: list[FitResult] = []
    for d_cur in range(config.d + 1):
        if d_cur > 0:
            col = _init_new_column(data, theta, xi, sigma2, config.nu)
            xi = np.column_stack([xi, col])
            # the new column starts with variance sigma2/2 taken out of the
            # noise budget; without the deduction the inflated noise level
            # masks outlying curves during the stage's early iterations
            sigma2 = sigma2 / 2.0
        theta, xi, sigma2, trace, converged, e = _em_loop(
            data, theta, xi, sigma2, config.nu,
            alpha, alphas_full[:d_cur], P, config.max_iter, config.tol,
            deep=config.deep_convergence,
        )
        stage = _stage_result(data, theta, xi, sigma2, config.nu, trace, converged, e)
        stages.append(stage)
        theta, xi, sigma2 = stage.params.theta, stage.params.xi, stage.params.sigma2

    final = stages[-1]
    return dataclasses.replace(
        final,
        converged=all(s.converged for s in stages),
        stages=tuple(stages),
    )


def fit_from(data: Dataset, config: ModelConfig, init: ModelParams) -> FitResult:
    """Continue EM from given parameters at fixed dimension (no stage growth).

    Fits the model requested by ``config``; ``init`` only supplies the
    starting point.
    """
    if init.d != config.d:
        raise DimensionMismatchError(
            f"init params have d={init.d} but config requests d={config.d}"
        )
    alpha, alphas, P = _penalty_terms(config, data.basis, config.d)
    theta, xi, sigma2, trace, converged, e = _em_loop(
        data, init.theta, init.xi, init.sigma2, config.nu,
        alpha, alphas, P, config.max_iter, config.tol,
        deep=config.deep_convergence,
    )
    return _stage_result(data, theta, xi, sigma2, config.nu, trace, converged, e)


# ---------------------------------------------------------------------------
# Estimating-equation residuals (fixed-point verification)
# ---------------------------------------------------------------------------

def estimating_equation_residuals(params: ModelParams, data: Dataset) -> np.ndarray:
    """Norms of the four maximum-likelihood estimating equations, each / n.

    Families: the mean-coefficient equation, the component ones
    (I - J H H^T) S_n eta_k, the variance identities eta_k^T S_n eta_k, and
    the noise-variance equation. All vanish at an exact fixed point of the
    unpenalized EM.
    """
    stats = data.design_stats
    n = data.n
    sigma2, d = params.sigma2, params.d
    e = _estep(data, params.theta, params.xi, sigma2, params.nu)

    bt_sinv_r, bt_sinv_b = _whitened_terms(stats, e, sigma2)
    eq1 = e.w @ bt_sinv_r
    S_n = -bt_sinv_b.sum(axis=0) + (e.w[:, None] * bt_sinv_r).T @ bt_sinv_r

    if d > 0:
        J = data.basis.gram_matrix
        proj = np.eye(params.p) - J @ params.H @ params.H.T
        eq2 = proj @ S_n @ params.H
        eq3 = np.einsum("pk,pq,qk->k", params.H, S_n, params.H)
    else:
        eq2 = np.zeros((params.p, 0))
        eq3 = np.zeros(0)

    tr_sinv = (stats.m - (d - np.trace(e.Vinv, axis1=1, axis2=2))) / sigma2
    eq4 = -0.5 * tr_sinv.sum() + 0.5 * float(e.w @ (_resid2(e) / sigma2**2))

    return np.array(
        [
            np.linalg.norm(eq1) / n,
            np.linalg.norm(eq2) / n,
            np.linalg.norm(eq3) / n,
            abs(eq4) / n,
        ]
    )
