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
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ._special import log_gamma_ratio
from .basis import SplineBasis
from .errors import (
    ConditioningError,
    DegenerateFitError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidParamsError,
    NumericalOverflowError,
    OutOfDomainError,
    RfpcaError,
    check_integer,
    is_real,
)

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

class Trajectory(NamedTuple):
    """One curve of a ``Dataset``: its id and views of its rows of the
    pooled ``times`` and ``values``."""

    id: str
    times: np.ndarray
    values: np.ndarray

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


class Curves(NamedTuple):
    """Curves as pooled columns: curve i has id ``ids[i]`` and the next
    ``m[i]`` entries of ``times`` and ``values``, in time order."""

    ids: Sequence[str]  # (n,)
    times: np.ndarray   # (N,) every curve's times, curve after curve
    values: np.ndarray  # (N,)
    m: np.ndarray       # (n,) observation counts, summing to N


class Dataset:
    """Curves sharing one spline basis, stored as pooled columns.

    Built from ``Curves``, which ``read_long_csv`` and ``simulate_dataset``
    return. Curve i has id ``ids[i]`` and the rows
    ``offsets[i]:offsets[i + 1]`` of ``times`` and ``values``. Everything is
    checked once, on the pooled arrays; ``trajectories`` are views built on
    first use.
    """

    def __init__(self, curves: Curves, basis: SplineBasis):
        self.ids = list(curves.ids)
        self.times = np.asarray(curves.times, dtype=float)
        self.values = np.asarray(curves.values, dtype=float)
        self.m = np.asarray(curves.m, dtype=int)
        self.offsets = np.concatenate([[0], np.cumsum(self.m)])
        self.basis = basis
        self._validate()

    def _validate(self) -> None:
        """Check the pooled columns, raising for the first curve that fails."""
        ids, times, values, m = self.ids, self.times, self.values, self.m
        n = len(ids)
        if not n:
            raise InvalidInputError("dataset needs at least one trajectory")
        if times.ndim != 1 or times.shape != values.shape or m.shape != (n,) or (
            m.sum() != times.size
        ):
            raise DimensionMismatchError(
                "times and values must be equal-length vectors with sum(m) entries"
            )
        if (m < 1).any():
            raise InvalidInputError(
                f"curve {ids[int(np.argmax(m < 1))]!r}: needs at least one observation"
            )
        curve = np.repeat(np.arange(n), m)
        bad = ~(np.isfinite(times) & np.isfinite(values))
        if bad.any():
            raise InvalidInputError(
                f"curve {ids[curve[np.argmax(bad)]]!r}: times and values must be finite"
            )
        bad = (np.diff(times) < 0) & (curve[1:] == curve[:-1])
        if bad.any():
            raise InvalidInputError(
                f"curve {ids[curve[np.argmax(bad)]]!r}: times must be nondecreasing"
            )
        if len(set(ids)) != len(ids):
            seen: set = set()
            repeat = next(cid for cid in ids if cid in seen or seen.add(cid))
            raise InvalidInputError(f"trajectory ids must be unique; {repeat!r} repeats")
        a, b = self.basis.domain
        bad = (times < a) | (times > b)
        if bad.any():
            raise OutOfDomainError(
                f"curve {ids[curve[np.argmax(bad)]]!r} has times outside the basis "
                f"domain [{a}, {b}]"
            )

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def trajectories(self) -> list[Trajectory]:
        """The curves as ``Trajectory`` views of the pooled arrays."""
        bounds = self.offsets.tolist()
        return [
            Trajectory(cid, self.times[a:b], self.values[a:b])
            for cid, a, b in zip(self.ids, bounds[:-1], bounds[1:])
        ]

    @cached_property
    def pooled_design(self) -> np.ndarray:
        """Design matrix of the pooled times; curve i's block is its rows
        ``offsets[i]:offsets[i + 1]``."""
        return self.basis.design_matrix(self.times)

    @cached_property
    def design_stats(self) -> _DesignStats:
        """B_i^T B_i, B_i^T x_i and x_i^T x_i of every curve, as ``_value_stats``
        takes them: one batched product per distinct curve length."""
        btb = np.empty((self.n, self.basis.dimension, self.basis.dimension))
        btx, xtx = self._value_stats(self.values[None], btb)
        return _DesignStats(self.m, btb, btx[0], xtx[0], int(self.offsets[-1]))

    def _value_stats(
        self, values: np.ndarray, btb: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """B_i^T x_i, shape (G, n, p), and x_i^T x_i, shape (G, n), of G rows
        of pooled values, shape (G, N), observed at this dataset's times;
        also B_i^T B_i into ``btb``, shape (n, p, p), when it is given.

        The k curves of each length m are gathered into C-ordered blocks,
        (k, m, p) of the design and (G, k, m, 1) of the values, and each
        product is one stacked ``np.matmul`` per block, whose results go
        back into curve order. Every stack element is the BLAS call that its
        curve's contiguous rows take alone, so each statistic is bitwise the
        one its curve gives alone, whatever the memory layout of ``values``:
        a strided gather would take BLAS's strided kernels, whose sums
        differ in the last digits. A value statistic that overflows is left
        infinite, without a numpy warning, for the fit to report.
        """
        G, n, p = values.shape[0], self.n, self.basis.dimension
        order = np.argsort(self.m, kind="stable")
        m = self.m[order]
        cuts = [0, *(np.flatnonzero(np.diff(m)) + 1).tolist(), n]
        steps, m = np.arange(m[-1]), m.tolist()
        sorted_btx, sorted_xtx = np.empty((G, n, p, 1)), np.empty((G, n, 1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for c, e in zip(cuts[:-1], cuts[1:]):
                curves = order[c:e]
                rows = self.offsets[curves, None] + steps[: m[c]]  # (k, m)
                B = np.take(self.pooled_design, rows, axis=0)  # (k, m, p)
                Bt = B.transpose(0, 2, 1)
                if btb is not None:
                    btb[curves] = np.matmul(Bt, B)
                x = np.take(values, rows, axis=1)[..., None]  # (G, k, m, 1)
                np.matmul(Bt, x, out=sorted_btx[:, c:e])
                np.matmul(x.transpose(0, 1, 3, 2), x, out=sorted_xtx[:, c:e])
        btx, xtx = np.empty((G, n, p)), np.empty((G, n))
        btx[:, order], xtx[:, order] = sorted_btx[..., 0], sorted_xtx[..., 0, 0]
        return btx, xtx

    def log_density_constant(self, nu: float) -> np.ndarray:
        """Per-curve terms of the log density that depend only on (m_i, nu):
        m_i log(2 pi) for the Normal model, else
        log Gamma((nu+m_i)/2) - log Gamma(nu/2) - (m_i/2) log(nu pi).

        With a = nu/2 and h = m_i/2 the t constant is evaluated as
        [log Gamma(a + h) - log Gamma(a) - h log a] - h log(2 pi), the
        bracket by recurrence in m_i (``log_gamma_ratio``): no two large
        terms are subtracted, so the constant is within 1e-14 relative of
        its exact value at every tested (nu, m_i) and is exactly
        -h log(2 pi) once nu is so large that the bracket rounds away.
        """
        m = self.m
        if math.isinf(nu):
            return m * LOG_2PI
        return log_gamma_ratio(m, 0.5 * nu) - 0.5 * m * LOG_2PI


@dataclass(frozen=True)
class ModelConfig:
    """Fit configuration: t degrees of freedom, model dimension, roughness
    penalty (on the mean and every component alike) and EM stopping rule.
    ``nu=math.inf`` selects the Normal model."""

    nu: float = 1.0
    d: int = 0
    penalty: float = 0.0
    max_iter: int = 2000
    tol: float = 1e-8

    def __post_init__(self):
        if not (is_real(self.nu) and self.nu > 0):
            raise InvalidInputError(f"nu must be positive or inf, got {self.nu!r}")
        check_integer("d", self.d)
        if self.d < 0:
            raise InvalidInputError(f"d must be >= 0, got {self.d}")
        if not (is_real(self.penalty) and 0 <= self.penalty < math.inf):
            raise InvalidInputError(f"penalty must be finite and >= 0, got {self.penalty!r}")
        check_integer("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be >= 1")
        if not (is_real(self.tol) and 0 < self.tol < math.inf):
            raise InvalidInputError(f"tol must be positive and finite, got {self.tol!r}")


@dataclass(frozen=True)
class ModelParams:
    """Fitted parameters: mean coefficients, loadings, noise variance.

    The loadings are (``H``, ``lam``): H orthonormal in the Gram-matrix
    metric and lam descending; ``xi`` = H diag(lam)^{1/2} is derived from them.
    """

    theta: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    sigma2: float
    nu: float
    basis: SplineBasis

    def __post_init__(self):
        if not is_real(self.sigma2):
            raise InvalidParamsError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        errors = _params_errors(
            self.theta[None], self.H[None], self.lam[None], np.array([self.sigma2]), self.nu,
            self.basis,
        )
        if errors:
            raise errors[0]

    @property
    def xi(self) -> np.ndarray:
        """Raw loadings H diag(lam)^{1/2}, shape (p, d)."""
        return self.H * np.sqrt(self.lam)

    @property
    def d(self) -> int:
        return self.H.shape[1]

    @property
    def p(self) -> int:
        return self.basis.dimension

    @classmethod
    def from_xi(cls, theta, xi, sigma2, nu, basis) -> "ModelParams":
        """Build canonical parameters from one model's raw (p, d) loadings,
        rotated by ``_orthonormalize``. Raises ``ConditioningError`` when the
        loadings do not span d directions."""
        H, lam, deficient = _orthonormalize(np.asarray(xi, dtype=float)[None], basis.gram_matrix)
        if deficient[0]:
            raise ConditioningError(_RANK_DEFICIENT)
        return cls(
            theta=np.asarray(theta, dtype=float),
            H=H[0],
            lam=lam[0],
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
class FitResult:
    """A fitted stage. ``loglik_trace`` holds the objective (penalized when
    the fit is) at the first two iterates x0 and x1 of each SqS3 cycle, and
    at x2 when ``max_iter`` leaves no map after it;
    ``iterations`` counts EM-map evaluations and ``backtracks`` the
    extrapolated points rejected for the plain double step; ``loglik``,
    ``s`` and ``weights`` come from the E-step at the returned parameters."""

    params: ModelParams
    loglik_trace: np.ndarray
    converged: bool
    iterations: int
    backtracks: int
    loglik: float        # unpenalized log-likelihood
    s: np.ndarray        # (n,) squared Mahalanobis distances
    weights: np.ndarray  # (n,) robust weights (nu + m_i) / (nu + s_i)
    stages: tuple["FitResult", ...] = field(default=(), repr=False)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

_RANK_DEFICIENT = "xi^T J xi is rank deficient; loadings do not span d directions"


def _orthonormalize(xi: np.ndarray, J: np.ndarray):
    """Rotate a (G, p, d) stack of raw loadings to J-orthonormal components
    with descending variances.

    Returns H (G, p, d) and lam (G, d) from the spectral decompositions of
    the (G, d, d) stack xi^T J xi, so H lam H^T reproduces xi xi^T, and the
    (G,) mask of rank-deficient models, whose rows are placeholders. Column
    signs are fixed so each component has a nonnegative J-weighted integral
    against the constant function (first coefficient breaks exact ties),
    making output reproducible. Each model's rows are bitwise those of its
    own G = 1 call.
    """
    G, p, d = xi.shape
    if d == 0:
        return np.zeros((G, p, 0)), np.zeros((G, 0)), np.zeros(G, dtype=bool)
    evals, U, deficient = _spectrum(xi, J)
    evals = np.where(deficient[:, None], 1.0, evals)
    H = (xi @ U) / np.sqrt(evals)[:, None]
    ref = J @ np.ones(p)  # coefficient vector of the constant function is all ones
    sgn = ref @ H
    sgn = np.where(np.abs(sgn) < 1e-12, H[:, 0], sgn)
    H *= np.where(sgn < 0, -1.0, 1.0)[:, None]
    return H, evals, deficient


def _spectrum(xi: np.ndarray, J: np.ndarray):
    """Eigenvalues (descending) and eigenvectors of the (G, d, d) stack
    xi^T J xi of a (G, p, d) stack of raw loadings, and the (G,) mask of the
    models whose loadings do not span d directions: xi^T J xi is not finite
    (its rows are then placeholders), or its smallest eigenvalue is not
    positive or is below 1e-12 of the largest."""
    A = xi.transpose(0, 2, 1) @ J @ xi
    A = 0.5 * (A + A.transpose(0, 2, 1))
    finite = np.isfinite(A).all(axis=(1, 2))
    if not finite.all():
        A[~finite] = np.eye(A.shape[1])
    evals, U = np.linalg.eigh(A)
    evals, U = evals[:, ::-1], U[:, :, ::-1]
    deficient = ~finite | (evals[:, -1] <= 0) | (evals[:, -1] < 1e-12 * evals[:, 0])
    return evals, U, deficient


def _params_errors(theta, H, lam, sigma2, nu, basis) -> dict[int, InvalidParamsError]:
    """Check G models' parameters, stacked on a leading axis: theta (G, p),
    H (G, p, d), lam (G, d) and sigma2 (G,), sharing nu and basis.

    Raises ``InvalidParamsError`` for a stack of the wrong shapes; returns, by
    model, the error of the first check it fails: sigma2 positive and finite,
    nu > 0, theta, H and lam finite, lam positive and descending, and H
    orthonormal in the J metric.
    """
    G, p = len(sigma2), basis.dimension
    if theta.shape != (G, p):
        raise InvalidParamsError(f"theta must have shape ({p},)")
    d = H.shape[2] if H.ndim == 3 else -1
    if H.shape != (G, p, d) or lam.shape != (G, d):
        raise InvalidParamsError("H and lam have inconsistent shapes")
    errors = {
        g: InvalidParamsError(f"sigma2 must be positive and finite, got {sigma2[g]}")
        for g in np.flatnonzero(~((sigma2 > 0) & np.isfinite(sigma2))).tolist()
    }
    if not (is_real(nu) and nu > 0):
        for g in range(G):
            errors.setdefault(g, InvalidParamsError(f"nu must be positive or inf, got {nu}"))
    eye, Ht = np.eye(d), H.transpose(0, 2, 1)
    failed = np.stack([
        ~(np.isfinite(theta).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
          & np.isfinite(lam).all(axis=1)),
        (lam <= 0).any(axis=1) | (np.diff(lam, axis=1) > 0).any(axis=1),
        # np.allclose(H^T J H, I, atol=1e-8), NaN failing
        ~(np.abs(Ht @ basis.gram_matrix @ H - eye) <= 1e-8 + 1e-5 * eye).all(axis=(1, 2)),
    ])
    for g in np.flatnonzero(failed.any(axis=0)).tolist():
        errors.setdefault(g, InvalidParamsError(_PARAM_CHECKS[int(np.argmax(failed[:, g]))]))
    return errors


_PARAM_CHECKS = (
    "theta, H and lam must be finite",
    "lam must be positive and descending",
    "H is not orthonormal in the J metric",
)


def sigma_solve(params: ModelParams, design: np.ndarray, rhs: np.ndarray):
    """Solve Sigma_i @ sol = rhs and return (sol, log det Sigma_i).

    Uses the low-rank identity Sigma^{-1} = (I - G V^{-1} G^T / sigma2) / sigma2
    with G = B Xi and V = I + G^T G / sigma2, so the m x m covariance is never
    formed; V^{-1} and log det V come from the E-step's pivot sweep.
    """
    B = np.asarray(design, dtype=float)
    if B.ndim != 2:
        raise DimensionMismatchError(f"design must be an (m, p) matrix, got shape {B.shape}")
    m, p = B.shape
    if p != params.p:
        raise DimensionMismatchError(f"design has {p} columns, basis has {params.p}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[:1] != (m,):
        raise DimensionMismatchError("rhs rows must match design rows")
    sigma2 = params.sigma2
    G = B @ params.xi
    V = (np.eye(params.d) + (G.T @ G) / sigma2)[:, :, None, None]
    Vinv, logdet_v, failed = _sweep(V, lambda _: "design")
    if failed:
        raise failed[0]
    sol = (rhs - G @ (Vinv[:, :, 0, 0] @ (G.T @ rhs)) / sigma2) / sigma2
    return sol, m * math.log(sigma2) + float(logdet_v[0, 0])


# ---------------------------------------------------------------------------
# Model-batched E-step / M-step over the whole dataset
# ---------------------------------------------------------------------------

class _Batch(NamedTuple):
    """G models fitted in lockstep over one dataset's design blocks.

    Model g counts curve i in its objective, its M-step sums and its
    observation count when ``include[g, i]`` is 1; its E-step still evaluates
    every curve, so a left-out curve's log density is there to be read. The
    value statistics ``btx`` and ``xtx`` have one row shared by every model
    (cross-validation refits of one dataset) or one row per model (datasets
    observed at the same times, fitted together). The per-curve constants
    are shared (n,) rows that broadcast against the models' (G, n) rows.
    """

    data: Dataset          # owner of the design blocks, m and curve ids
    nu: float
    include: np.ndarray    # (G, n) 0/1
    wnum: np.ndarray       # (G, n) robust-weight numerators nu + m_i (1 when
                           # nu is inf), 0 at left-out curves
    total_obs: np.ndarray  # (G,) observations each model counts
    const: np.ndarray      # (n,) Dataset.log_density_constant(nu)
    half_nu_m: np.ndarray  # (n,) (nu + m_i) / 2; unused when nu is inf
    btb_rows: np.ndarray   # (p, n * p) view of the design blocks, for the E-step
    btb_flat: np.ndarray   # (n, p * p) view of the design blocks, for the M-step
    btx: np.ndarray        # (1 or G, n, p) B_i^T x_i
    xtx: np.ndarray        # (1 or G, n) x_i^T x_i
    sigma2_floor: np.ndarray  # (G,) (eps * RMS of the counted values)^2, rounding level
    alpha: float           # every model's roughness penalty weight
    P: np.ndarray | None   # (p, p) penalty matrix, None when alpha is 0

    def select(self, keep) -> "_Batch":
        """The batch of the models ``keep`` selects."""
        values = {}
        if self.btx.shape[0] > 1:
            values = {"btx": self.btx[keep], "xtx": self.xtx[keep]}
        return self._replace(
            include=self.include[keep], wnum=self.wnum[keep], total_obs=self.total_obs[keep],
            sigma2_floor=self.sigma2_floor[keep], **values,
        )


def _batch(
    data: Dataset, nu: float, include: np.ndarray | None = None, values=None,
    penalty: float = 0.0,
) -> _Batch:
    """Batch over ``data``'s design; the default is one unpenalized model
    counting every curve. ``values`` is a (btx, xtx) pair of per-model value
    statistics, default ``data``'s own as one shared row."""
    stats = data.design_stats
    if include is None:
        include = np.ones((1, data.n))
    if values is None:
        values = (stats.btx[None], stats.xtx[None])
    nu_m = nu + stats.m
    wnum = include if math.isinf(nu) else nu_m * include
    n, p = stats.btx.shape
    total_obs = include @ stats.m
    floor = np.finfo(float).eps ** 2 * (include * values[1]).sum(axis=1) / total_obs
    alpha = float(penalty)
    return _Batch(
        data, nu, include, wnum, total_obs, data.log_density_constant(nu), 0.5 * nu_m,
        stats.btb.reshape(n * p, p).T, stats.btb.reshape(n, p * p), *values, floor,
        alpha, data.basis.penalty_matrix if alpha > 0 else None,
    )


def _per_model(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row g of the (G, k) array ``a`` times model g's matrix of the stack
    ``x``; a stack of one matrix is shared by every model and takes one
    product."""
    if x.shape[0] == 1:
        return a @ x[0]
    return (a[:, None] @ x)[:, 0]


def _phi(theta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """One model's parameter rows [xi^T; theta], shape (1, d + 1, p)."""
    return np.concatenate([xi.T, theta[None]])[None]


class _EStep(NamedTuple):
    """Conditional quantities of every (model, curve) slot of a batch.

    Slots are model-major, and blocks of size d come first with the slot
    axes (G, n) last, so every d x d operation, the sweep included, runs on
    contiguous rows of G * n slots. ``A`` and ``btr`` are per-model design
    products and keep the model axis first. ``model(g)`` drops the model
    axis.
    """

    A: np.ndarray        # (G, d, n, p) BtB @ xi
    Vinv: np.ndarray     # (d, d, G, n), 0 at left-out curves
    btr: np.ndarray      # (G, n, p) B^T (x - B theta)
    zhat_dn: np.ndarray  # (d, G, n) posterior means of z
    resid2: np.ndarray   # (G, n) squared norms of the residuals from the predicted fits
    trace: np.ndarray    # (G,) sum_i tr(V_i^{-1} Xi^T BtB_i Xi) over counted curves
    s: np.ndarray        # (G, n)
    w: np.ndarray        # (G, n), 0 at left-out curves
    ll_curve: np.ndarray # (G, n) per-curve log density
    loglik: np.ndarray   # (G,) sum over each model's counted curves

    def model(self, g: int) -> "_EStep":
        """Model g's quantities without the model axis (views)."""
        return _EStep._make([f[index + (g,)] for f, index in zip(self, _ESTEP_MODEL_INDEX)])


# the slices over the axes before the model axis of each _EStep field, so
# that field[index + (rows,)] takes or sets those models' rows of the field
_ESTEP_MODEL_INDEX = _EStep(*(
    (slice(None),) * axis for axis in (0, 2, 0, 1, 0, 0, 0, 0, 0, 0)
))


def _sweep(V: np.ndarray, curve_id: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray, dict]:
    """Invert a (d, d, G, n) stack of symmetric positive definite matrices,
    G models' V_i, by sweeping its d pivots (Goodnight 1979, Am. Stat. 33:149).

    Returns (V^{-1}, log det V), both from the one elimination: the pivots are
    the successive Schur complements, whose product is det V. ``V`` is
    overwritten. Also returns, by model, a ``ConditioningError`` naming
    ``curve_id`` of a model's first curve with a nonpositive pivot, at its
    first such pivot; before any division by it, that model's matrices are
    reset to the identity, so the sweep goes on for the others.
    """
    d = V.shape[0]
    pivots = np.empty(V.shape[1:])
    failed = {}
    for k in range(d):
        bad = V[k, k] <= 0
        if bad.any():
            for g in np.flatnonzero(bad.any(axis=1)).tolist():
                failed[g] = ConditioningError(
                    "V_i is numerically singular or indefinite for curve "
                    f"{curve_id(int(np.argmax(bad[g])))!r}"
                )
                V[:, :, g] = np.eye(d)[:, :, None]
        pivots[k] = V[k, k]
        r = 1.0 / pivots[k]
        row = V[k] * r
        col = V[:, k].copy()
        V -= col[:, None] * row[None]  # rank-1 update: the Schur complement
        V[k] = row
        V[:, k] = -col * r
        V[k, k] = r
    return V, np.log(pivots).sum(axis=0), failed


def _estep(batch: _Batch, phi: np.ndarray, sigma2: np.ndarray, out=None) -> tuple[_EStep, dict]:
    """Conditional quantities of every model's curves at its parameters, and
    by batch row the ``ConditioningError`` of each model whose sweep fails.

    ``phi`` (G, d + 1, p) holds each model's rows [xi^T; theta] and ``sigma2``
    is (G,). One pass over the (n, p, p) design blocks gives every model's
    BtB xi and BtB theta: a product of the stacked rows with
    ``btb.reshape(n * p, p)^T`` (each block is symmetric), which lands
    curve-axis-last without a transpose copy. Given ``out``, with n * p columns,
    the product fills its leading G * (d + 1) rows, which ``A`` and ``btr`` view.
    """
    data = batch.data
    n, p = batch.btx.shape[1:]
    G, d1, _ = phi.shape
    d = d1 - 1
    rows = None if out is None else out[: G * d1]
    prods = np.matmul(phi.reshape(G * d1, p), batch.btb_rows, out=rows).reshape(G, d1, n, p)
    A = prods[:, :d]
    btheta = prods[:, d]
    xi_rows = phi[:, :d]
    # xtbx[k, l, g, i] = xi_g[:, k] . A[g, l, i, :], a view of (G, d, d, n) rows
    xtbx = (
        (xi_rows @ A.reshape(G, d * n, p).transpose(0, 2, 1))
        .reshape(G, d, d, n)
        .transpose(1, 2, 0, 3)
    )
    sigma2_col = sigma2[:, None]
    V = np.divide(xtbx, sigma2_col, order="C")
    V.reshape(d * d, G * n)[:: d + 1] += 1.0
    Vinv, logdet_v, failed = _sweep(V, data.ids.__getitem__)
    theta = phi[:, d]
    rtr = (
        batch.xtx
        - 2.0 * _per_model(theta, batch.btx.transpose(0, 2, 1))
        + (btheta @ theta[..., None])[..., 0]
    )
    btr = np.subtract(batch.btx, btheta, out=btheta)  # BtB theta is not needed again
    u = (xi_rows @ btr.transpose(0, 2, 1)).transpose(1, 0, 2)
    zhat = (Vinv * u[None]).sum(axis=1) / sigma2_col
    Vinv *= batch.include
    uz = (u * zhat).sum(axis=0)
    resid2 = np.maximum(rtr - 2.0 * uz + (zhat * (xtbx * zhat[None]).sum(axis=1)).sum(axis=0), 0.0)
    trace = _rowdot(
        Vinv.transpose(2, 0, 1, 3).reshape(G, d * d * n),
        xtbx.transpose(2, 0, 1, 3).reshape(G, d * d * n),
    )
    s = np.maximum((rtr - uz) / sigma2_col, 0.0)
    # libm's log, as for a scalar sigma2: numpy's vectorized log differs
    # from it in the last bit for about 0.1% of inputs
    log_sigma2 = np.array([[math.log(v)] for v in sigma2.tolist()])
    logdet = data.m * log_sigma2 + logdet_v
    nu = batch.nu
    if math.isinf(nu):
        w = batch.wnum.copy()
        ll = -0.5 * (batch.const + logdet + s)
    else:
        w = batch.wnum / (nu + s)
        # multivariate t_nu in dimension m:
        #   const - (1/2) log|Sigma| - ((nu+m)/2) log(1 + s/nu)
        ll = batch.const - 0.5 * logdet - batch.half_nu_m * np.log1p(s / nu)
    loglik = (ll * batch.include).sum(axis=1)
    return _EStep(A, Vinv, btr, zhat, resid2, trace, s, w, ll, loglik), failed


def _model_btr(e: _EStep) -> np.ndarray:
    """One model's per-curve B_i^T (x_i - B_i theta - B_i Xi zhat_i), shape (n, p)."""
    return e.btr - (e.A * e.zhat_dn[:, :, None]).sum(axis=0)


def _whitened_terms(params: ModelParams, data: Dataset):
    """One model's E-step over ``data`` (``_estep_at``), and its per-curve
    B_i^T Sigma_i^{-1} r_i, shape (n, p), and B_i^T Sigma_i^{-1} B_i, shape
    (n, p, p), by the low-rank identity behind ``sigma_solve``."""
    e, sigma2 = _estep_at(params, data), params.sigma2
    bt_sinv_r = _model_btr(e) / sigma2
    A = e.A.transpose(1, 2, 0)  # (n, p, d)
    # (BtB - A V^{-1} A^T / sigma2) / sigma2, in place in one (n, p, p) array
    bt_sinv_b = (A @ e.Vinv.transpose(2, 0, 1)) @ A.transpose(0, 2, 1)
    bt_sinv_b /= -sigma2
    bt_sinv_b += data.design_stats.btb
    bt_sinv_b /= sigma2
    return e, bt_sinv_r, bt_sinv_b


def _solve(lhs: np.ndarray, rhs: np.ndarray, what: str, failed: dict) -> np.ndarray:
    """Solve the (G, k, k) systems lhs x = rhs for (G, k) right-hand sides; a
    singular one leaves its row of x at 0 and its error in ``failed``."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros_like(rhs)
    for g, (a, b) in enumerate(zip(lhs, rhs)):
        try:
            x[g] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            failed.setdefault(g, ConditioningError(f"{what} update system is singular: {exc}"))
    return x


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the matching rows of two (G, k) arrays; each is the
    BLAS dot that ``a[g] @ b[g]`` computes."""
    return (a[:, None] @ b[..., None])[:, 0, 0]


def _mstep(batch: _Batch, e: _EStep, pen):
    """Closed-form updates of every model in the batch, all E-quantities held
    at the current parameters; ``pen`` holds the models' penalty values
    (``_penalty``). Left-out curves enter through their zero weights and
    V^{-1} blocks. Also returns by batch row the error of each model whose
    update fails."""
    n, p = batch.btx.shape[1:]
    d, G = e.zhat_dn.shape[:2]
    alpha, P = batch.alpha, batch.P
    w = e.w
    wz = w * e.zhat_dn  # (d, G, n)

    # one pass over the design blocks: rows [w; C] with C_i = Vinv_i +
    # w_i zhat_i zhat_i^T give every model's sum_i w_i BtB_i and
    # sum_i C_i (x) BtB_i
    wc = np.empty((1 + d * d, G, n))
    wc[0] = w
    C = wc[1:].reshape(d, d, G, n)
    np.multiply(wz[:, None], e.zhat_dn[None], out=C)
    C += e.Vinv
    sums = (wc.reshape((1 + d * d) * G, n) @ batch.btb_flat).reshape(1 + d * d, G, p, p)

    lhs_theta = sums[0]
    wz = wz.transpose(1, 0, 2)  # (G, d, n)
    rhs_theta = (
        _per_model(w, batch.btx) - (wz.reshape(G, 1, d * n) @ e.A.reshape(G, d * n, p))[:, 0]
    )
    if alpha > 0:
        lhs_theta = lhs_theta + 2.0 * alpha * P
    failed: dict = {}
    theta_new = _solve(lhs_theta, rhs_theta, "theta", failed)

    if d > 0:
        # blocks reordered from (k, l, g, p, q) to (g, k, p, l, q)
        lhs = (
            sums[1:]
            .reshape(d, d, G, p, p)
            .transpose(2, 0, 3, 1, 4)
            .reshape(G, d * p, d * p)
        )
        rhs = (wz @ e.btr).reshape(G, d * p)
        if alpha > 0:
            for k in range(d):
                blk = slice(k * p, (k + 1) * p)
                lhs[:, blk, blk] += 2.0 * alpha * P
        vec = _solve(lhs, rhs, "xi", failed)
        phi_new = np.concatenate([vec.reshape(G, d, p), theta_new[:, None]], axis=1)
    else:
        phi_new = theta_new[:, None]

    num = _rowdot(w, e.resid2) + e.trace
    if alpha > 0:
        # keep the penalized objective ascending: the penalty enters the scale
        # update with the same 1/sigma2 weighting as the residual sum
        num += 2.0 * pen
    sigma2_new = num / batch.total_obs
    for j, (value, floor) in enumerate(zip(sigma2_new.tolist(), batch.sigma2_floor.tolist())):
        if value <= floor:
            failed.setdefault(j, DegenerateFitError(
                f"noise variance sigma2 fell to {value:.3g}, at or below the rounding "
                f"level {floor:.3g} of the values; residuals vanished"))
    return phi_new, sigma2_new, failed


def _penalty(batch: _Batch, phi: np.ndarray) -> np.ndarray | float:
    """alpha (theta^T P theta + sum_k xi_k^T P xi_k) for each model, 0.0 when
    the batch is unpenalized."""
    if batch.P is None:
        return 0.0
    alpha, d = batch.alpha, phi.shape[1] - 1
    quad = (phi[:, :, None] @ batch.P @ phi[..., None])[..., 0, 0]  # (G, d + 1)
    val = alpha * quad[:, d]
    for k in range(d):
        val = val + alpha * quad[:, k]
    return val


def _overflow(what: str, per_curve: np.ndarray, data: Dataset) -> NumericalOverflowError:
    """The error of one model's non-finite sum ``what`` of the (n,) terms
    ``per_curve``, naming its first curve whose term is not finite."""
    bad = np.flatnonzero(~np.isfinite(per_curve))
    where = f" for curve {data.ids[bad[0]]!r}" if bad.size else ""
    return NumericalOverflowError(f"{what} is non-finite{where}")


def _converged(trace: list, tol: float) -> bool:
    """EM stops once the relative objective change drops below tol. The
    parameters lag behind the objective as the square root of the remaining
    ascent: landing on the estimating equations takes tol=1e-14."""
    if len(trace) < 3:
        return False
    step = abs(trace[-1] - trace[-2])
    return step / (abs(trace[-2]) + 1.0) < tol


class _Stop(NamedTuple):
    """Where one model of a batch stopped, and what later steps read from its
    last E-step."""

    phi: np.ndarray       # (d + 1, p) parameters at its last E-step
    sigma2: float
    trace: np.ndarray     # (penalized) log-likelihood at each traced iterate
    converged: bool
    loglik: float         # unpenalized log-likelihood
    ll_curve: np.ndarray  # (n,) per-curve log densities
    s: np.ndarray         # (n,) squared Mahalanobis distances
    w: np.ndarray         # (n,) robust weights
    btr: np.ndarray       # (n, p) B_i^T (x_i - B_i theta - B_i Xi zhat_i)
    iterations: int       # EM-map evaluations (M-steps) run
    backtracks: int       # SqS3 points rejected for the plain double step


_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_LOG_TINY, _LOG_MAX = math.log(_TINY), math.log(np.finfo(float).max)


def _sqs3_point(x0, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """SqS3 extrapolation (Varadhan & Roland 2008, Scand. J. Stat. 35:335) of
    each model from its (phi, sigma2) iterates x0, x1 = F(x0), x2 = F(x1): on
    rows (phi, log sigma2), x0 - 2 a r + a^2 v with r = x1 - x0,
    v = x2 - 2 x1 + x0 and a = -||r|| / ||v|| capped at -1 and rounded toward
    -1 to a power of two, so every product with a is exact and batch-size
    rounding is not amplified. A row whose sigma2 leaves the range of normal
    floats is NaN, which ``_probe`` rejects."""
    G = len(x0[1])

    def rows(phi, sigma2):
        return np.concatenate([phi.reshape(G, -1), [[math.log(v)] for v in sigma2.tolist()]], 1)

    y0 = rows(*x0)
    r = rows(*x1) - y0
    v = rows(*x2) - y0 - 2.0 * r
    steps = []
    for rr, vv in zip(_rowdot(r, r).tolist(), _rowdot(v, v).tolist()):
        ratio = math.sqrt(rr) / math.sqrt(vv) if vv > 0 else math.inf
        steps.append(math.ldexp(0.5, math.frexp(ratio)[1]) if 1.0 < ratio < math.inf else 1.0)
    step = np.array(steps)[:, None]
    with np.errstate(all="ignore"):
        y = y0 + (2.0 * step) * r + (step * step) * v
    phi, sigma2 = y[:, :-1].reshape(x0[0].shape), np.ones(G)
    for g, value in enumerate(y[:, -1].tolist()):
        if _LOG_TINY < value < _LOG_MAX:
            sigma2[g] = math.exp(value)
        else:
            phi[g] = math.nan
    return phi, sigma2


def _probe(batch: _Batch, phi, sigma2, phi2, sigma2_2, floor, out=None):
    """E-step at each model's SqS3 point (phi, sigma2), kept where it succeeds
    with a finite objective of at least ``floor`` (the objective at x1) and
    loadings that span d directions (``_spectrum``'s rank rule, which the
    stage's canonicalization applies); the other models fall back to
    x2 = (phi2, sigma2_2), which overwrites their rows of ``phi`` and
    ``sigma2`` and is evaluated as a batch of its own whose rows replace
    theirs. Returns the E-step, the errors of fallen-back models whose
    E-step fails, and the rows that fell back; ``out`` goes to the first."""
    d = phi.shape[1] - 1
    with np.errstate(all="ignore"):
        e, failed = _estep(batch, phi, sigma2, out)
        obj = e.loglik if batch.P is None else e.loglik - _penalty(batch, phi) / sigma2
        low_rank = (
            _spectrum(phi[:, :d].transpose(0, 2, 1), batch.data.basis.gram_matrix)[2].tolist()
            if d else [False] * len(phi)
        )
    back = [
        j for j, (value, low, deficient) in enumerate(zip(obj.tolist(), floor, low_rank))
        if j in failed or deficient or not (math.isfinite(value) and value >= low)
    ]
    if not back:
        return e, {}, back
    phi[back], sigma2[back] = phi2[back], sigma2_2[back]
    e_back, failed = _estep(batch.select(back), phi[back], sigma2[back])
    for full, part, index in zip(e, e_back, _ESTEP_MODEL_INDEX):
        full[index + (back,)] = part
    return e, {back[k]: err for k, err in failed.items()}, back


def _em_loop(batch: _Batch, phi, sigma2, max_iter, tol) -> list[_Stop | RfpcaError]:
    """Iterate EM updates of the batch's models in lockstep until each one's
    objective stabilizes.

    Each model stops on its own trace, by ``_converged`` or after
    ``max_iter`` EM-map evaluations, or at the first step that fails for it,
    and leaves the batch; later iterations update only the models still
    running. Returns per model, in batch order, its ``_Stop`` record, which
    keeps copies of its own rows of the E-step it stopped at, or the error
    it failed with, the one its fit raises alone.

    The models run SqS3 cycles in three phases: x0, x1 = F(x0), then the
    probe of ``_sqs3_point``'s extrapolation from x0, x1 and x2 = F(x1),
    which is kept or, where ``_probe`` rejects it, replaced by x2; F of the
    probed point is the next cycle's x0. Only x0 and x1 are traced, and
    ``_converged`` judges only the plain step between them, so a model stops
    by plain EM's rule. When no map remains under ``max_iter`` after x2, x2
    is traced as the next x1 instead, and every model stops there.
    """
    traces = [[] for _ in phi]
    backtracks = [0] * len(phi)
    stops: list = [None] * len(phi)
    running = list(range(len(phi)))
    evals = 0  # EM maps each running model has taken
    phase = "x0"
    saved: tuple = ()  # per-model rows that the cycle's next step reads
    # every E-step's design products, in the leading rows as models leave: a
    # fresh array of this size per map is mmapped and faults in new pages
    prods = np.empty((phi.shape[0] * phi.shape[1], batch.btb_rows.shape[1]))
    while True:
        if phase == "probe":
            e, stopped, back = _probe(batch, phi, sigma2, *saved, prods)
            for j in back:
                backtracks[running[j]] += 1
            pen = _penalty(batch, phi)
        else:
            e, stopped = _estep(batch, phi, sigma2, prods)
            pen = _penalty(batch, phi)
            obj = e.loglik if batch.P is None else e.loglik - pen / sigma2
            for j, value in enumerate(obj.tolist()):
                if j not in stopped and not math.isfinite(value):
                    stopped[j] = _overflow("log-likelihood", e.ll_curve[j], batch.data)
                if j in stopped:  # its E-step failed
                    continue
                trace = traces[running[j]]
                trace.append(value)
                converged = phase == "x1" and _converged(trace, tol)
                if converged or evals >= max_iter:
                    stopped[j] = _Stop(
                        phi[j], float(sigma2[j]), np.array(trace), converged, float(e.loglik[j]),
                        e.ll_curve[j].copy(), e.s[j].copy(), e.w[j].copy(),
                        _model_btr(e.model(j)), evals, backtracks[running[j]],
                    )
        if len(stopped) < len(running):
            phi_new, sigma2_new, failed = _mstep(batch, e, pen)
            stopped = failed | stopped  # a model that stopped keeps its stop
        del e  # free this E-step before the next one is computed
        evals += 1
        for j, stop in stopped.items():
            stops[running[j]] = stop
        if len(stopped) == len(running):
            return stops
        if stopped:
            keep = [j not in stopped for j in range(len(running))]
            phi, sigma2, batch = phi[keep], sigma2[keep], batch.select(keep)
            phi_new, sigma2_new = phi_new[keep], sigma2_new[keep]
            saved = tuple(a[keep] for a in saved)
            running = [g for g, k in zip(running, keep) if k]
        if phase == "x0":
            phase, saved = "x1", (phi, sigma2)
            phi, sigma2 = phi_new, sigma2_new
        elif phase == "x1" and evals < max_iter:
            floor = np.array([traces[g][-1] for g in running])
            x0, saved = saved, (phi_new, sigma2_new, floor)
            phi, sigma2 = _sqs3_point(x0, (phi, sigma2), (phi_new, sigma2_new))
            phase = "probe"
        elif phase == "x1":  # x2 is traced as the next x1, at the cap
            phi, sigma2 = phi_new, sigma2_new
        else:  # the map from the probed point starts the next cycle
            phase, saved, phi, sigma2 = "x0", (), phi_new, sigma2_new


def _estep_at(params: "ModelParams", data: Dataset) -> _EStep:
    """One model's E-step over every curve of ``data`` (model axis dropped);
    the model and the data must share a spline basis."""
    if params.basis != data.basis:
        raise DimensionMismatchError("model and data use different spline bases")
    phi, sigma2 = _phi(params.theta, params.xi), np.array([params.sigma2])
    e, failed = _estep(_batch(data, params.nu), phi, sigma2)
    if failed:
        raise failed[0]
    return e.model(0)


# ---------------------------------------------------------------------------
# Public likelihood / EM surface
# ---------------------------------------------------------------------------

def log_likelihood(params: ModelParams, data: Dataset) -> float:
    """Sum of per-curve t (or Gaussian, nu=inf) log densities."""
    e = _estep_at(params, data)
    if not math.isfinite(e.loglik):
        raise _overflow("log-likelihood", e.ll_curve, data)
    return float(e.loglik)


def em_step(params: ModelParams, data: Dataset, config: ModelConfig) -> ModelParams:
    """One EM update of (theta, xi, sigma2) from the given parameters.

    The degrees of freedom come from ``config`` (a hyperparameter, never
    estimated), so a warm start from another model's parameters is possible.
    It is ``fit_from`` stopped after one update, so it runs the EM driver
    every fit runs, plus the E-step at the updated parameters.
    """
    return fit_from(data, dataclasses.replace(config, max_iter=1), params).params


_INIT_TRIM = 0.25  # fraction of highest-distance curves excluded from the init scatter


def _init_new_column(data: Dataset, stops: Sequence[_Stop], nu) -> np.ndarray:
    """Seed the next loading column of each of G models, shape (G, p), from
    its weighted residual scatter.

    Each of the ``stops`` holds what its model's previous-stage last E-step
    gave (B^T r - A zhat, distances, weights), none of which depends on how
    that stage's loadings are rotated, and its sigma2. Residual coefficient
    vectors come from a ridge-regularized projection of each curve's
    residuals onto the basis, one solve for all (n, p, G) right-hand sides; a
    model's column is the leading eigenvector of their weighted scatter in
    the Gram metric, scaled so its initial variance is sigma2 / 2. Under a t
    model the scatter additionally drops the quarter of curves with the
    largest Mahalanobis distances: outlying curves can otherwise hand the
    initializer a contamination direction whose EM basin the robust fit never
    escapes. The Normal-model initializer uses the plain scatter.
    """
    stats = data.design_stats
    p = data.basis.dimension
    # ridge at the scale of the average design diagonal: boundary basis
    # directions with little data support would otherwise dominate the
    # projected-residual scatter through noise amplification
    ridge = np.trace(stats.btb, axis1=1, axis2=2) / p + 1e-12
    reg = stats.btb + ridge[:, None, None] * np.eye(p)
    btr = np.stack([stop.btr for stop in stops], axis=-1)  # (n, p, G)
    coefs = np.linalg.solve(reg, btr).transpose(2, 0, 1)  # (G, n, p)
    w = np.stack([stop.w for stop in stops])
    if not math.isinf(nu) and data.n >= 8:
        s = np.stack([stop.s for stop in stops])
        cutoff = np.quantile(s, 1.0 - _INIT_TRIM, axis=1)
        w = np.where(s <= cutoff[:, None], w, 0.0)
    J, L = data.basis.gram_matrix, data.basis.gram_cholesky
    scatter = (w[..., None] * coefs).transpose(0, 2, 1) @ coefs
    M = L.T @ scatter @ L
    _, evecs = np.linalg.eigh(0.5 * (M + M.transpose(0, 2, 1)))
    v = np.linalg.solve(L.T, evecs[:, :, -1].T).T  # (G, p)
    norm = np.sqrt(np.maximum(_rowdot((v[:, None] @ J)[:, 0], v), np.finfo(float).tiny))
    v = v / norm[:, None]
    top = v[np.arange(len(v)), np.abs(v).argmax(axis=1)]
    sigma2 = np.array([stop.sigma2 for stop in stops])
    return v * (np.where(top < 0, -1.0, 1.0) * np.sqrt(sigma2 / 2.0))[:, None]


def _stage_results(
    stops: Sequence[_Stop | RfpcaError], nu: float, basis: SplineBasis
) -> list[FitResult | RfpcaError]:
    """Each stop's stage result, or its error: a stop that is an error stays
    one, and so does a model whose loadings are rank deficient or whose
    canonical parameters fail ``_params_errors``. The stops' parameters are
    orthonormalized as one stack and checked once. Their log-likelihoods,
    distances and weights come from the E-step at the raw parameters, and
    are rotation invariant."""
    out: list = list(stops)
    rows = [g for g, stop in enumerate(stops) if isinstance(stop, _Stop)]
    if not rows:
        return out
    phi = np.stack([stops[g].phi for g in rows])  # (G, d + 1, p)
    d = phi.shape[1] - 1
    theta, sigma2 = phi[:, d], np.array([stops[g].sigma2 for g in rows])
    H, lam, deficient = _orthonormalize(phi[:, :d].transpose(0, 2, 1), basis.gram_matrix)
    errors = _params_errors(theta, H, lam, sigma2, nu, basis)
    for j, (g, s2) in enumerate(zip(rows, sigma2.tolist())):
        if deficient[j]:
            out[g] = ConditioningError(_RANK_DEFICIENT)
        elif j in errors:
            out[g] = errors[j]
        else:
            # the fields the check has just passed, set without checking again
            params = object.__new__(ModelParams)
            params.__dict__.update(
                theta=theta[j], H=H[j], lam=lam[j], sigma2=s2, nu=float(nu), basis=basis
            )
            stop = stops[g]
            out[g] = FitResult(
                params, stop.trace, stop.converged, stop.iterations, stop.backtracks,
                stop.loglik, stop.s, stop.w,
            )
    return out


# Cap on the bytes of a batch's (G, d + 1, n, p) E-step product, which sets
# how many models run in lockstep: 12 cross-validation refits at n = 100,
# d = 2, p = 9. Measured on a 2-vCPU host, twice this cap added about 1 MB to
# the select_small benchmark's peak RSS and, at d = 0, let BLAS worker
# threads preempt the main thread.
_BATCH_BYTES = 256 * 1024


def _models_per_batch(d: int, n: int, p: int) -> int:
    """How many models of dimension ``d`` over n curves one batch holds."""
    return max(1, _BATCH_BYTES // (8 * (d + 1) * n * p))


def fit(data: Dataset, config: ModelConfig) -> FitResult:
    """Sequential fit of the reduced-rank t model up to dimension config.d.

    Starts from the mean-only model (theta = 0, sigma2 = mean squared value)
    and adds one component at a time, warm-starting each stage from the
    previous one. The returned result is the final stage; ``stages`` holds
    every intermediate fit in dimension order 0..d. A stage that stops at
    ``max_iter`` is kept, with a warning naming it. An ``RfpcaError`` raised
    at stage d carries the stages 0..d-1 fitted before it as ``stages``.
    """
    (result,) = _fit_lockstep([data], config)
    if isinstance(result, RfpcaError):
        raise result
    if not result.converged:
        capped = ", ".join(str(d) for d, s in enumerate(result.stages) if not s.converged)
        warnings.warn(
            f"fit stages that did not converge within max_iter={config.max_iter}: "
            f"d={capped}; each keeps its last iterate",
            stacklevel=2,
        )
    return result


def _shares_design(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold the same curve ids observed at bitwise the
    same times on equal bases, so that only their values differ."""
    return (
        a.basis == b.basis
        and a.ids == b.ids
        and a.m.tobytes() == b.m.tobytes()
        and a.times.tobytes() == b.times.tobytes()
    )


def _fit_lockstep(
    datasets: Sequence[Dataset], config: ModelConfig
) -> list[FitResult | RfpcaError]:
    """``fit`` of every dataset, returning for each its ``FitResult`` or the
    ``RfpcaError`` its fit raises.

    The datasets must share one design (``_shares_design``), as a Monte
    Carlo replication's scenarios do; mixed designs raise
    ``InvalidInputError``. They are fitted as the models of one batch, at
    most ``_models_per_batch`` at a time: stage d of every model in
    lockstep, then one stage transition on the model axis, which
    canonicalizes every model's stage d and seeds each one's new column from
    its own last E-step, then stage d + 1. Each model stops every stage on
    its own trace, so it takes the iterations its own fit takes, and a model
    that fails, in EM or in canonicalization, leaves the batch with its own
    error while the others go on. A dataset whose sum of squared values
    overflows gets a ``NumericalOverflowError`` naming its first such curve,
    and one whose mean squared value is below the smallest normal float a
    ``DegenerateFitError``.
    """
    base = datasets[0]
    if not all(_shares_design(base, data) for data in datasets[1:]):
        raise InvalidInputError("lockstep fits need datasets that share one design")
    p, copies = base.basis.dimension, len(datasets)
    if config.d > p:
        return [DimensionMismatchError(f"d={config.d} exceeds basis dimension p={p}")] * copies
    if base.n < 2:
        return [InvalidInputError("fit needs at least two curves")] * copies
    stats = base.design_stats
    values = (stats.btx[None], stats.xtx[None]) if copies == 1 else (
        base._value_stats(np.stack([data.values for data in datasets]))
    )
    out: list = [None] * copies
    starts: dict[int, tuple] = {}  # batch row -> the (theta, xi, sigma2) of its next stage
    for g, x in enumerate(values[1]):
        with np.errstate(over="ignore"):
            sigma2 = float(x.sum() / stats.total_obs)
        if not math.isfinite(sigma2):
            out[g] = _overflow("sum of squared values", x, base)
        elif sigma2 < _TINY:  # squares of nonzero values can underflow to 0
            out[g] = DegenerateFitError(
                f"mean squared value {sigma2:.3g} is below the smallest normal float "
                f"{_TINY:.3g}; rescale the values" if datasets[g].values.any()
                else "all observed values are zero; nothing to fit")
        else:
            starts[g] = (np.zeros(p), np.zeros((p, 0)), sigma2)
    batch = _batch(base, config.nu, np.ones((copies, base.n)), values, penalty=config.penalty)

    stages: dict[int, list[FitResult]] = {g: [] for g in starts}
    for d in range(config.d + 1):
        stops = _lockstep_stage(batch, starts, config)
        for g, stage in zip(stops, _stage_results(list(stops.values()), config.nu, base.basis)):
            if isinstance(stage, RfpcaError):
                stage.stages = tuple(stages[g])
                out[g] = stage
                del starts[g]
            else:
                stages[g].append(stage)
        if d < config.d and starts:
            cols = _init_new_column(base, [stops[g] for g in starts], config.nu)
            for g, col in zip(starts, cols):
                params = stages[g][-1].params
                # the new column starts with variance sigma2/2 taken out of the
                # noise budget; without the deduction the inflated noise level
                # masks outlying curves during the stage's early iterations
                starts[g] = (params.theta, np.column_stack([params.xi, col]), params.sigma2 / 2.0)
    for g in starts:
        out[g] = dataclasses.replace(
            stages[g][-1],
            converged=all(s.converged for s in stages[g]),
            stages=tuple(stages[g]),
        )
    return out


def _lockstep_stage(batch: _Batch, starts: dict, config: ModelConfig) -> dict:
    """One stage of the batch rows ``starts`` maps to their starting
    (theta, xi, sigma2), in lockstep, ``_models_per_batch`` rows at a time.
    Returns per row its ``_Stop`` or the error its model left the batch with.
    Every EM run goes through here, in SqS3 cycles (``_em_loop``): the
    stages of ``_fit_lockstep`` and the warm starts of ``_warm_fits``."""
    rows, out = list(starts), {}
    size = _models_per_batch(config.d, batch.data.n, batch.data.basis.dimension)
    for first in range(0, len(rows), size):
        chunk = rows[first:first + size]
        phi = np.concatenate([_phi(theta, xi) for theta, xi, _ in map(starts.get, chunk)])
        sigma2 = np.array([starts[g][2] for g in chunk])
        run = batch if len(chunk) == len(batch.include) else batch.select(chunk)
        stops = _em_loop(run, phi, sigma2, config.max_iter, config.tol)
        out.update(zip(chunk, stops))
    return out


def fit_from(data: Dataset, config: ModelConfig, init: ModelParams) -> FitResult:
    """Continue EM from given parameters at fixed dimension (no stage growth).

    Fits the model requested by ``config``; ``init`` only supplies the
    starting point. It is ``_warm_fits`` with no curve left out, so it runs
    SqS3 cycles while ``max_iter`` allows three or more EM maps.
    """
    (stop,) = _warm_fits(data, config, init, [None])
    (result,) = _stage_results([stop], config.nu, data.basis)
    if isinstance(result, RfpcaError):
        raise result
    return result


def _warm_fits(
    data: Dataset, config: ModelConfig, init: ModelParams, left_out: Sequence[int | None]
) -> Iterator[_Stop | RfpcaError]:
    """One ``config`` fit started at ``init`` per entry of ``left_out``: a
    curve index that the fit leaves out of its objective, M-step sums and
    observation count, or None to count every curve.

    The fits run in lockstep, ``_models_per_batch`` at a time, each stopping
    on its own trace, in SqS3 cycles (``_em_loop``). Yields per entry the
    ``_Stop`` of its fit, whose last E-step is at its returned parameters
    and still holds the left-out curve's log density, or the error with
    which it left its batch, the one it raises on its own. The fits are
    yielded batch by batch, so only one batch's stops (each with (n,) and
    (n, p) rows) are held at a time. ``init`` must be on ``data``'s basis.
    """
    if init.basis != data.basis:
        raise DimensionMismatchError("model and data use different spline bases")
    if init.d != config.d:
        raise DimensionMismatchError(
            f"init params have d={init.d} but config requests d={config.d}"
        )
    start = (init.theta, init.xi, init.sigma2)
    size = _models_per_batch(config.d, data.n, data.basis.dimension)
    for first in range(0, len(left_out), size):
        chunk = left_out[first:first + size]
        include = np.ones((len(chunk), data.n))
        for g, i in enumerate(chunk):
            if i is not None:
                include[g, i] = 0.0
        starts = dict.fromkeys(range(len(chunk)), start)
        batch = _batch(data, config.nu, include, penalty=config.penalty)
        yield from _lockstep_stage(batch, starts, config).values()


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
    n, sigma2, d = data.n, params.sigma2, params.d
    e, bt_sinv_r, bt_sinv_b = _whitened_terms(params, data)
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

    tr_sinv = (data.m - (d - np.trace(e.Vinv, axis1=0, axis2=1))) / sigma2
    eq4 = -0.5 * tr_sinv.sum() + 0.5 * float(e.w @ (e.resid2 / sigma2**2))

    return np.array(
        [
            np.linalg.norm(eq1) / n,
            np.linalg.norm(eq2) / n,
            np.linalg.norm(eq3) / n,
            abs(eq4) / n,
        ]
    )
