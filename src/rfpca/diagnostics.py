"""Per-curve prediction and outlier scoring, plus asymptotic inference for the
mean via a sandwich covariance estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2, norm

from .errors import ConditioningError, DimensionMismatchError
from .model import Dataset, FitResult, ModelParams, _estep, _whitened_terms

# Curves whose squared distance exceeds this chi-square quantile (with m_i
# degrees of freedom) are flagged. Under the Normal model s_i is approximately
# chi2(m_i); under a t fit the distances are inflated by a common factor, so
# the rule errs conservative. A heuristic, not a formal test.
OUTLIER_QUANTILE = 0.99


@dataclass(frozen=True)
class CurveDiagnostics:
    id: str
    fitted_values: np.ndarray
    residuals: np.ndarray
    residual_norm: float
    s: float
    weight: float
    outlier_flag: bool


@dataclass(frozen=True)
class MeanInference:
    """Estimated covariance of the mean coefficients and a pointwise band."""

    v_theta: np.ndarray
    band_grid: np.ndarray
    band_center: np.ndarray
    band_half_width: np.ndarray
    level: float


def _require_same_basis(params: ModelParams, data: Dataset) -> None:
    if params.basis != data.basis:
        raise DimensionMismatchError("model and data use different spline bases")


def g_weight(nu: float, m: int, s: float) -> float:
    """Scalar curvature weight entering the sandwich middle matrix.

    Tends to -1 as nu grows, which is also the exact Normal-model value, so
    the estimator degrades gracefully to the classical sandwich.
    """
    if math.isinf(nu):
        return -1.0
    return 2.0 * (nu + m) * s / (m * (nu + s) ** 2) - (nu + m) / (nu + s)


def curve_diagnostics(fit_result: FitResult, data: Dataset) -> list[CurveDiagnostics]:
    """Fitted values, residuals, distances, weights and outlier flags."""
    params = fit_result.params
    _require_same_basis(params, data)
    e = _estep(data, params.theta, params.xi, params.sigma2, params.nu)
    designs = data.design_matrices
    cutoffs = chi2.ppf(OUTLIER_QUANTILE, data.design_stats.m)
    out = []
    for i, traj in enumerate(data.trajectories):
        B = designs[i]
        fitted = B @ (params.theta + params.xi @ e.zhat[i])
        resid = traj.values - fitted
        out.append(
            CurveDiagnostics(
                id=traj.id,
                fitted_values=fitted,
                residuals=resid,
                residual_norm=float(np.linalg.norm(resid)),
                s=float(e.s[i]),
                weight=float(e.w[i]),
                outlier_flag=bool(e.s[i] > cutoffs[i]),
            )
        )
    return out


def mean_covariance(fit_result: FitResult, data: Dataset) -> np.ndarray:
    """Sandwich estimate of the covariance of the fitted mean coefficients.

    Middle matrix: squared-weight outer products of the whitened score
    contributions; bread: the g-weighted whitened information, inverted on
    both sides. Includes the 1/n factor, so this is the covariance of the
    estimate itself, not of a single observation.
    """
    params = fit_result.params
    _require_same_basis(params, data)
    n = data.n
    stats = data.design_stats
    sigma2 = params.sigma2
    e = _estep(data, params.theta, params.xi, sigma2, params.nu)
    bt_sinv_r, bt_sinv_b = _whitened_terms(stats, e, sigma2)
    if math.isinf(params.nu):
        g = -np.ones(n)
        w = np.ones(n)
    else:
        g = (
            2.0 * (params.nu + stats.m) * e.s / (stats.m * (params.nu + e.s) ** 2)
            - (params.nu + stats.m) / (params.nu + e.s)
        )
        w = e.w
    p = params.p
    m11 = (g @ bt_sinv_b.reshape(n, p * p)).reshape(p, p) / n
    a_mid = ((w**2)[:, None] * bt_sinv_r).T @ bt_sinv_r / n
    try:
        m11_inv = np.linalg.inv(m11)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"sandwich bread matrix is singular: {exc}") from exc
    v_theta = m11_inv @ a_mid @ m11_inv / n
    return 0.5 * (v_theta + v_theta.T)


def mean_confidence_band(
    fit_result: FitResult, data: Dataset, grid, level: float = 0.95
) -> MeanInference:
    """Pointwise normal-approximation band for the mean function on a grid."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    grid = np.asarray(grid, dtype=float)
    v_theta = mean_covariance(fit_result, data)
    B = data.basis.design_matrix(grid)
    center = B @ fit_result.params.theta
    variance = np.maximum(np.einsum("gp,pq,gq->g", B, v_theta, B), 0.0)
    z = norm.ppf(0.5 * (1.0 + level))
    return MeanInference(
        v_theta=v_theta,
        band_grid=grid,
        band_center=center,
        band_half_width=z * np.sqrt(variance),
        level=level,
    )


__all__ = [
    "CurveDiagnostics",
    "MeanInference",
    "OUTLIER_QUANTILE",
    "curve_diagnostics",
    "g_weight",
    "mean_covariance",
    "mean_confidence_band",
]
