"""Per-curve prediction and outlier scoring, plus asymptotic inference for the
mean via a sandwich covariance estimator."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._special import chi2_quantile, ndtri
from .errors import ConditioningError, InvalidInputError, is_real
from .model import Dataset, ModelParams, _estep_at, _whitened_terms

# Curves whose squared distance exceeds this chi-square quantile (with m_i
# degrees of freedom) are flagged. Under the Normal model s_i is approximately
# chi2(m_i); under a t fit the distances are inflated by a common factor, so
# the rule is liberal: on clean simulated curves at nu = 1 it flags about 3-4%
# against the nominal 1%. A heuristic, not a formal test. The cutoff is
# faithfully rounded (within one ulp of the exact quantile) for m_i = 1..400,
# 1000, 2000 and 5000.
OUTLIER_QUANTILE = 0.99


def _outlier_cutoff(m: np.ndarray) -> np.ndarray:
    """The chi2(m_i) quantile OUTLIER_QUANTILE of every curve, solved once
    per distinct m_i."""
    distinct, inverse = np.unique(m, return_inverse=True)
    cutoffs = [chi2_quantile(k, OUTLIER_QUANTILE) for k in distinct.tolist()]
    return np.array(cutoffs)[inverse]


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


def g_weight(nu: float, m, s):
    """Curvature weight entering the sandwich bread matrix, elementwise in
    (m, s).

    Tends to -1 as nu grows, which is also the exact Normal-model value, so
    the estimator degrades gracefully to the classical sandwich.
    """
    if math.isinf(nu):
        return np.full(np.shape(s), -1.0) if np.ndim(s) else -1.0
    return 2.0 * (nu + m) * s / (m * (nu + s) ** 2) - (nu + m) / (nu + s)


def _pooled_fitted(params: ModelParams, data: Dataset, zhat_dn: np.ndarray) -> np.ndarray:
    """B_i (theta + xi zhat_i) for every curve, stacked in pooled row order.

    One product of ``[theta | xi]^T`` with the pooled design gives the mean
    and component rows; each curve's zhat_i is then repeated over its rows.
    The pooled temporaries die on return, which keeps the peak memory of
    ``curve_diagnostics`` near that of a per-curve loop.
    """
    rows = np.column_stack([params.theta, params.xi]).T @ data.pooled_design.T
    zrep = np.repeat(zhat_dn, data.m, axis=1)
    zrep *= rows[1:]
    return rows[0] + zrep.sum(axis=0)


@dataclass(frozen=True, eq=False)
class CurveDiagnosticsTable(Sequence):
    """Per-curve diagnostics held as columns: a read-only sequence of
    ``CurveDiagnostics``.

    Curve i has id ``ids[i]`` and the rows ``offsets[i]:offsets[i + 1]`` of
    the pooled ``fitted`` and ``residuals``; ``residual_norm``, ``s``,
    ``weight`` and ``outlier_flag`` have one entry per curve. Record i, with
    views of the pooled rows and Python ``float`` and ``bool`` scalars, is
    built only when it is indexed or iterated.
    """

    ids: tuple[str, ...]
    offsets: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    residual_norm: np.ndarray
    s: np.ndarray
    weight: np.ndarray
    outlier_flag: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # negative indices count from the end
        a, b = self.offsets[i], self.offsets[i + 1]
        return CurveDiagnostics(
            self.ids[i], self.fitted[a:b], self.residuals[a:b], float(self.residual_norm[i]),
            float(self.s[i]), float(self.weight[i]), bool(self.outlier_flag[i]),
        )


def curve_diagnostics(params: ModelParams, data: Dataset) -> CurveDiagnosticsTable:
    """Fitted values, residuals, distances, weights and outlier flags of every
    curve, as a ``CurveDiagnosticsTable`` of columns.

    Fitted values come from one pooled design product; residual norms from
    segment sums over the pooled rows.
    """
    e = _estep_at(params, data)
    fitted = _pooled_fitted(params, data, e.zhat_dn)
    resid = data.values - fitted
    norms = np.sqrt(np.add.reduceat(resid * resid, data.offsets[:-1]))
    return CurveDiagnosticsTable(
        tuple(data.ids), data.offsets, fitted, resid, norms, e.s, e.w,
        e.s > _outlier_cutoff(data.m),
    )


def mean_covariance(params: ModelParams, data: Dataset) -> np.ndarray:
    """Sandwich estimate of the covariance of the fitted mean coefficients.

    Middle matrix: squared-weight outer products of the whitened score
    contributions; bread: the g-weighted whitened information, inverted on
    both sides. Includes the 1/n factor, so this is the covariance of the
    estimate itself, not of a single observation.
    """
    n, p = data.n, params.p
    e, bt_sinv_r, bt_sinv_b = _whitened_terms(params, data)
    g = g_weight(params.nu, data.m, e.s)
    m11 = (g @ bt_sinv_b.reshape(n, p * p)).reshape(p, p) / n
    a_mid = ((e.w**2)[:, None] * bt_sinv_r).T @ bt_sinv_r / n
    try:
        m11_inv = np.linalg.inv(m11)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"sandwich bread matrix is singular: {exc}") from exc
    v_theta = m11_inv @ a_mid @ m11_inv / n
    return 0.5 * (v_theta + v_theta.T)


def mean_confidence_band(
    params: ModelParams, data: Dataset, grid, level: float = 0.95
) -> MeanInference:
    """Pointwise normal-approximation band for the mean function on a grid."""
    if not (is_real(level) and 0.0 < level < 1.0):
        raise InvalidInputError(f"level must be in (0, 1), got {level!r}")
    grid = np.asarray(grid, dtype=float)
    v_theta = mean_covariance(params, data)
    B = data.basis.design_matrix(grid)
    center = B @ params.theta
    variance = np.maximum(np.einsum("gp,pq,gq->g", B, v_theta, B), 0.0)
    z = ndtri(0.5 * (1.0 + level))
    return MeanInference(
        v_theta=v_theta,
        band_grid=grid,
        band_center=center,
        band_half_width=z * np.sqrt(variance),
        level=level,
    )

