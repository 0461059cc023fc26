"""Model-dimension selection: penalized-likelihood criteria and cross-validation."""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, RfpcaError
from .model import Dataset, FitResult, ModelConfig, fit, fit_from, log_likelihood

CRITERIA = ("aic", "bic", "cv")


class SelectionError(RfpcaError, RuntimeError):
    """A fit inside dimension selection failed; carries the partial report."""

    def __init__(self, message: str, partial_report: "SelectionReport | None" = None):
        super().__init__(message)
        self.partial_report = partial_report


@dataclass(frozen=True)
class SelectionReport:
    """Per-dimension score table and the selected dimension."""

    per_d: tuple[dict, ...]
    chosen_d: int | None
    criterion: str

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "chosen_d": self.chosen_d,
            "per_d": [dict(row) for row in self.per_d],
        }


def degrees_of_freedom(p: int, d: int) -> int:
    """Free parameter count of the rank-d model: mean and loading coefficients,
    component variances and the noise variance, minus the d(d+1)/2
    orthonormality restrictions."""
    if d < 0 or d > p:
        raise DimensionMismatchError(f"d must be in [0, {p}], got {d}")
    return p + p * d + d + 1 - d * (d + 1) // 2


def information_criterion(fit_result: FitResult, data: Dataset, c_n: float) -> float:
    """Log-likelihood at the fitted parameters minus c_n * degrees of freedom."""
    params = fit_result.params
    return log_likelihood(params, data) - c_n * degrees_of_freedom(params.p, params.d)


def aic(fit_result: FitResult, data: Dataset) -> float:
    return information_criterion(fit_result, data, 1.0)


def bic(fit_result: FitResult, data: Dataset) -> float:
    return information_criterion(fit_result, data, math.log(data.n) / 2.0)


def cross_validate(
    data: Dataset,
    config: ModelConfig,
    full_fit: FitResult | None = None,
    return_details: bool = False,
):
    """Leave-one-curve-out log predictive score at the configured dimension.

    Performs exactly n refits, each warm-started at the full-data fit. A
    refit that hits the iteration cap still contributes its last iterate,
    with a warning.
    """
    if data.n < 3:
        raise InvalidInputError(f"cross-validation needs n >= 3 curves, got {data.n}")
    if full_fit is None:
        full_fit = fit(data, config)
    score = 0.0
    details = []
    for i in range(data.n):
        sub = data.drop(i)
        refit = fit_from(sub, config, full_fit.params)
        held_out = Dataset([data.trajectories[i]], data.basis)
        term = log_likelihood(refit.params, held_out)
        if not refit.converged:
            warnings.warn(
                f"held-out refit without curve {data.trajectories[i].id!r} "
                "did not converge; using its last iterate",
                stacklevel=2,
            )
        details.append({
            "id": data.trajectories[i].id,
            "loglik": term,
            "converged": refit.converged,
        })
        score += term
    if return_details:
        return score, details
    return score


def select_dimension(
    data: Dataset, d_max: int, criterion: str, config: ModelConfig
) -> SelectionReport:
    """Fit d = 0..d_max sequentially and pick the dimension maximizing the
    criterion (ties go to the smaller, more parsimonious dimension)."""
    criterion = str(criterion).lower()
    if criterion not in CRITERIA:
        raise InvalidInputError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if criterion in ("aic", "bic") and config.penalty > 0:
        raise InvalidInputError(
            "information criteria are unavailable for penalized fits; use cv"
        )
    p = data.basis.dimension
    if d_max > p:
        raise DimensionMismatchError(f"d_max={d_max} exceeds basis dimension p={p}")

    rows: list[dict] = []
    c_bic = math.log(data.n) / 2.0
    try:
        chain = fit(data, dataclasses.replace(config, d=d_max))
        for d, stage in enumerate(chain.stages):
            ll = stage.loglik
            df = degrees_of_freedom(p, d)
            lam = stage.params.lam
            row = {
                "d": d,
                "loglik": ll,
                "df": df,
                "aic": ll - df,
                "bic": ll - c_bic * df,
                "converged": stage.converged,
                "lambda_share": float(lam[-1] / lam.sum()) if d > 0 else None,
                "lambda_noise_ratio": (
                    float(lam[-1] / stage.params.sigma2) if d > 0 else None
                ),
            }
            if criterion == "cv":
                cfg_d = dataclasses.replace(config, d=d)
                score, details = cross_validate(
                    data, cfg_d, full_fit=stage, return_details=True
                )
                row["cv"] = score
                row["cv_refits_nonconverged"] = sum(
                    1 for rec in details if not rec["converged"]
                )
            rows.append(row)
    except RfpcaError as exc:
        partial = SelectionReport(per_d=tuple(rows), chosen_d=None, criterion=criterion)
        raise SelectionError(
            f"dimension selection aborted at d={len(rows)}: {exc}", partial
        ) from exc

    scores = np.array([row[criterion] for row in rows])
    chosen = int(np.argmax(scores))  # first max wins: ties break toward small d
    return SelectionReport(per_d=tuple(rows), chosen_d=chosen, criterion=criterion)
