"""Model-dimension selection: penalized-likelihood criteria and cross-validation."""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, RfpcaError
from .model import Dataset, FitResult, ModelConfig, _warm_fits, fit, log_likelihood

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
) -> tuple[float, list[dict]]:
    """Leave-one-curve-out log predictive score at the configured dimension.

    The n refits, each on every curve but one and started at the full-data
    fit, run through ``model._warm_fits``: batches of models that iterate EM
    in lockstep over the dataset's shared design statistics, each refit
    stopping on its own trace. Curve i's held-out term is its log density at
    the E-step where refit i stopped, which is at that refit's returned
    parameters. A refit that hits the iteration cap still contributes its
    last iterate, with a warning; a refit that fails leaves its batch with
    its own error, the one it raises alone, and the first such error is
    raised. Returns the score and details, one record per curve: the term,
    whether the refit converged, its EM-map evaluations and how many of its
    SqS3 points fell back to the plain double step.
    """
    if data.n < 3:
        raise InvalidInputError(f"cross-validation needs n >= 3 curves, got {data.n}")
    if full_fit is None:
        full_fit = fit(data, config)
    score = 0.0
    details = []
    for i, stop in enumerate(_warm_fits(data, config, full_fit.params, range(data.n))):
        if isinstance(stop, RfpcaError):
            raise stop
        curve_id = data.ids[i]
        if not stop.converged:
            warnings.warn(
                f"held-out refit without curve {curve_id!r} "
                "did not converge; using its last iterate",
                stacklevel=2,
            )
        term = float(stop.ll_curve[i])
        details.append(
            {"id": curve_id, "loglik": term, "converged": stop.converged,
             "iterations": stop.iterations, "backtracks": stop.backtracks}
        )
        score += term
    return score, details


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

    failure = None
    try:
        stages = fit(data, dataclasses.replace(config, d=d_max)).stages
    except RfpcaError as exc:
        # the stages fitted before the failing one are still scored
        stages, failure = getattr(exc, "stages", ()), exc
    rows: list[dict] = []
    for d, (stage, row) in enumerate(zip(stages, _stage_rows(stages, data.n))):
        if criterion == "cv":
            cfg_d = dataclasses.replace(config, d=d)
            try:
                score, details = cross_validate(data, cfg_d, full_fit=stage)
            except RfpcaError as exc:
                failure = exc
                break
            row["cv"] = score
            row["cv_refits_nonconverged"] = sum(1 for rec in details if not rec["converged"])
            row["cv_refit_iterations"] = sum(rec["iterations"] for rec in details)
            row["cv_refit_backtracks"] = sum(rec["backtracks"] for rec in details)
        rows.append(row)
    if failure is not None:
        partial = SelectionReport(per_d=tuple(rows), chosen_d=None, criterion=criterion)
        raise SelectionError(
            f"dimension selection aborted at d={len(rows)}: {failure}", partial
        ) from failure

    scores = np.array([row[criterion] for row in rows])
    chosen = int(np.argmax(scores))  # first max wins: ties break toward small d
    return SelectionReport(per_d=tuple(rows), chosen_d=chosen, criterion=criterion)


def _stage_rows(stages: Sequence[FitResult], n: int) -> list[dict]:
    """One score row per stage of a sequential fit to n curves: its
    log-likelihood, degrees of freedom, AIC and BIC, convergence and the
    variance share of its last component."""
    rows = []
    c_bic = math.log(n) / 2.0
    for d, stage in enumerate(stages):
        ll = stage.loglik
        df = degrees_of_freedom(stage.params.p, d)
        lam = stage.params.lam
        rows.append({
            "d": d,
            "loglik": ll,
            "df": df,
            "aic": ll - df,
            "bic": ll - c_bic * df,
            "converged": stage.converged,
            "lambda_share": float(lam[-1] / lam.sum()) if d > 0 else None,
            "lambda_noise_ratio": float(lam[-1] / stage.params.sigma2) if d > 0 else None,
        })
    return rows
