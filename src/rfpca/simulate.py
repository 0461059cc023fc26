"""Synthetic data generation and the Monte Carlo study harness.

The default generator draws curves from a two-component model with sine
components on [0, 1], Gaussian scores and noise, on one of three time-grid
designs (fixed uniform, random uniform, Poisson-count random). Contaminated
variants replace component scores with large constants (endogenous outliers)
or add multiples of a normalized Doppler function, which lies outside the
span of the true components (exogenous outliers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import ClassVar

import numpy as np

from . import selection
from .basis import SplineBasis, build_basis
from .errors import DimensionMismatchError, InvalidInputError, InvalidParamsError, RfpcaError
from .errors import check_finite_real, check_integer, is_real
from .model import Curves, Dataset, FitResult, ModelConfig, _fit_lockstep

ERROR_NORM_GRID = 401  # composite-Simpson grid for L2 error norms; odd, as _simpson needs

CONTAMINATION_KINDS = (
    "none",
    "endogenous_mean",
    "exogenous_mean",
    "endogenous_pc",
    "exogenous_pc",
)


# ---------------------------------------------------------------------------
# The true model and its ingredients
# ---------------------------------------------------------------------------

def _zero_mean(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _sine_component(k: int, t):
    return math.sqrt(2.0) * np.sin(k * math.pi * np.asarray(t, dtype=float))


_DOPPLER_SHIFT = 2.0 ** (-11.0 / 5.0)  # 2^((9-4k)/5) at k=5


def _doppler_raw(t):
    t = np.asarray(t, dtype=float)
    envelope = np.sqrt(np.maximum(t * (1.0 - t), 0.0))
    return envelope * np.sin(
        2.0 * math.pi * (1.0 + _DOPPLER_SHIFT) / (t + _DOPPLER_SHIFT)
    )


# The integral of _doppler_raw(u)**2 over [0, 1], as scipy.integrate.quad
# computes it with limit=200.
_DOPPLER_SQUARED_NORM = 0.0866567852733991
_DOPPLER_SCALE = 1.0 / math.sqrt(_DOPPLER_SQUARED_NORM)


def doppler_phi3(t):
    """The unit-norm Doppler function at ``t``, the exogenous outlier direction."""
    return _DOPPLER_SCALE * _doppler_raw(t)


@dataclass(frozen=True)
class TrueModel:
    """Data-generating process: mean, components, variances, noise."""

    mu: object = _zero_mean
    phis: tuple = (partial(_sine_component, 1), partial(_sine_component, 2))
    lambdas: tuple = (1.0, 0.5)
    sigma2: float = 0.25
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        if not callable(self.mu):
            raise InvalidParamsError(f"mu must be callable, got {self.mu!r}")
        if not all(map(callable, self.phis)):
            raise InvalidParamsError(f"phis must be callables, got {self.phis!r}")
        if len(self.phis) != len(self.lambdas):
            raise DimensionMismatchError("phis and lambdas must have equal length")
        if not all(is_real(lam) and 0 <= lam < math.inf for lam in self.lambdas):
            raise InvalidParamsError(f"lambdas must be finite and >= 0, got {self.lambdas!r}")
        if not (is_real(self.sigma2) and 0 < self.sigma2 < math.inf):
            raise InvalidParamsError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        domain = self.domain
        if not (len(domain) == 2 and all(map(is_real, domain))
                and -math.inf < domain[0] < domain[1] < math.inf):
            raise InvalidParamsError(f"domain must be finite numbers a < b, got {domain!r}")


@dataclass(frozen=True)
class GridDesign:
    """Observation-time design; one of fixed_uniform, random_uniform,
    poisson_uniform."""

    kind: str
    m: int = 20
    mean_count: float = 15.0

    def __post_init__(self):
        if self.kind not in ("fixed_uniform", "random_uniform", "poisson_uniform"):
            raise InvalidInputError(f"unknown grid design {self.kind!r}")
        check_integer("m", self.m)
        check_finite_real("mean_count", self.mean_count)
        if self.kind != "poisson_uniform" and self.m < 2:
            raise InvalidInputError("m must be >= 2")
        if self.kind == "poisson_uniform" and self.mean_count <= 0:
            raise InvalidInputError("mean_count must be positive")

    @classmethod
    def fixed_uniform(cls, m: int = 20) -> "GridDesign":
        return cls("fixed_uniform", m=m)

    @classmethod
    def random_uniform(cls, m: int = 20) -> "GridDesign":
        return cls("random_uniform", m=m)

    @classmethod
    def poisson_uniform(cls, mean_count: float = 15.0) -> "GridDesign":
        return cls("poisson_uniform", mean_count=mean_count)

    def sample(self, rng: np.random.Generator, n: int, domain) -> list[np.ndarray]:
        a, b = domain
        if self.kind == "fixed_uniform":
            grid = np.linspace(a, b, self.m)
            return [grid.copy() for _ in range(n)]
        if self.kind == "random_uniform":
            return [np.sort(rng.uniform(a, b, self.m)) for _ in range(n)]
        grids = []
        for _ in range(n):
            m_i = rng.poisson(self.mean_count)
            while m_i < 2:  # redraw rare tiny counts so every curve is usable
                m_i = rng.poisson(self.mean_count)
            grids.append(np.sort(rng.uniform(a, b, m_i)))
        return grids


@dataclass(frozen=True)
class Contamination:
    """Outlier recipe applied to round(epsilon * n) curves.

    ``endogenous_*`` kinds alter component scores; ``exogenous_*`` kinds add
    multiples of the Doppler direction. The ``*_pc`` kinds split the affected
    curves into +/- halves so the sample mean is untouched in expectation.

    The endogenous_pc recipe turns the affected curves into pure
    second-direction outliers, z = (0, +/-K*sqrt(lambda2)), so the
    contaminated second-component variance is
    (1-eps)*lambda2 + eps*K^2*lambda2^2 and the first drops to
    (1-eps)*lambda1.
    """

    kind: str = "none"
    epsilon: float = 0.0
    K: float = 4.0

    def __post_init__(self):
        if self.kind not in CONTAMINATION_KINDS:
            raise InvalidInputError(f"unknown contamination kind {self.kind!r}")
        check_finite_real("epsilon", self.epsilon)
        check_finite_real("K", self.K)
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidInputError("epsilon must be in [0, 1)")
        if self.kind == "none" and self.epsilon != 0:
            raise InvalidInputError(
                f"epsilon must be 0 for contamination kind 'none', got {self.epsilon!r}"
            )

    @classmethod
    def none(cls) -> "Contamination":
        return cls()


@dataclass(frozen=True)
class SimulationRecord:
    """What the generator actually did: final scores and affected curves."""

    seed: int
    z: np.ndarray
    contaminated: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def simulate_dataset(
    truth: TrueModel,
    design: GridDesign,
    n: int,
    contamination: Contamination,
    seed: int,
    basis: SplineBasis | None = None,
) -> tuple[Dataset, SimulationRecord]:
    """Draw n curves from the true model, apply one contamination recipe.

    Fully deterministic given the seed; the contamination draws come after
    the base draws, so epsilon = 0 reproduces the clean dataset bit for bit.
    """
    check_integer("n", n)
    check_integer("seed", seed)
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    n_comp = len(truth.lambdas)
    # the endogenous recipes set the first (mean) or second (pc) score
    needed = {"endogenous_mean": 1, "endogenous_pc": 2}.get(contamination.kind, 0)
    if n_comp < needed:
        raise InvalidParamsError(
            f"{contamination.kind} contamination needs len(lambdas) >= {needed}, got {n_comp}"
        )
    rng = np.random.default_rng(seed)
    grids = design.sample(rng, n, truth.domain)
    z = rng.standard_normal((n, n_comp))
    m = np.array([g.size for g in grids])
    # one draw of every curve's noise: the same stream as one draw per curve
    noise = rng.standard_normal(int(m.sum()))

    n_bad = int(round(contamination.epsilon * n))
    selected = rng.permutation(n)[:n_bad] if contamination.kind != "none" else np.array([], dtype=int)
    plus = selected[: n_bad // 2]
    minus = selected[n_bad // 2 :]
    K = contamination.K
    lambdas = np.asarray(truth.lambdas, dtype=float)

    if contamination.kind == "endogenous_mean":
        z[selected, 0] = K
    elif contamination.kind == "endogenous_pc":
        level = K * math.sqrt(lambdas[1])
        z[selected, :] = 0.0
        z[plus, 1] = level
        z[minus, 1] = -level

    # signed multiple of the Doppler direction added to each curve
    shift = np.zeros(n)
    if contamination.kind in ("exogenous_mean", "exogenous_pc"):
        level = K * math.sqrt(lambdas[0]) if n_comp else K
        shift[selected if contamination.kind == "exogenous_mean" else plus] = level
        if contamination.kind == "exogenous_pc":
            shift[minus] = -level

    # every term is evaluated once on the pooled times, row by row as the
    # per-curve sums x_i = mu + sigma eps_i + sum_k z_ik sqrt(lam_k) phi_k
    times = np.concatenate(grids)
    x = truth.mu(times) + math.sqrt(truth.sigma2) * noise
    sq_lam = np.sqrt(lambdas)
    for k in range(n_comp):
        x = x + np.repeat(z[:, k] * sq_lam[k], m) * truth.phis[k](times)
    row_shift = np.repeat(shift, m)
    hit = row_shift != 0
    if hit.any():
        x[hit] = x[hit] + row_shift[hit] * doppler_phi3(times[hit])
    curves = Curves([f"curve{i:04d}" for i in range(n)], times, x, m)

    if basis is None:
        basis = build_basis(4, 5, truth.domain)
    record = SimulationRecord(
        seed=seed, z=z, contaminated=np.sort(selected),
        plus=np.sort(plus), minus=np.sort(minus),
    )
    return Dataset(curves, basis), record


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def _error_grid(domain) -> np.ndarray:
    return np.linspace(domain[0], domain[1], ERROR_NORM_GRID)


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


@lru_cache(maxsize=8)
def _simpson_factors(domain: tuple) -> tuple:
    """The grid-only factors of composite Simpson's rule on the (odd-length)
    error grid, computed once per domain. They are those of
    ``scipy.integrate.simpson(y, x=grid)``'s spacing-aware branch, in its
    expression order, so ``_simpson`` returns bitwise the same integral."""
    h = np.diff(_error_grid(domain))
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = _ratio(h0, h1)
    return hsum / 6.0, 2.0 - _ratio(1.0, h0divh1), hsum * _ratio(hsum, h0 * h1), 2.0 - h0divh1


def _simpson(y, domain) -> float:
    scale, c0, c1, c2 = _simpson_factors(domain)
    return float(np.sum(scale * (y[0:-2:2] * c0 + y[1::2] * c1 + y[2::2] * c2)))


def _l2_on_grid(fh, fv, domain: tuple, sign_align: bool = False) -> float:
    direct = _simpson((fh - fv) ** 2, domain)
    if sign_align:
        flipped = _simpson((fh + fv) ** 2, domain)
        direct = min(direct, flipped)
    return math.sqrt(max(direct, 0.0))


def l2_error(fhat, f, domain=(0.0, 1.0), sign_align: bool = False) -> float:
    """L2 distance between two functions by composite Simpson quadrature.

    With ``sign_align`` the sign of ``fhat`` is chosen to minimize the
    distance, as appropriate for component functions that are only identified
    up to sign.
    """
    domain = (float(domain[0]), float(domain[1]))
    grid = _error_grid(domain)
    fh = np.asarray(fhat(grid), dtype=float)
    fv = np.asarray(f(grid), dtype=float)
    return _l2_on_grid(fh, fv, domain, sign_align)


@lru_cache(maxsize=8)
def _grid_design(order: int, interior_knots: tuple, domain: tuple) -> np.ndarray:
    """The design matrix of a basis on the error-norm grid, evaluated once per
    basis (``SplineBasis`` is unhashable, so the cache keys on what defines it)."""
    B = SplineBasis(order, interior_knots, domain).design_matrix(_error_grid(domain))
    B.setflags(write=False)
    return B


def error_norms(fit_result: FitResult, truth: TrueModel) -> dict:
    """L2 errors of the fitted mean and (sign-aligned) leading component."""
    params = fit_result.params
    basis = params.basis
    if basis.domain != tuple(truth.domain):
        raise InvalidInputError("fit domain differs from truth domain")
    grid = _error_grid(truth.domain)
    B = _grid_design(basis.order, tuple(basis.interior_knots.tolist()), basis.domain)
    mu = np.asarray(truth.mu(grid), dtype=float)
    out = {"mu_err": _l2_on_grid(B @ params.theta, mu, basis.domain)}
    if params.d >= 1 and truth.phis:
        out["phi1_err"] = _l2_on_grid(
            (B @ params.H)[:, 0],  # not B @ H[:, 0], whose last bits can differ
            np.asarray(truth.phis[0](grid), dtype=float),
            basis.domain,
            sign_align=True,
        )
    else:
        out["phi1_err"] = None
    return out


# ---------------------------------------------------------------------------
# Monte Carlo studies
# ---------------------------------------------------------------------------

def estimator_label(nu: float) -> str:
    if math.isinf(nu):
        return "normal"
    if nu == 1:
        return "cauchy"
    return f"t{nu:g}"


# Every study fit uses a cubic B-spline basis with 5 interior knots.
STUDY_BASIS_ORDER = 4
STUDY_BASIS_KNOTS = 5
STUDY_MAX_ITER = 2000
# Classical EM stopping for study fits. Estimator sampling noise swamps
# optimization error at this level.
STUDY_TOL = 1e-4
# The criteria a selection study tallies, in table order.
STUDY_CRITERIA = ("aic", "bic")


@dataclass(frozen=True)
class StudyScenario:
    name: str
    contamination: Contamination


@dataclass(frozen=True)
class MonteCarloStudy:
    """Configuration of a replicated simulation experiment.

    ``mode='estimation'`` reproduces root-mean-square error tables for the
    mean (fitted at d=0) and leading component (fitted at d=1).
    ``mode='selection'`` tallies how often each criterion picks each
    dimension over sequential fits up to ``d_max``. Every fit uses the
    ``STUDY_*`` basis and stopping settings. Scenario names and estimator
    labels must not repeat, since each labels its own table cells.
    """

    mode: str
    scenarios: tuple
    n: int = 100
    reps: int = 200
    estimators: tuple = (math.inf, 1.0, 5.0)
    seed: int = 0
    design: GridDesign = field(default_factory=GridDesign.random_uniform)
    truth: TrueModel = field(default_factory=TrueModel)
    d_max: int = 4
    # not a setting: perfbench/workloads.py counts Table 2's rows from it
    criteria: ClassVar[tuple] = STUDY_CRITERIA

    def __post_init__(self):
        if self.mode not in ("estimation", "selection"):
            raise InvalidInputError(f"unknown study mode {self.mode!r}")
        for name in ("n", "reps", "seed", "d_max"):
            check_integer(name, getattr(self, name))
        if self.n < 2:
            raise InvalidInputError(f"n must be >= 2, as a fit needs two curves, got {self.n}")
        if self.reps < 1:
            raise InvalidInputError("reps must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not self.scenarios or not self.estimators:
            raise InvalidInputError("a study needs at least one scenario and one estimator")
        bad = [nu for nu in self.estimators if not (is_real(nu) and nu > 0)]
        if bad:
            raise InvalidInputError(f"estimators must be positive or inf, got {bad[0]!r}")
        for what, labels in (
            ("scenario name", [scen.name for scen in self.scenarios]),
            ("estimator", [estimator_label(nu) for nu in self.estimators]),
        ):
            if len(set(labels)) < len(labels):
                raise InvalidInputError(
                    f"repeated {what} in {labels!r}: each labels its own table cells"
                )
        p = _study_basis(self).dimension
        if not 0 <= self.d_max <= p:
            raise InvalidInputError(f"d_max must be in [0, {p}], got {self.d_max}")


def _study_basis(study: MonteCarloStudy) -> SplineBasis:
    return build_basis(STUDY_BASIS_ORDER, STUDY_BASIS_KNOTS, study.truth.domain)


def _rep_fits(study: MonteCarloStudy, rep: int, d: int) -> list[list[tuple]]:
    """Replication ``rep``'s fits up to dimension d: per scenario, a
    (nu, result) pair per estimator, the result being the ``FitResult`` or
    the ``RfpcaError`` the fit raised.

    Every scenario's dataset draws its time grids first from the
    replication's seed, so the datasets share one design, and each
    estimator fits all of them in lockstep.
    """
    basis = _study_basis(study)
    datasets = [
        simulate_dataset(
            study.truth, study.design, study.n, scen.contamination,
            seed=study.seed + rep, basis=basis,
        )[0]
        for scen in study.scenarios
    ]
    per_nu = [
        _fit_lockstep(
            datasets, ModelConfig(nu=nu, d=d, max_iter=STUDY_MAX_ITER, tol=STUDY_TOL)
        )
        for nu in study.estimators
    ]
    return [list(zip(study.estimators, fits)) for fits in zip(*per_nu)]


def _estimation_rep(study: MonteCarloStudy, rep: int) -> list[dict]:
    out = []
    for scen, fits in zip(study.scenarios, _rep_fits(study, rep, d=1)):
        for nu, result in fits:
            if isinstance(result, RfpcaError):
                out.append({
                    "scenario": scen.name, "nu": nu,
                    "mu_err": np.nan, "mu_ok": False,
                    "phi1_err": np.nan, "phi1_ok": False,
                })
                continue
            stage0, stage1 = result.stages
            out.append({
                "scenario": scen.name,
                "nu": nu,
                "mu_err": error_norms(stage0, study.truth)["mu_err"],
                "mu_ok": stage0.converged,
                "phi1_err": error_norms(stage1, study.truth)["phi1_err"],
                "phi1_ok": stage1.converged,
            })
    return out


def _selection_rep(study: MonteCarloStudy, rep: int) -> list[dict]:
    out = []
    for scen, fits in zip(study.scenarios, _rep_fits(study, rep, d=study.d_max)):
        for nu, chain in fits:
            if isinstance(chain, RfpcaError):
                ok, chosen = False, dict.fromkeys(STUDY_CRITERIA)
            else:
                # the rows select_dimension scores, each with AIC and BIC
                per_d = selection._stage_rows(chain.stages, study.n)
                ok = all(row["converged"] for row in per_d)
                chosen = {c: int(np.argmax([row[c] for row in per_d])) for c in STUDY_CRITERIA}
            for criterion in STUDY_CRITERIA:
                out.append({
                    "scenario": scen.name, "nu": nu, "criterion": criterion,
                    "chosen_d": chosen[criterion], "ok": ok,
                })
    return out


def _rms_and_se(errors: np.ndarray) -> tuple[float, float]:
    sq = errors**2
    mean_sq = float(sq.mean())
    rms = math.sqrt(mean_sq)
    if sq.size < 2 or rms == 0.0:
        return rms, 0.0
    se_mean_sq = float(sq.std(ddof=1)) / math.sqrt(sq.size)
    return rms, se_mean_sq / (2.0 * rms)


def monte_carlo(study: MonteCarloStudy) -> tuple[dict, ...]:
    """Run the configured study and return its rows; deterministic given its seed.

    Replication ``rep`` draws its data from seed ``seed + rep``.
    """
    estimation = study.mode == "estimation"
    rep_func = _estimation_rep if estimation else _selection_rep
    per_rep = [rep_func(study, rep) for rep in range(study.reps)]
    rows = []
    # every replication lists its rows in cell order (scenario, then
    # estimator, then criterion), so row j of each replication is cell j's
    for cell in zip(*per_rep):
        first = cell[0]
        if estimation:
            for metric, name in (("mu", "rmse_mu"), ("phi1", "rmse_phi1")):
                vals = np.array([r[f"{metric}_err"] for r in cell if r[f"{metric}_ok"]])
                rms, se = _rms_and_se(vals) if vals.size else (np.nan, np.nan)
                rows.append({
                    "estimator": estimator_label(first["nu"]),
                    "scenario": first["scenario"],
                    "metric": name,
                    "value": rms,
                    "mc_se": se,
                    "reps_used": vals.size,
                    "reps_excluded": len(cell) - vals.size,
                })
        else:
            good = np.array([r["chosen_d"] for r in cell if r["ok"]], dtype=int)
            for d, count in enumerate(np.bincount(good, minlength=study.d_max + 1)):
                rows.append({
                    "estimator": estimator_label(first["nu"]),
                    "criterion": first["criterion"],
                    "scenario": first["scenario"],
                    "d": d,
                    "percent": 100.0 * int(count) / good.size if good.size else np.nan,
                    "reps_used": good.size,
                    "reps_excluded": len(cell) - good.size,
                })
    return tuple(rows)


# ---------------------------------------------------------------------------
# Canonical study configurations
# ---------------------------------------------------------------------------

def efficiency_study(reps: int = 200, seed: int = 0, n: int = 100) -> MonteCarloStudy:
    """Table 1: clean data plus all four contamination recipes at 10/20/30 percent."""
    scens = [StudyScenario("clean", Contamination.none())]
    for kind, tag in (
        ("endogenous_mean", "endo_mean"),
        ("exogenous_mean", "exo_mean"),
        ("endogenous_pc", "endo_pc"),
        ("exogenous_pc", "exo_pc"),
    ):
        for eps in (0.10, 0.20, 0.30):
            scens.append(StudyScenario(f"{tag}_{int(eps * 100)}", Contamination(kind, eps)))
    return MonteCarloStudy(
        mode="estimation",
        scenarios=tuple(scens),
        n=n,
        reps=reps,
        estimators=(math.inf, 1.0, 5.0),
        seed=seed,
    )


def selection_study(reps: int = 200, seed: int = 0, n: int = 60) -> MonteCarloStudy:
    """Table 2: clean data and exogenous_pc contamination at 10/20/30 percent."""
    scens = [StudyScenario("clean", Contamination.none())]
    for eps in (0.10, 0.20, 0.30):
        scens.append(
            StudyScenario(f"exo_pc_{int(eps * 100)}", Contamination("exogenous_pc", eps))
        )
    return MonteCarloStudy(
        mode="selection",
        scenarios=tuple(scens),
        n=n,
        reps=reps,
        estimators=(math.inf, 1.0),
        seed=seed,
    )
