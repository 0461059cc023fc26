"""Acceptance suite.

Each test records one ``ACCEPTANCE`` PASS/FAIL line, which pytest's terminal
summary prints under any capture mode (see ``tests/conftest.py``). Monte Carlo
checks use 200 replications with a fixed seed, so their outcomes are
deterministic. The whole module is budgeted to run in a few minutes.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from rfpca import (
    ModelConfig,
    ModelParams,
    build_basis,
    degrees_of_freedom,
    estimating_equation_residuals,
    fit,
    log_likelihood,
    mean_confidence_band,
    sigma_solve,
    simulate_dataset,
)
from rfpca.simulate import (
    ERROR_NORM_GRID,
    STUDY_BASIS_KNOTS,
    STUDY_BASIS_ORDER,
    STUDY_MAX_ITER,
    STUDY_TOL,
    Contamination,
    GridDesign,
    MonteCarloStudy,
    StudyScenario,
    TrueModel,
    doppler_phi3,
    estimator_label,
    l2_error,
    monte_carlo,
)
from oracles import (
    added_column_gain, dataset_of, dense_covariance, doppler_projection, random_params,
)


SEED = 0
REPS = 200


@pytest.fixture(scope="module")
def estimation_rows():
    study = MonteCarloStudy(
        mode="estimation",
        scenarios=(
            StudyScenario("clean", Contamination.none()),
            StudyScenario("exo_mean_10", Contamination("exogenous_mean", 0.10, 4.0)),
            StudyScenario("endo_mean_30", Contamination("endogenous_mean", 0.30, 4.0)),
            StudyScenario("endo_pc_20", Contamination("endogenous_pc", 0.20, 4.0)),
            StudyScenario("exo_pc_20", Contamination("exogenous_pc", 0.20, 4.0)),
        ),
        n=100,
        reps=REPS,
        estimators=(math.inf, 1.0, 5.0),
        seed=SEED,
    )
    return {
        (row["estimator"], row["scenario"], row["metric"]): row["value"]
        for row in monte_carlo(study)
    }


EXO10 = StudyScenario("exo_pc_10", Contamination("exogenous_pc", 0.10, 4.0))
SELECTION_STUDY = MonteCarloStudy(
    mode="selection",
    scenarios=(StudyScenario("clean", Contamination.none()), EXO10),
    n=60,
    reps=REPS,
    estimators=(math.inf, 1.0),
    seed=SEED,
    d_max=4,
)


@pytest.fixture(scope="module")
def selection_rows():
    return {
        (row["estimator"], row["scenario"], row["d"]): row["percent"]
        for row in monte_carlo(SELECTION_STUDY)
        if row["criterion"] == "bic"
    }


def _max_principal_angle(params, truth) -> float:
    """Largest principal angle, in degrees, between the span of the first two
    fitted components and span(phi1, phi2), in the L2 inner product by
    composite Simpson quadrature."""
    grid = np.linspace(*truth.domain, ERROR_NORM_GRID)
    fitted = params.components(grid)[:, :2]
    true = np.column_stack([phi(grid) for phi in truth.phis])

    def inner(X, Y):
        return simpson(X[:, :, None] * Y[:, None, :], x=grid, axis=0)

    lf = np.linalg.cholesky(inner(fitted, fitted))
    lt = np.linalg.cholesky(inner(true, true))
    cosines = np.linalg.svd(
        np.linalg.solve(lf, np.linalg.solve(lt, inner(fitted, true).T).T),
        compute_uv=False,
    )
    return math.degrees(math.acos(min(1.0, cosines.min())))


@pytest.fixture(scope="module")
def exo10_replay():
    """The exo_pc_10 reps of ``selection_rows`` replayed one by one.

    Same seeds, design, basis, tol and max_iter as the harness; d is chosen
    by a BIC computed here from ``log_likelihood`` at each stage's
    parameters, apart from the harness's scorer. Per estimator label, one
    record per rep: whether every stage converged, the chosen d, and the
    largest principal angle of the chosen stage's first two components
    (None for d < 2).
    ``bound_gain`` holds, per rep, the log-likelihood gain of the Cauchy d=2
    fit from one added loading column along the projected Doppler direction.
    """
    study = SELECTION_STUDY
    basis = build_basis(STUDY_BASIS_ORDER, STUDY_BASIS_KNOTS, study.truth.domain)
    doppler = doppler_projection(basis)
    records = {estimator_label(nu): [] for nu in study.estimators}
    bound_gain = []
    c_bic = math.log(study.n) / 2.0
    for rep in range(study.reps):
        data, _ = simulate_dataset(
            study.truth, study.design, study.n, EXO10.contamination,
            seed=study.seed + rep, basis=basis,
        )
        for nu in study.estimators:
            config = ModelConfig(nu=nu, d=study.d_max, max_iter=STUDY_MAX_ITER, tol=STUDY_TOL)
            chain = fit(data, config)
            d = int(np.argmax([
                log_likelihood(stage.params, data) - c_bic * degrees_of_freedom(basis.dimension, k)
                for k, stage in enumerate(chain.stages)
            ]))
            angle = _max_principal_angle(chain.stages[d].params, study.truth) if d >= 2 else None
            records[estimator_label(nu)].append({
                "ok": all(stage.converged for stage in chain.stages), "d": d, "angle": angle,
            })
            if nu == 1.0:
                p2 = chain.stages[2].params
                bound_gain.append(added_column_gain(
                    lambda xi: log_likelihood(
                        ModelParams.from_xi(p2.theta, xi, p2.sigma2, nu, basis), data
                    ),
                    p2.xi, doppler, p2.sigma2,
                ))
    return {"records": records, "bound_gain": np.array(bound_gain)}


@pytest.mark.slow
def test_criterion_1_clean_efficiency(estimation_rows, acceptance_report):
    targets = {
        ("normal", "rmse_mu"): 0.142,
        ("cauchy", "rmse_mu"): 0.169,
        ("t5", "rmse_mu"): 0.159,
        ("normal", "rmse_phi1"): 0.142,
        ("cauchy", "rmse_phi1"): 0.165,
        ("t5", "rmse_phi1"): 0.163,
    }
    deviations = {
        key: estimation_rows[(key[0], "clean", key[1])] - ref
        for key, ref in targets.items()
    }
    ok = all(abs(dev) <= 0.03 for dev in deviations.values())
    detail = ", ".join(
        f"{e}/{m}: {estimation_rows[(e, 'clean', m)]:.3f} vs {ref:.3f}"
        for (e, m), ref in targets.items()
    )
    assert acceptance_report("1 clean-data efficiency", ok, detail)


@pytest.mark.slow
def test_criterion_2_mean_contamination(estimation_rows, acceptance_report):
    exo_n = estimation_rows[("normal", "exo_mean_10", "rmse_mu")]
    exo_c = estimation_rows[("cauchy", "exo_mean_10", "rmse_mu")]
    endo_n = estimation_rows[("normal", "endo_mean_30", "rmse_mu")]
    endo_c = estimation_rows[("cauchy", "endo_mean_30", "rmse_mu")]
    ok = (
        0.30 <= exo_n <= 0.45
        and exo_c <= 0.22
        and 1.05 <= endo_n <= 1.35
        and endo_c <= 0.45
    )
    detail = (
        f"exo10: normal {exo_n:.3f} in [0.30,0.45], cauchy {exo_c:.3f} <= 0.22; "
        f"endo30: normal {endo_n:.3f} in [1.05,1.35], cauchy {endo_c:.3f} <= 0.45"
    )
    assert acceptance_report("2 mean contamination", ok, detail)


@pytest.mark.slow
def test_criterion_3_component_contamination(estimation_rows, acceptance_report):
    endo_n = estimation_rows[("normal", "endo_pc_20", "rmse_phi1")]
    endo_c = estimation_rows[("cauchy", "endo_pc_20", "rmse_phi1")]
    exo_c = estimation_rows[("cauchy", "exo_pc_20", "rmse_phi1")]
    ok = endo_n >= 1.2 and endo_c <= 0.80 and exo_c <= 0.30
    detail = (
        f"endo20: normal {endo_n:.3f} >= 1.2, cauchy {endo_c:.3f} <= 0.80; "
        f"exo20: cauchy {exo_c:.3f} <= 0.30"
    )
    assert acceptance_report("3 component contamination", ok, detail)


def _percent(records, keep) -> float:
    good = [r for r in records if r["ok"]]
    return 100.0 * sum(1 for r in good if keep(r)) / len(good)


def _keeps_true_components(record) -> bool:
    # the Doppler outliers may add one direction, but must not displace
    # phi1 and phi2 from the leading two components of the selected model
    return record["d"] in (2, 3) and record["angle"] < 20.0


@pytest.mark.slow
def test_criterion_4_selection(selection_rows, exo10_replay, acceptance_report):
    """BIC selection resists exogenous outliers.

    Under exo_pc_10 the chosen model must keep the true components as its
    leading two: d is 2 or 3 and their largest principal angle to
    span(phi1, phi2) is below 20 degrees. Picking d=2 itself is not required:
    one added column along the projected Doppler direction already raises the
    Cauchy d=2 log-likelihood by more than the BIC hurdle 7 log(60)/2 in most
    reps (see tests/test_selection.py), so every maximizer prefers d >= 3.
    """
    records = exo10_replay["records"]
    for label in records:
        replayed = _percent(records[label], lambda r: r["d"] == 2)
        assert replayed == selection_rows[(label, "exo_pc_10", 2)], label

    clean_cau = selection_rows[("cauchy", "clean", 2)]
    exo_cau = selection_rows[("cauchy", "exo_pc_10", 2)]
    exo_nor = selection_rows[("normal", "exo_pc_10", 2)]
    kept_cau = _percent(records["cauchy"], _keeps_true_components)
    kept_nor = _percent(records["normal"], _keeps_true_components)
    gains = exo10_replay["bound_gain"]
    hurdle = math.log(SELECTION_STUDY.n) / 2 * (
        degrees_of_freedom(9, 3) - degrees_of_freedom(9, 2)
    )
    ok = clean_cau >= 97.0 and kept_cau >= 75.0 and kept_nor <= 10.0 and exo_nor <= 10.0
    detail = (
        f"clean BIC-Cauchy d=2: {clean_cau:.1f}% >= 97; "
        f"exo10 BIC-Cauchy d=2: {exo_cau:.1f}% (reported); "
        f"exo10 BIC-Normal d=2: {exo_nor:.1f}% <= 10; "
        f"exo10 BIC-Cauchy keeps phi1,phi2: {kept_cau:.1f}% >= 75; "
        f"exo10 BIC-Normal keeps phi1,phi2: {kept_nor:.1f}% <= 10; "
        f"Doppler column beats BIC hurdle {hurdle:.2f}: "
        f"{int((gains > hurdle).sum())}/{gains.size}"
    )
    assert acceptance_report("4 dimension selection", ok, detail)


def test_criterion_5_degrees_of_freedom(acceptance_report):
    ok = degrees_of_freedom(9, 2) == 27
    assert acceptance_report("5 degrees of freedom", ok, f"df(9,2) = {degrees_of_freedom(9, 2)}")


# three of the 100 fits reach the deliberately low max_iter; ascent is
# checked on their traces all the same
@pytest.mark.filterwarnings(
    "ignore:fit stages that did not converge within max_iter=200:UserWarning"
)
def test_criterion_6_em_ascent(acceptance_report):
    rng = np.random.default_rng(SEED)
    violations = 0
    for k in range(100):
        m = int(rng.integers(3, 11))
        d = int(rng.integers(0, 3))
        nu = (1.0, 5.0)[k % 2]
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(m), 20, Contamination.none(),
            seed=SEED + 1000 + k,
        )
        res = fit(data, ModelConfig(nu=nu, d=d, max_iter=200))
        for stage in res.stages:
            if np.any(np.diff(stage.loglik_trace) < -1e-8):
                violations += 1
    ok = violations == 0
    assert acceptance_report("6 EM ascent", ok, f"{violations} violations on 100 datasets")


def test_criterion_7_fixed_point(acceptance_report):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(20, 41))
        m = int(rng.integers(8, 21))
        d = int(rng.integers(1, 3))
        nu = (1.0, 5.0, math.inf)[k % 3]
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(m), n, Contamination.none(),
            seed=SEED + 2000 + k,
        )
        res = fit(
            data,
            ModelConfig(nu=nu, d=d, tol=1e-14, max_iter=100000),
        )
        worst = max(worst, estimating_equation_residuals(res.params, data).max())
    ok = worst < 1e-5
    assert acceptance_report("7 fixed-point residuals", ok, f"max norm {worst:.2e} < 1e-5")


def test_criterion_8_woodbury(acceptance_report):
    rng = np.random.default_rng(SEED)
    basis = build_basis(4, 5, (0, 1))
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(0, 5))
        m = int(rng.integers(1, 51))
        params = random_params(rng, basis, d=d, sigma2=float(rng.uniform(0.05, 2.0)))
        B = basis.design_matrix(rng.uniform(0, 1, m))
        rhs = rng.normal(size=m)
        sol, logdet = sigma_solve(params, B, rhs)
        sigma = dense_covariance(params, B)
        ref = np.linalg.solve(sigma, rhs)
        err = np.linalg.norm(sol - ref) / max(np.linalg.norm(ref), 1e-300)
        err = max(err, abs(logdet - np.linalg.slogdet(sigma)[1]) / max(abs(logdet), 1.0))
        worst = max(worst, err)
    ok = worst < 1e-10
    assert acceptance_report("8 Woodbury oracle", ok, f"max relative error {worst:.2e} over 500")


def test_criterion_9_influence_boundedness(acceptance_report):
    rng = np.random.default_rng(SEED)
    base, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 100, Contamination.none(), seed=SEED
    )
    t_out = np.sort(rng.uniform(0, 1, 20))
    base_curve = 0.5 * rng.standard_normal(20)
    shifts = {}
    for nu in (1.0, math.inf):
        clean_mean = fit(base, ModelConfig(nu=nu, d=0)).params
        shifts[nu] = []
        for K in (4, 8, 16, 32):
            out = ("outlier", t_out, base_curve + K * doppler_phi3(t_out))
            data = dataset_of(base.trajectories + [out], base.basis)
            mean_k = fit(data, ModelConfig(nu=nu, d=0)).params
            shifts[nu].append(
                l2_error(lambda t: mean_k.mean(t), lambda t: clean_mean.mean(t))
            )
    cauchy, normal = shifts[1.0], shifts[math.inf]
    ok = cauchy[3] <= 2 * cauchy[0] and normal[3] >= 5 * cauchy[3]
    detail = (
        f"cauchy K=4..32: {np.round(cauchy, 4).tolist()}; "
        f"normal K=32: {normal[3]:.4f} >= 5x cauchy K=32"
    )
    assert acceptance_report("9 influence boundedness", ok, detail)


def test_criterion_10_ratio_consistency(acceptance_report):
    hits = 0
    for rep in range(50):
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(20), 400, Contamination.none(),
            seed=SEED + 3000 + rep,
        )
        res = fit(data, ModelConfig(nu=1.0, d=2))
        ratio = res.params.lam[0] / res.params.lam[1]
        hits += 1.6 <= ratio <= 2.4
    ok = hits >= 45  # 90% of 50
    assert acceptance_report("10 ratio consistency", ok, f"{hits}/50 in [1.6, 2.4]")


def test_criterion_11_band_coverage(acceptance_report):
    truth = TrueModel(phis=(), lambdas=(), sigma2=0.25)
    hits = 0
    reps = 300
    for rep in range(reps):
        data, _ = simulate_dataset(
            truth, GridDesign.random_uniform(20), 200, Contamination.none(),
            seed=SEED + 4000 + rep,
        )
        res = fit(data, ModelConfig(nu=math.inf, d=0))
        band = mean_confidence_band(res.params, data, np.array([0.5]), 0.95)
        lo = band.band_center[0] - band.band_half_width[0]
        hi = band.band_center[0] + band.band_half_width[0]
        hits += lo <= 0.0 <= hi
    coverage = hits / reps
    ok = 0.91 <= coverage <= 0.98
    assert acceptance_report("11 band coverage", ok, f"coverage {coverage:.3f} in [0.91, 0.98]")
