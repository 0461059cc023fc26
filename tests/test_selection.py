import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rfpca import (
    ModelConfig,
    build_basis,
    cross_validate,
    degrees_of_freedom,
    em_step,
    fit,
    fit_from,
    log_likelihood,
    select_dimension,
    simulate_dataset,
)
from rfpca import model
from rfpca.errors import ConditioningError, NumericalOverflowError
from rfpca.model import FitResult, ModelParams, _batch, _estep, _phi
from rfpca.selection import SelectionError
from rfpca.simulate import Contamination, GridDesign, TrueModel
from oracles import (
    added_column_gain,
    dense_covariance,
    dense_log_likelihood,
    dataset_of,
    dense_t_logpdf,
    doppler_projection,
    random_dataset,
    singular_at_right_end,
)


BASIS = build_basis(4, 5, (0, 1))


def test_degrees_of_freedom_examples():
    assert degrees_of_freedom(9, 2) == 27
    assert degrees_of_freedom(9, 0) == 10
    assert degrees_of_freedom(17, 0) == 18
    assert degrees_of_freedom(9, 3) == 34


def test_degrees_of_freedom_explicit_count():
    # parameters: theta (p) + H (p*d) + lam (d) + sigma2 (1),
    # minus the d(d+1)/2 orthonormality restrictions on H
    p, d = 9, 3
    params = p + p * d + d + 1
    restrictions = d * (d + 1) // 2
    assert degrees_of_freedom(p, d) == params - restrictions


def test_degrees_of_freedom_monotone():
    for d in range(9):
        assert degrees_of_freedom(9, d + 1) - degrees_of_freedom(9, d) == 9 - d
    with pytest.raises(ValueError):
        degrees_of_freedom(9, 10)


def test_bic_penalty_difference_for_nested_dims():
    # at n=60 the BIC penalties of d=3 and d=2 differ by (log 60 / 2) * 7
    diff = math.log(60) / 2 * (degrees_of_freedom(9, 3) - degrees_of_freedom(9, 2))
    assert abs(diff - math.log(60) / 2 * 7) < 1e-12


def test_bic_exceeds_aic_iff_n_above_e2():
    assert math.log(8) / 2 > 1.0  # n = 8 > e^2 ~ 7.39
    assert math.log(7) / 2 < 1.0


def test_doppler_column_gain_exceeds_bic_hurdle():
    """Lower bound behind acceptance criterion 4.

    On the exo_pc_10 selection study's data (n=60, seeds 0-9), appending one
    loading column along the L2 projection of the Doppler direction to the
    Cauchy d=2 fit raises the dense log-likelihood by more than the BIC
    hurdle of the d=3 model. The d=3 maximum can only gain more, so BIC picks
    d >= 3 there. The bound is a property of the likelihood, not of where EM
    stops: it holds for the study's tol=1e-4 fit and for that fit continued
    to deep convergence alike.
    """
    hurdle = math.log(60) / 2 * (degrees_of_freedom(9, 3) - degrees_of_freedom(9, 2))
    doppler = doppler_projection(BASIS)
    for seed in range(10):
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(20), 60,
            Contamination("exogenous_pc", 0.10, 4.0), seed=seed, basis=BASIS,
        )
        study_fit = fit(data, ModelConfig(nu=1.0, d=2, tol=1e-4))
        deep_config = ModelConfig(
            nu=1.0, d=2, tol=1e-14, max_iter=100000
        )
        deep_fit = fit_from(data, deep_config, study_fit.params)
        assert deep_fit.converged
        gains = [
            added_column_gain(
                lambda xi: dense_log_likelihood(p.theta, xi, p.sigma2, p.nu, data),
                p.xi, doppler, p.sigma2,
            )
            for p in (study_fit.params, deep_fit.params)
        ]
        assert min(gains) > hurdle, (seed, gains)
        assert abs(gains[1] - gains[0]) < 0.5, (seed, gains)


def test_cross_validate_deterministic_and_counts():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(8), 8, Contamination.none(), seed=3
    )
    config = ModelConfig(nu=math.inf, d=0)
    s1, _ = cross_validate(data, config)
    s2, details = cross_validate(data, config)
    assert s1 == s2
    assert len(details) == data.n  # exactly n held-out refits


def test_cross_validate_manual_oracle():
    """Hand-assembled held-out log densities reproduce the cv score."""
    basis = build_basis(4, 1, (0, 1))
    rng = np.random.default_rng(7)
    trajs = [(f"c{i}", np.sort(rng.uniform(0, 1, 8)), rng.normal(size=8)) for i in range(3)]
    data = dataset_of(trajs, basis)
    config = ModelConfig(nu=1.0, d=0)
    full = fit(data, config)
    manual = 0.0
    for i in range(3):
        refit = fit_from(_without(data, i), config, full.params)
        held = data.trajectories[i]
        B = basis.design_matrix(held.times)
        sigma = dense_covariance(refit.params, B)
        manual += dense_t_logpdf(held.values, B @ refit.params.theta, sigma, 1.0)
    assert abs(cross_validate(data, config)[0] - manual) < 1e-9


def _without(data, i):
    return dataset_of(data.trajectories[:i] + data.trajectories[i + 1 :], data.basis)


def _reference_cross_validation(data, config, full):
    """Leave-one-out CV the slow way: one solo warm-started refit per curve on
    the dataset without it, then the held-out curve's log density at the
    refit's parameters. Returns per-curve terms, iteration counts and
    convergence flags."""
    terms, iterations, converged = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(data.n):
            refit = fit_from(_without(data, i), config, full.params)
            held_out = dataset_of([data.trajectories[i]], data.basis)
            terms.append(log_likelihood(refit.params, held_out))
            iterations.append(refit.iterations)
            converged.append(refit.converged)
    return np.array(terms), iterations, converged


def _lockstep_cross_validation(data, config, full):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        score, details = cross_validate(data, config, full_fit=full)
    return score, details, [str(w.message) for w in caught]


def _cv_data(n=10, seed=9):
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(8), n,
        Contamination("exogenous_mean", 0.2, 4.0), seed=seed, basis=BASIS,
    )
    return data


# the unpenalized Cauchy d = 2 full fit stops at max_iter; the refits
# start from its last iterate either way
@pytest.mark.filterwarnings(
    "ignore:fit stages that did not converge within max_iter=2000:UserWarning"
)
@pytest.mark.parametrize("penalty", [0.0, 0.3])
@pytest.mark.parametrize("nu", [1.0, 5.0, math.inf])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_cross_validate_matches_solo_refit_loop(d, nu, penalty):
    data = _cv_data()
    config = ModelConfig(nu=nu, d=d, penalty=penalty)
    full = fit(data, config)
    ref_terms, ref_iters, ref_conv = _reference_cross_validation(data, config, full)
    score, details, messages = _lockstep_cross_validation(data, config, full)
    assert [rec["id"] for rec in details] == [t.id for t in data.trajectories]
    assert [rec["iterations"] for rec in details] == ref_iters
    assert [rec["converged"] for rec in details] == ref_conv
    terms = np.array([rec["loglik"] for rec in details])
    np.testing.assert_allclose(terms, ref_terms, rtol=1e-10, atol=0)
    assert abs(score - ref_terms.sum()) <= 1e-10 * abs(ref_terms.sum())
    assert len(messages) == ref_conv.count(False)


def _objective(params, data, config):
    # the penalized log-likelihood that EM ascends
    P, theta = data.basis.penalty_matrix, params.theta
    bend = theta @ P @ theta + sum(col @ P @ col for col in params.xi.T)
    return log_likelihood(params, data) - config.penalty * bend / params.sigma2


# measured before the test below was written, over its 120 refits: an
# accelerated refit ended at most 8.0e-9 relative below its plain chain
_REFIT_DEFICIT = 2e-8


@pytest.mark.filterwarnings(
    "ignore:fit stages that did not converge within max_iter=2000:UserWarning"
)
@pytest.mark.parametrize("penalty", [0.0, 0.3])
@pytest.mark.parametrize("nu", [1.0, 5.0, math.inf])
@pytest.mark.parametrize("d", [1, 2])
def test_accelerated_refits_against_plain_em_chain(d, nu, penalty):
    # every refit runs as _warm_fits runs it, in SqS3 cycles, and as a chain
    # of em_step calls stopped by the same rule. The cap of 500 maps keeps
    # the unpenalized Cauchy chains, which reach it, affordable; a capped
    # refit then meets its chain after as many maps
    data = _cv_data()
    config = ModelConfig(nu=nu, d=d, penalty=penalty, max_iter=500)
    full = fit(data, dataclasses.replace(config, max_iter=2000))
    for i, stop in enumerate(model._warm_fits(data, config, full.params, range(data.n))):
        held_in = _without(data, i)
        params = full.params
        chain = [_objective(params, held_in, config)]
        while not (model._converged(chain, config.tol) or len(chain) > config.max_iter):
            params = em_step(params, held_in, config)
            chain.append(_objective(params, held_in, config))
        assert stop.trace[-1] >= chain[-1] - _REFIT_DEFICIT * abs(chain[-1]), i
        assert np.all(np.diff(stop.trace) >= 0), i
        if stop.converged:
            assert model._converged(list(stop.trace), config.tol), i
        else:
            assert stop.iterations == config.max_iter, i


@pytest.mark.parametrize("nu", [1.0, math.inf])
@pytest.mark.parametrize("penalty", [0.0, 0.3])
def test_accelerated_refit_starts_with_plain_maps(nu, penalty):
    # a cycle begins with two plain EM maps, so a refit capped at two maps
    # is em_step twice, and a cycle's first two objectives are theirs.
    # At d = 0 no canonical rotation comes between the chained calls, so
    # the equality is bitwise
    data = _cv_data()
    config = ModelConfig(nu=nu, d=0, penalty=penalty)
    start = fit(data, dataclasses.replace(config, tol=1e-3)).params
    two = fit_from(data, dataclasses.replace(config, max_iter=2), start)
    chained = em_step(em_step(start, data, config), data, config)
    assert two.params.theta.tobytes() == chained.theta.tobytes()
    assert two.params.sigma2 == chained.sigma2
    three = fit_from(data, dataclasses.replace(config, max_iter=3), start)
    assert three.iterations == 3
    assert three.loglik_trace[:2].tobytes() == two.loglik_trace[:2].tobytes()


def test_cross_validate_capped_refits_warn_like_solo_loop():
    data = _cv_data()
    config = ModelConfig(nu=1.0, d=1, max_iter=3)
    full = fit(data, ModelConfig(nu=1.0, d=1, tol=1e-3))
    ref_terms, ref_iters, ref_conv = _reference_cross_validation(data, config, full)
    score, details, messages = _lockstep_cross_validation(data, config, full)
    assert [rec["iterations"] for rec in details] == ref_iters == [3] * data.n
    assert [rec["converged"] for rec in details] == ref_conv == [False] * data.n
    np.testing.assert_allclose([rec["loglik"] for rec in details], ref_terms, rtol=1e-10, atol=0)
    assert messages == [
        f"held-out refit without curve {t.id!r} did not converge; using its last iterate"
        for t in data.trajectories
    ]


@pytest.mark.parametrize("models_per_batch", [1, 7, None])
def test_cross_validate_independent_of_batch_size(monkeypatch, models_per_batch):
    data = _cv_data(n=15, seed=11)
    config = ModelConfig(nu=1.0, d=2)
    full = fit(data, config)
    _, reference = cross_validate(data, config, full_fit=full)
    per_model = 8 * (config.d + 1) * data.n * BASIS.dimension
    budget = per_model * (models_per_batch or data.n)
    monkeypatch.setattr(model, "_BATCH_BYTES", budget + per_model - 1)
    _, details = cross_validate(data, config, full_fit=full)
    assert [rec["iterations"] for rec in details] == [rec["iterations"] for rec in reference]
    np.testing.assert_allclose(
        [rec["loglik"] for rec in details], [rec["loglik"] for rec in reference],
        rtol=1e-12, atol=0,
    )


def test_cross_validate_traced_memory_is_bounded():
    # n = 100, d = 2, as in the select_small benchmark workload: refits run
    # in batches capped by model._BATCH_BYTES, and each E-step is freed
    # before the next one is computed, so the peak stays near one batch's
    # E-step and M-step arrays whatever n is
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 100, Contamination.none(), seed=21
    )
    config = ModelConfig(nu=1.0, d=2)
    full = fit(data, config)
    tracemalloc.start()
    try:
        cross_validate(data, config, full_fit=full)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def _stub_fit(params, n):
    return FitResult(
        params=params, loglik_trace=np.zeros(1), converged=True, iterations=0,
        backtracks=0, loglik=0.0, s=np.zeros(n), weights=np.ones(n),
    )


def _late_curve_data():
    return dataset_of(
        [("early", [0.01, 0.05], [0.3, -0.2]), ("mid", [0.4, 0.5], [0.1, 0.2]), ("late", [1.0], [0.4])],
        BASIS,
    )


def test_batched_singular_posterior_precision_names_curve_not_slot():
    data = _late_curve_data()
    good = ModelParams.from_xi(np.zeros(9), np.eye(9)[:, :2] * 0.5, 1.0, 1.0, BASIS)
    # V_i rounds to a singular matrix for the curve observed at t = 1 only
    bad = singular_at_right_end(BASIS)
    # model 1 is the singular one, so the first bad slot is n + 2, not 2
    phi = np.concatenate([_phi(good.theta, good.xi), _phi(bad.theta, bad.xi)])
    _, failed = _estep(_batch(data, 1.0, np.ones((2, data.n))), phi, np.ones(2))
    assert list(failed) == [1] and isinstance(failed[1], ConditioningError)
    assert "'late'" in str(failed[1])
    with pytest.raises(ConditioningError, match="'late'"):
        cross_validate(data, ModelConfig(nu=1.0, d=2), full_fit=_stub_fit(bad, data.n))


def test_cross_validate_nonfinite_density_names_curve():
    data = dataset_of(
        [
            ("a", [0.1, 0.3], [0.3, -0.2]),
            ("huge", [0.5, 0.6], [1e200, -1e200]),
            ("b", [0.7, 0.9], [0.1, 0.2]),
        ],
        BASIS,
    )
    params = ModelParams(
        theta=np.zeros(9), H=np.zeros((9, 0)), lam=np.zeros(0),
        sigma2=1.0, nu=1.0, basis=BASIS,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalOverflowError, match="'huge'"):
            cross_validate(data, ModelConfig(nu=1.0, d=0), full_fit=_stub_fit(params, 3))


def _edge_data():
    # only curve "edge" observes the right end of the domain, so the refit
    # without it has a singular mean-coefficient system
    rng = np.random.default_rng(4)
    trajs = [(f"c{i}", np.sort(rng.uniform(0, 0.45, 12)), rng.normal(size=12)) for i in range(4)]
    trajs.append(("edge", np.linspace(0, 1, 15), rng.normal(size=15)))
    return dataset_of(trajs, BASIS)


def test_cross_validate_failing_refit_reports_its_own_error(monkeypatch):
    data = _edge_data()
    config = ModelConfig(nu=1.0, d=1)
    full = fit(data, config)
    batches = []
    em_loop = model._em_loop

    def recording(batch, phi, *args):
        batches.append(phi.shape[0])
        return em_loop(batch, phi, *args)

    monkeypatch.setattr(model, "_em_loop", recording)
    refits = list(model._warm_fits(data, config, full.params, range(data.n)))
    assert batches == [data.n]  # one batch; the failing refit is not rerun
    with pytest.raises(ConditioningError) as solo_error:
        fit_from(_without(data, 4), config, full.params)
    assert isinstance(refits[4], ConditioningError)
    assert str(refits[4]) == str(solo_error.value)
    # the other refits still run to their own stops
    for i in range(4):
        solo = fit_from(_without(data, i), config, full.params)
        assert (refits[i].iterations, refits[i].converged) == (solo.iterations, solo.converged)
    batches.clear()
    with pytest.raises(ConditioningError) as cv_error:
        cross_validate(data, config, full_fit=full)
    assert str(cv_error.value) == str(solo_error.value)
    assert batches == [data.n]


def test_select_dimension_cv_failure_keeps_partial_report():
    data = _edge_data()
    config = ModelConfig(nu=1.0, d=1)
    fit(data, config)  # the full-data fit itself is fine
    with pytest.raises(SelectionError) as exc_info:
        select_dimension(data, 1, "cv", config)
    assert isinstance(exc_info.value.__cause__, ConditioningError)
    partial = exc_info.value.partial_report
    assert partial is not None and partial.chosen_d is None
    assert partial.per_d == ()


def test_select_dimension_cv_records_refit_iterations():
    data = _cv_data()
    config = ModelConfig(nu=5.0, d=1)
    report = select_dimension(data, 1, "cv", config)
    chain = fit(data, config)
    for row, stage in zip(report.per_d, chain.stages):
        _, details = cross_validate(data, ModelConfig(nu=5.0, d=row["d"]), full_fit=stage)
        assert row["cv_refit_iterations"] == sum(rec["iterations"] for rec in details) > 0
        assert row["cv_refits_nonconverged"] == sum(not rec["converged"] for rec in details)


def test_cross_validate_needs_three_curves():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(8), 2, Contamination.none(), seed=3
    )
    with pytest.raises(ValueError):
        cross_validate(data, ModelConfig(nu=1.0, d=0))


def test_select_dimension_dmax_zero():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 15, Contamination.none(), seed=2
    )
    report = select_dimension(data, 0, "bic", ModelConfig(nu=1.0))
    assert report.chosen_d == 0
    assert len(report.per_d) == 1


def test_select_dimension_nested_loglik_nondecreasing():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(15), 40, Contamination.none(), seed=4
    )
    report = select_dimension(data, 3, "bic", ModelConfig(nu=1.0))
    lls = [row["loglik"] for row in report.per_d]
    assert all(lls[i + 1] >= lls[i] - 1e-6 * (abs(lls[i]) + 1) for i in range(3))
    assert [row["df"] for row in report.per_d] == [10, 19, 27, 34]
    assert report.per_d[2]["lambda_share"] is not None
    assert report.per_d[0]["lambda_share"] is None
    # each row's AIC and BIC are ll - c * df, with ll recomputed at its
    # stage's parameters
    stages = fit(data, ModelConfig(nu=1.0, d=3)).stages
    for d, (row, stage) in enumerate(zip(report.per_d, stages, strict=True)):
        ll = log_likelihood(stage.params, data)
        assert abs(row["aic"] - (ll - degrees_of_freedom(9, d))) < 1e-9
        assert abs(row["bic"] - (ll - math.log(40) / 2 * degrees_of_freedom(9, d))) < 1e-9


def test_select_dimension_clean_two_component():
    hits = 0
    for rep in range(5):
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(20), 60, Contamination.none(),
            seed=100 + rep,
        )
        report = select_dimension(data, 3, "bic", ModelConfig(nu=1.0, tol=1e-4))
        hits += report.chosen_d == 2
    assert hits >= 4


def test_normal_model_overestimates_dimension_under_contamination():
    # exogenous outliers add a spurious variance direction; the Normal-model
    # criteria chase it
    overshoot = 0
    for rep in range(10):
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(20), 60,
            Contamination("exogenous_pc", 0.20, 4.0), seed=200 + rep,
        )
        report = select_dimension(data, 4, "bic", ModelConfig(nu=math.inf, tol=1e-4))
        overshoot += report.chosen_d >= 3
    assert overshoot >= 6


def test_select_dimension_cv_criterion():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 10, Contamination.none(), seed=5
    )
    report = select_dimension(data, 1, "cv", ModelConfig(nu=math.inf, tol=1e-6))
    assert {row["d"] for row in report.per_d} == {0, 1}
    assert all("cv" in row for row in report.per_d)
    assert report.chosen_d in (0, 1)


def test_select_dimension_rejects_ic_for_penalized():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 10, Contamination.none(), seed=5
    )
    config = ModelConfig(nu=1.0, penalty=1.0)
    with pytest.raises(ValueError):
        select_dimension(data, 1, "bic", config)


def test_select_dimension_invalid_criterion():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 10, Contamination.none(), seed=5
    )
    with pytest.raises(ValueError):
        select_dimension(data, 1, "dic", ModelConfig(nu=1.0))


def test_select_dimension_partial_report_on_failure():
    # all-zero data makes the very first stage fit degenerate
    times = np.linspace(0, 1, 6)
    data = dataset_of([(f"c{i}", times, np.zeros(6)) for i in range(5)], BASIS)
    with pytest.raises(SelectionError) as exc_info:
        select_dimension(data, 2, "bic", ModelConfig(nu=1.0))
    assert exc_info.value.partial_report is not None
    assert exc_info.value.partial_report.chosen_d is None


def test_selection_error_names_the_failing_stage():
    # stage 4 collapses onto the d = 3 model (its loadings lose rank); the
    # stages before it fit, and the partial report keeps their rows
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(), 20, Contamination.none(), seed=113,
        basis=BASIS,
    )
    config = ModelConfig(nu=1.0)
    with pytest.raises(SelectionError, match=r"aborted at d=4: .*rank deficient") as exc_info:
        select_dimension(data, 4, "bic", config)
    assert isinstance(exc_info.value.__cause__, ConditioningError)
    assert [s.iterations for s in exc_info.value.__cause__.stages] == [
        s.iterations for s in fit(data, dataclasses.replace(config, d=3)).stages
    ]
    partial = exc_info.value.partial_report
    assert partial.chosen_d is None
    assert partial.per_d == select_dimension(data, 3, "bic", config).per_d
    # rep 110's clean sample (n = 60) fits every stage at tol 1e-8, and BIC
    # picks the true dimension
    rep110, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(), 60, Contamination.none(), seed=110,
        basis=BASIS,
    )
    assert select_dimension(rep110, 4, "bic", config).chosen_d == 2


def test_report_round_trip():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 20, Contamination.none(), seed=6
    )
    report = select_dimension(data, 1, "aic", ModelConfig(nu=1.0))
    doc = report.to_dict()
    assert doc["criterion"] == "aic"
    assert doc["chosen_d"] == report.chosen_d
    assert len(doc["per_d"]) == 2
