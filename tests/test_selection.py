import math

import numpy as np
import pytest

from rfpca import (
    Dataset,
    ModelConfig,
    Trajectory,
    aic,
    bic,
    build_basis,
    cross_validate,
    degrees_of_freedom,
    fit,
    fit_from,
    information_criterion,
    log_likelihood,
    select_dimension,
    simulate_dataset,
)
from rfpca.selection import SelectionError
from rfpca.simulate import Contamination, GridDesign, TrueModel
from oracles import (
    added_column_gain,
    dense_covariance,
    dense_log_likelihood,
    dense_t_logpdf,
    doppler_projection,
    random_dataset,
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


def test_information_criterion_values():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 20, Contamination.none(), seed=1
    )
    res = fit(data, ModelConfig(nu=1.0, d=1))
    ll = log_likelihood(res.params, data)
    assert abs(information_criterion(res, data, 0.0) - ll) < 1e-9
    assert abs(aic(res, data) - (ll - degrees_of_freedom(9, 1))) < 1e-9
    assert abs(bic(res, data) - (ll - math.log(20) / 2 * degrees_of_freedom(9, 1))) < 1e-9


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
    s1 = cross_validate(data, config)
    s2, details = cross_validate(data, config, return_details=True)
    assert s1 == s2
    assert len(details) == data.n  # exactly n held-out refits


def test_cross_validate_manual_oracle():
    """Hand-assembled held-out log densities reproduce the cv score."""
    basis = build_basis(4, 1, (0, 1))
    rng = np.random.default_rng(7)
    trajs = [
        Trajectory(f"c{i}", np.sort(rng.uniform(0, 1, 8)), rng.normal(size=8))
        for i in range(3)
    ]
    data = Dataset(trajs, basis)
    config = ModelConfig(nu=1.0, d=0)
    full = fit(data, config)
    manual = 0.0
    for i in range(3):
        refit = fit_from(data.drop(i), config, full.params)
        held = data.trajectories[i]
        B = basis.design_matrix(held.times)
        sigma = dense_covariance(refit.params, B)
        manual += dense_t_logpdf(held.values, B @ refit.params.theta, sigma, 1.0)
    assert abs(cross_validate(data, config) - manual) < 1e-9


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
    trajs = [Trajectory(f"c{i}", times, np.zeros(6)) for i in range(5)]
    data = Dataset(trajs, BASIS)
    with pytest.raises(SelectionError) as exc_info:
        select_dimension(data, 2, "bic", ModelConfig(nu=1.0))
    assert exc_info.value.partial_report is not None
    assert exc_info.value.partial_report.chosen_d is None


def test_report_round_trip():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 20, Contamination.none(), seed=6
    )
    report = select_dimension(data, 1, "aic", ModelConfig(nu=1.0))
    doc = report.to_dict()
    assert doc["criterion"] == "aic"
    assert doc["chosen_d"] == report.chosen_d
    assert len(doc["per_d"]) == 2
