import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from rfpca import ModelConfig, ModelParams, build_basis, degrees_of_freedom, fit
from rfpca.errors import (
    DegenerateFitError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidParamsError,
    OutOfDomainError,
)
from rfpca import simulate
from rfpca.model import _shares_design
from rfpca.simulate import (
    CONTAMINATION_KINDS,
    STUDY_MAX_ITER,
    STUDY_TOL,
    Contamination,
    GridDesign,
    MonteCarloStudy,
    StudyScenario,
    TrueModel,
    _selection_rep,
    _sine_component,
    _study_basis,
    doppler_phi3,
    error_norms,
    l2_error,
    monte_carlo,
    simulate_dataset,
)
from oracles import reference_simulate, reference_study_rows


def test_true_model_component_orthonormality():
    truth = TrueModel()
    grid = np.linspace(0, 1, 4001)
    for k, phi in enumerate(truth.phis):
        assert abs(simpson(phi(grid) ** 2, x=grid) - 1.0) < 1e-6
    cross = simpson(truth.phis[0](grid) * truth.phis[1](grid), x=grid)
    assert abs(cross) < 1e-6


def test_doppler_endpoints_and_norm():
    assert doppler_phi3(np.array([0.0]))[0] == 0.0
    assert doppler_phi3(np.array([1.0]))[0] == 0.0
    grid = np.linspace(0, 1, 20001)
    assert abs(simpson(doppler_phi3(grid) ** 2, x=grid) - 1.0) < 1e-6


def test_doppler_matches_formula():
    shift = 2.0 ** (-11.0 / 5.0)  # (9 - 4k)/5 at k = 5
    t = np.array([0.2, 0.5, 0.8])
    raw = np.sqrt(t * (1 - t)) * np.sin(2 * math.pi * (1 + shift) / (t + shift))
    ratio = doppler_phi3(t) / raw
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)  # common scale only


def test_doppler_constant_equals_quad():
    integral, _ = quad(lambda u: float(simulate._doppler_raw(u) ** 2), 0.0, 1.0, limit=200)
    assert integral == simulate._DOPPLER_SQUARED_NORM


# the last domain is 2^-44 wide, so its grid repeats points (zero spacings)
@pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.5, 2.0), (3.0, 3.001), (1.0, 1.0 + 2.0**-44)])
def test_simpson_port_equals_scipy(rng, domain):
    grid = simulate._error_grid(domain)
    assert grid.size == simulate.ERROR_NORM_GRID
    for y in (rng.normal(size=grid.size) ** 2, np.sin(7 * grid) ** 2, np.zeros(grid.size)):
        assert simulate._simpson(y, domain) == float(simpson(y, x=grid))


def test_grid_designs(rng):
    times, m = GridDesign.fixed_uniform(20).sample(rng, 3, (0, 1))
    assert m.tolist() == [20] * 3
    np.testing.assert_array_equal(times.reshape(3, 20), np.tile(np.linspace(0, 1, 20), (3, 1)))

    times, m = GridDesign.random_uniform(20).sample(rng, 5, (0, 1))
    assert m.tolist() == [20] * 5
    assert np.all(np.diff(times.reshape(5, 20)) >= 0)

    times, m = GridDesign.poisson_uniform(15.0).sample(rng, 200, (0, 1))
    assert times.size == m.sum() and m.min() >= 2
    assert 10 < m.mean() < 20
    assert all(np.all(np.diff(g) >= 0) for g in np.split(times, np.cumsum(m)[:-1]))

    with pytest.raises(ValueError):
        GridDesign.random_uniform(1)
    with pytest.raises(ValueError):
        GridDesign("weird")


def test_contamination_validation():
    with pytest.raises(ValueError):
        Contamination("bogus")
    with pytest.raises(ValueError):
        Contamination("endogenous_mean", epsilon=1.0)


def test_simulate_zero_epsilon_is_clean():
    truth = TrueModel()
    clean, _ = simulate_dataset(
        truth, GridDesign.random_uniform(12), 30, Contamination.none(), seed=11
    )
    also_clean, _ = simulate_dataset(
        truth, GridDesign.random_uniform(12), 30,
        Contamination("exogenous_pc", epsilon=0.0, K=4.0), seed=11,
    )
    for a, b in zip(clean.trajectories, also_clean.trajectories):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kind", ["exogenous_mean", "exogenous_pc"])
def test_exogenous_curves_add_signed_doppler(kind):
    truth = TrueModel()
    clean, _ = simulate_dataset(
        truth, GridDesign.random_uniform(12), 30, Contamination.none(), seed=11
    )
    dirty, rec = simulate_dataset(
        truth, GridDesign.random_uniform(12), 30, Contamination(kind, 0.2, 4.0), seed=11
    )
    shift = 4.0 * math.sqrt(truth.lambdas[0])
    minus = set(rec.minus.tolist()) if kind == "exogenous_pc" else set()
    for i, (a, b) in enumerate(zip(clean.trajectories, dirty.trajectories)):
        if i not in rec.contaminated:
            expected = a.values
        elif i in minus:
            expected = a.values - shift * doppler_phi3(a.times)
        else:
            expected = a.values + shift * doppler_phi3(a.times)
        assert np.array_equal(b.values, expected)


@pytest.mark.parametrize(
    "design",
    [GridDesign.fixed_uniform(7), GridDesign.random_uniform(9), GridDesign.poisson_uniform(6.0)],
    ids=["fixed", "random", "poisson"],
)
@pytest.mark.parametrize(
    "contamination",
    [
        Contamination.none(),
        Contamination("endogenous_mean", 0.2, 4.0),
        Contamination("endogenous_pc", 0.2, 4.0),
        Contamination("exogenous_mean", 0.2, 4.0),
        Contamination("exogenous_pc", 0.3, 4.0),
    ],
    ids=["clean", "endo-mean", "endo-pc", "exo-mean", "exo-pc"],
)
def test_pooled_generator_matches_per_curve_draws(design, contamination):
    # the pooled arrays hold, bit for bit, the curves drawn one at a time
    truth = TrueModel()
    data, _ = simulate_dataset(truth, design, 25, contamination, seed=31)
    expected = reference_simulate(truth, design, 25, contamination, seed=31)
    assert data.ids == [cid for cid, _, _ in expected]
    assert data.m.tolist() == [t.size for _, t, _ in expected]
    assert data.times.tobytes() == np.concatenate([t for _, t, _ in expected]).tobytes()
    assert data.values.tobytes() == np.concatenate([x for _, _, x in expected]).tobytes()


@pytest.mark.parametrize(
    "design",
    [GridDesign.fixed_uniform(7), GridDesign.random_uniform(9), GridDesign.poisson_uniform(6.0)],
    ids=["fixed", "random", "poisson"],
)
def test_contamination_recipes_share_the_time_grids(design):
    # the grids are the seed's first draws, so the Monte Carlo harness can fit
    # a replication's scenarios as one batch; if this broke, each scenario
    # would be fitted alone, not wrongly
    datasets = [
        simulate_dataset(TrueModel(), design, 30, Contamination(kind, eps, 4.0), seed=12)[0]
        for kind, eps in zip(CONTAMINATION_KINDS, (0.0, 0.1, 0.2, 0.2, 0.3))
    ]
    first = datasets[0]
    for data in datasets[1:]:
        assert data.m.tobytes() == first.m.tobytes()
        assert data.times.tobytes() == first.times.tobytes()
        assert _shares_design(first, data)
        assert not np.array_equal(data.values, first.values)


def test_simulate_errors_name_first_offending_curve():
    design = GridDesign.random_uniform(5)
    clean, _ = simulate_dataset(TrueModel(), design, 20, Contamination.none(), seed=3)
    late = [i for i, t in enumerate(clean.trajectories) if t.times.max() > 0.9]
    assert late[0] > 0  # the check below is not satisfied by curve 0 alone
    truth = TrueModel(mu=lambda t: np.where(np.asarray(t) > 0.9, np.nan, 0.0))
    with pytest.raises(InvalidInputError, match=rf"curve {clean.ids[late[0]]!r}: .*finite"):
        simulate_dataset(truth, design, 20, Contamination.none(), seed=3)
    with pytest.raises(OutOfDomainError, match=rf"curve {clean.ids[late[0]]!r} has times"):
        simulate_dataset(
            TrueModel(), design, 20, Contamination.none(), seed=3,
            basis=build_basis(4, 5, (0.0, 0.9)),
        )
    with pytest.raises(InvalidInputError, match="n must be >= 1"):
        simulate_dataset(TrueModel(), design, 0, Contamination.none(), seed=3)


def test_simulate_contamination_count_contract():
    _, record = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 100,
        Contamination("endogenous_mean", epsilon=0.10, K=4.0), seed=5,
    )
    assert record.contaminated.size == 10
    assert np.all(record.z[record.contaminated, 0] == 4.0)


def test_simulate_pure_pc_outliers():
    _, rec = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 100,
        Contamination("endogenous_pc", epsilon=0.20, K=4.0), seed=5,
    )
    level = 4.0 * math.sqrt(0.5)
    assert np.all(rec.z[rec.plus, 1] == level)
    assert np.all(rec.z[rec.minus, 1] == -level)
    assert np.all(rec.z[rec.contaminated, 0] == 0.0)
    assert rec.plus.size == 10 and rec.minus.size == 10


def test_contamination_rejects_settings_that_are_not_finite_numbers():
    for kwargs in (
        dict(K="4"), dict(K=None), dict(K=True), dict(K=math.inf), dict(K=math.nan),
        dict(epsilon="0.1"), dict(epsilon=None), dict(epsilon=False),
    ):
        with pytest.raises(InvalidInputError, match="K|epsilon"):
            Contamination("exogenous_mean", **kwargs)
    assert Contamination("exogenous_mean", np.float64(0.1), np.int64(3)).K == 3


def _simulate(n=5, seed=1, truth=TrueModel(), contamination=Contamination.none()):
    return simulate_dataset(truth, GridDesign.random_uniform(4), n, contamination, seed)


_ONE_COMPONENT = TrueModel(phis=TrueModel().phis[:1], lambdas=(1.0,))
_NO_COMPONENTS = TrueModel(phis=(), lambdas=())


def _fit_on(domain):
    """A stand-in fit result: the zero mean on a cubic basis over ``domain``."""
    basis = build_basis(4, 5, domain)
    params = ModelParams.from_xi(np.zeros(9), np.zeros((9, 0)), 1.0, 1.0, basis)
    return type("F", (), {"params": params})()


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: GridDesign.random_uniform(2.5), InvalidInputError,
                     "m must be an integer", id="grid-m"),
        pytest.param(lambda: GridDesign.poisson_uniform(math.nan), InvalidInputError,
                     "mean_count must be a finite real number", id="grid-mean_count-nan"),
        pytest.param(lambda: GridDesign.poisson_uniform(math.inf), InvalidInputError,
                     "mean_count must be a finite real number", id="grid-mean_count-inf"),
        pytest.param(lambda: TrueModel(domain=(1.0, 0.0)), InvalidParamsError,
                     "domain must be finite numbers a < b", id="truth-domain"),
        pytest.param(lambda: TrueModel(lambdas=(-1.0, 0.5)), InvalidParamsError,
                     "lambdas must be finite and >= 0", id="truth-lambdas"),
        pytest.param(lambda: TrueModel(lambdas=(1.0,)), DimensionMismatchError,
                     "phis and lambdas must have equal length", id="truth-lambdas-length"),
        pytest.param(lambda: TrueModel(sigma2=0.0), InvalidParamsError,
                     "sigma2 must be positive and finite", id="truth-sigma2"),
        pytest.param(lambda: GridDesign.poisson_uniform(0), InvalidInputError,
                     "mean_count must be positive", id="grid-mean_count-0"),
        pytest.param(lambda: Contamination("none", epsilon=0.3), InvalidInputError,
                     "epsilon must be 0 for contamination kind 'none'", id="none-epsilon"),
        pytest.param(lambda: error_norms(_fit_on((0.0, 2.0)), TrueModel()), InvalidInputError,
                     "fit domain differs from truth domain", id="error_norms-domain"),
        pytest.param(lambda: _simulate(n=2.5), InvalidInputError, "n must be an integer",
                     id="simulate-n"),
        pytest.param(lambda: _simulate(seed=-1), InvalidInputError, "seed must be >= 0",
                     id="simulate-seed"),
        pytest.param(lambda: TrueModel(mu=3), InvalidParamsError, "mu must be callable",
                     id="truth-mu"),
        pytest.param(lambda: TrueModel(phis=(1, 2)), InvalidParamsError,
                     "phis must be callables", id="truth-phis"),
        pytest.param(
            lambda: _simulate(truth=_ONE_COMPONENT,
                              contamination=Contamination("endogenous_pc", 0.4)),
            InvalidParamsError, r"endogenous_pc contamination needs len\(lambdas\) >= 2",
            id="simulate-endogenous_pc-one-component",
        ),
        pytest.param(
            lambda: monte_carlo(MonteCarloStudy(
                "estimation", (StudyScenario("pc", Contamination("endogenous_pc", 0.2)),),
                n=10, reps=1, truth=_ONE_COMPONENT,
            )),
            InvalidParamsError, r"endogenous_pc contamination needs len\(lambdas\) >= 2",
            id="monte_carlo-endogenous_pc-one-component",
        ),
        pytest.param(
            lambda: _simulate(truth=_NO_COMPONENTS,
                              contamination=Contamination("endogenous_mean", 0.4)),
            InvalidParamsError, r"endogenous_mean contamination needs len\(lambdas\) >= 1",
            id="simulate-endogenous_mean-no-components",
        ),
    ],
)
def test_simulation_settings_of_the_wrong_kind_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_simulation_settings_take_numpy_scalars():
    truth = TrueModel(lambdas=(np.float64(1.0), np.int64(1)), sigma2=np.float64(0.25))
    data, _ = simulate_dataset(
        truth, GridDesign.random_uniform(np.int64(5)), np.int64(4), Contamination.none(),
        seed=np.int64(2),
    )
    assert data.n == 4 and data.m.tolist() == [5] * 4
    assert GridDesign.poisson_uniform(np.float64(3.0)).sample(
        np.random.default_rng(0), 2, (0.0, 1.0)
    )


def test_simulate_law_of_large_numbers():
    data, record = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 2000, Contamination.none(), seed=1
    )
    assert 0.92 < record.z[:, 0].var() < 1.08
    pooled = np.concatenate([t.values for t in data.trajectories])
    assert abs(pooled.mean()) < 0.05


def test_symmetric_contamination_leaves_mean_centered():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 2000,
        Contamination("exogenous_pc", epsilon=0.30, K=4.0), seed=2,
    )
    pooled = np.concatenate([t.values for t in data.trajectories])
    se = pooled.std() / math.sqrt(pooled.size)
    assert abs(pooled.mean()) < 3 * se


def test_l2_error_identities():
    phi1 = lambda t: _sine_component(1, t)
    phi2 = lambda t: _sine_component(2, t)
    assert l2_error(lambda t: -phi1(t), phi1, sign_align=True) < 1e-12
    assert abs(l2_error(phi2, phi1, sign_align=True) - math.sqrt(2)) < 1e-4
    assert l2_error(phi1, phi1) == 0.0


def test_error_norms_on_fits():
    truth = TrueModel()
    basis = build_basis(4, 5, truth.domain)
    # mean error of the zero function is zero
    params = ModelParams.from_xi(np.zeros(9), np.zeros((9, 0)), 1.0, 1.0, basis)
    fake = type("F", (), {"params": params})()
    norms = error_norms(fake, truth)
    assert norms["mu_err"] == 0.0
    assert norms["phi1_err"] is None

    data, _ = simulate_dataset(truth, GridDesign.random_uniform(20), 80, Contamination.none(), seed=3)
    res = fit(data, ModelConfig(nu=math.inf, d=1))
    norms = error_norms(res, truth)
    assert 0 < norms["mu_err"] < 0.5
    assert 0 < norms["phi1_err"] < 0.5


def _tiny_study(**kwargs):
    defaults = dict(
        mode="estimation",
        scenarios=(StudyScenario("clean", Contamination.none()),),
        n=20,
        reps=2,
        estimators=(math.inf,),
        seed=3,
        design=GridDesign.random_uniform(10),
    )
    defaults.update(kwargs)
    return MonteCarloStudy(**defaults)


def test_monte_carlo_deterministic():
    assert monte_carlo(_tiny_study()) == monte_carlo(_tiny_study())


def test_monte_carlo_excludes_nonconverged(monkeypatch):
    monkeypatch.setattr(simulate, "STUDY_MAX_ITER", 1)
    for row in monte_carlo(_tiny_study()):
        assert row["reps_excluded"] == 2
        assert row["reps_used"] == 0
        assert math.isnan(row["value"])


@pytest.mark.parametrize("mode", ["estimation", "selection"])
def test_monte_carlo_excludes_failed_fits(monkeypatch, mode):
    # the Cauchy fit of the second scenario fails in replication 1: its cells
    # count that replication as excluded and aggregate replication 0 alone
    scenarios = (
        StudyScenario("clean", Contamination.none()),
        StudyScenario("exo_pc_20", Contamination("exogenous_pc", 0.2, 4.0)),
    )
    study = _tiny_study(mode=mode, scenarios=scenarios, estimators=(math.inf, 1.0), d_max=2)
    alone = monte_carlo(dataclasses.replace(study, reps=1))
    fit_lockstep, calls = simulate._fit_lockstep, []

    def failing(datasets, config):
        results = fit_lockstep(datasets, config)
        calls.append(config.nu)
        if len(calls) > len(study.estimators) and config.nu == 1.0:
            results[1] = DegenerateFitError("injected")
        return results

    monkeypatch.setattr(simulate, "_fit_lockstep", failing)
    rows = monte_carlo(study)
    assert len(calls) == study.reps * len(study.estimators)
    value = "value" if mode == "estimation" else "percent"
    for row, ref in zip(rows, alone, strict=True):
        failed = row["scenario"] == "exo_pc_20" and row["estimator"] == "cauchy"
        assert (row["reps_used"], row["reps_excluded"]) == ((1, 1) if failed else (2, 0))
        if failed:
            assert row[value] == ref[value]


def test_monte_carlo_selection_mode():
    study = MonteCarloStudy(
        mode="selection",
        scenarios=(StudyScenario("clean", Contamination.none()),),
        n=30,
        reps=2,
        estimators=(1.0,),
        seed=1,
        d_max=2,
    )
    rows = monte_carlo(study)
    percents = {row["d"]: row["percent"] for row in rows if row["criterion"] == "bic"}
    assert set(percents) == {0, 1, 2}
    assert abs(sum(percents.values()) - 100.0) < 1e-9


def test_study_validation():
    with pytest.raises(ValueError):
        _tiny_study(mode="bogus")
    with pytest.raises(ValueError):
        _tiny_study(reps=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(scenarios=()),
        dict(estimators=()),
        dict(d_max=-1),
        dict(d_max=10),  # the default basis has dimension 9
        dict(scenarios=(
            StudyScenario("clean", Contamination.none()),
            StudyScenario("clean", Contamination("exogenous_mean", 0.2, 4.0)),
        )),
        dict(estimators=(math.inf, math.inf)),
        dict(estimators=(1, 1.0)),
        dict(estimators=(0.0,)),
        dict(estimators=(math.nan,)),
    ],
    ids=repr,
)
def test_misconfigured_study_is_input_error(kwargs):
    with pytest.raises(InvalidInputError):
        _tiny_study(**kwargs)


def test_study_accepts_d_max_up_to_basis_dimension():
    study = _tiny_study(d_max=9)
    assert _study_basis(study).dimension == 9


def _selection_study(**kwargs):
    defaults = dict(
        mode="selection",
        scenarios=(
            StudyScenario("clean", Contamination.none()),
            StudyScenario("exo_pc_20", Contamination("exogenous_pc", 0.20, 4.0)),
        ),
        n=30,
        reps=3,
        estimators=(math.inf, 1.0),
        seed=4,
        d_max=2,
    )
    defaults.update(kwargs)
    return MonteCarloStudy(**defaults)


def test_selection_rep_matches_criterion_oracle():
    # a weak second component puts the d = 2 gain between the AIC and BIC
    # hurdles, so the two criteria disagree on some fits
    study = _selection_study(truth=TrueModel(lambdas=(1.0, 0.03)))
    rep = 0
    rows = _selection_rep(study, rep)
    basis = _study_basis(study)
    p = basis.dimension
    expected = []
    for scen in study.scenarios:
        data, _ = simulate_dataset(
            study.truth, study.design, study.n, scen.contamination,
            seed=study.seed + rep, basis=basis,
        )
        for nu in study.estimators:
            config = ModelConfig(nu=nu, d=study.d_max, max_iter=STUDY_MAX_ITER, tol=STUDY_TOL)
            stages = fit(data, config).stages
            for criterion, c_n in (("aic", 1.0), ("bic", math.log(study.n) / 2.0)):
                scores = [
                    stage.loglik - c_n * degrees_of_freedom(p, d)
                    for d, stage in enumerate(stages)
                ]
                expected.append((scen.name, nu, criterion, int(np.argmax(scores))))
    assert [(r["scenario"], r["nu"], r["criterion"], r["chosen_d"]) for r in rows] == expected
    assert all(r["ok"] for r in rows)
    assert {d for *_, d in expected} == {1, 2}


@pytest.mark.parametrize(
    "study, rep_name",
    [
        (_tiny_study(
            scenarios=(
                StudyScenario("clean", Contamination.none()),
                StudyScenario("exo_mean_20", Contamination("exogenous_mean", 0.2, 4.0)),
            ),
            n=30, reps=3, estimators=(math.inf, 1.0),
        ), "_estimation_rep"),
        (_selection_study(), "_selection_rep"),
    ],
    ids=["estimation", "selection"],
)
def test_monte_carlo_matches_label_keyed_aggregation(monkeypatch, study, rep_name):
    # cells are aggregated by row position; the label-keyed reference needs
    # no row order, so it tells whether every rep's rows follow cell order
    rep_func = getattr(simulate, rep_name)
    per_rep = []

    def recording(study, rep):
        per_rep.append(rep_func(study, rep))
        return per_rep[-1]

    monkeypatch.setattr(simulate, rep_name, recording)
    rows = monte_carlo(study)
    assert len(per_rep) == study.reps
    assert list(rows) == reference_study_rows(study, per_rep)
    # with the rows out of cell order, position no longer finds the cells
    monkeypatch.setattr(simulate, rep_name, lambda study, rep: per_rep[rep][::-1])
    assert list(monte_carlo(study)) != reference_study_rows(study, per_rep)


def test_heavy_exogenous_mean_bias_tracks_eps_k():
    # for the nonrobust fit the contaminated mean is about eps*K away
    study = MonteCarloStudy(
        mode="estimation",
        scenarios=(StudyScenario("exo_mean_30", Contamination("exogenous_mean", 0.30, 4.0)),),
        n=100,
        reps=30,
        estimators=(math.inf,),
        seed=11,
    )
    value = next(r["value"] for r in monte_carlo(study) if r["metric"] == "rmse_mu")
    assert 0.9 <= value <= 1.2  # eps * K = 1.2, partially absorbed by the fit


def test_endogenous_pc_swaps_normal_component():
    # the contaminated second-direction variance exceeds the first, so the
    # Normal fit's leading component swaps toward the second sine
    study = MonteCarloStudy(
        mode="estimation",
        scenarios=(
            StudyScenario("endo_pc_20", Contamination("endogenous_pc", 0.20, 4.0)),
            StudyScenario("endo_pc_30", Contamination("endogenous_pc", 0.30, 4.0)),
        ),
        n=100,
        reps=30,
        estimators=(math.inf,),
        seed=7,
    )
    values = {
        row["scenario"]: row["value"]
        for row in monte_carlo(study)
        if row["metric"] == "rmse_phi1"
    }
    assert values["endo_pc_20"] > 1.2
    assert values["endo_pc_30"] > 1.2
