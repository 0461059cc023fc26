import contextlib
import dataclasses
import functools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpca import (
    ConditioningError,
    Curves,
    Dataset,
    DegenerateFitError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidParamsError,
    ModelConfig,
    ModelParams,
    OutOfDomainError,
    RfpcaError,
    SplineBasis,
    build_basis,
    curve_diagnostics,
    em_step,
    estimating_equation_residuals,
    fit,
    fit_from,
    log_likelihood,
    mean_confidence_band,
    select_dimension,
    sigma_solve,
    simulate_dataset,
)
from rfpca import model
from rfpca.selection import cross_validate
from rfpca.errors import NumericalOverflowError
from rfpca.model import (
    _batch,
    _estep_at,
    _fit_lockstep,
    _lockstep_stage,
    _rowdot,
    _stage_results,
    _sweep,
)
from rfpca.simulate import Contamination, GridDesign, TrueModel, l2_error
from oracles import (
    dataset_of, dense_covariance, dense_t_logpdf, init_new_column, random_dataset, random_params,
    random_trajectory, reference_design_stats, robust_weight, singular_at_right_end,
)


BASIS = build_basis(4, 5, (0, 1))


# ---------------------------------------------------------------------------
# sigma_solve and the batched E-step against dense algebra
# ---------------------------------------------------------------------------

def test_sigma_solve_d0_reduction(rng):
    params = random_params(rng, BASIS, d=0, sigma2=0.7)
    B = BASIS.design_matrix(np.linspace(0.1, 0.9, 6))
    rhs = rng.normal(size=6)
    sol, logdet = sigma_solve(params, B, rhs)
    np.testing.assert_allclose(sol, rhs / 0.7, rtol=1e-14)
    assert abs(logdet - 6 * math.log(0.7)) < 1e-12


def test_sigma_solve_zero_rhs(rng):
    params = random_params(rng, BASIS, d=2)
    B = BASIS.design_matrix(rng.uniform(0, 1, 8))
    sol, logdet = sigma_solve(params, B, np.zeros(8))
    assert np.all(sol == 0)
    assert np.isfinite(logdet)


def test_sigma_solve_matches_dense(rng):
    params = random_params(rng, BASIS, d=2, sigma2=0.4)
    times = rng.uniform(0, 1, 12)
    B = BASIS.design_matrix(times)
    rhs = rng.normal(size=(12, 3))
    sol, logdet = sigma_solve(params, B, rhs)
    sigma = dense_covariance(params, B)
    ref = np.linalg.solve(sigma, rhs)
    np.testing.assert_allclose(sol, ref, rtol=1e-10, atol=1e-12)
    assert abs(logdet - np.linalg.slogdet(sigma)[1]) < 1e-10


def test_woodbury_sweep(rng):
    for _ in range(50):
        d = int(rng.integers(0, 5))
        m = int(rng.integers(1, 51))
        params = random_params(rng, BASIS, d=d, sigma2=float(rng.uniform(0.05, 2.0)))
        B = BASIS.design_matrix(rng.uniform(0, 1, m))
        rhs = rng.normal(size=m)
        sol, logdet = sigma_solve(params, B, rhs)
        sigma = dense_covariance(params, B)
        np.testing.assert_allclose(sol, np.linalg.solve(sigma, rhs), rtol=1e-10, atol=1e-11)
        assert abs(logdet - np.linalg.slogdet(sigma)[1]) < 1e-10 * max(1, abs(logdet))


@pytest.mark.parametrize("nu", [1.0, math.inf])
@pytest.mark.parametrize("d", [0, 2])
def test_estep_matches_dense(rng, d, nu):
    params = random_params(rng, BASIS, d=d, sigma2=0.5, nu=nu)
    data = random_dataset(rng, BASIS, n=6, m_range=(3, 12), params=params)
    # curve 0 lies on the model mean
    first = data.trajectories[0]
    data = dataset_of(
        [(first.id, first.times, params.mean(first.times))] + data.trajectories[1:], BASIS
    )
    e = _estep_at(params, data)
    assert e.s[0] == 0.0
    np.testing.assert_allclose(e.zhat_dn.T[0], 0.0, atol=1e-12)
    for i, traj in enumerate(data.trajectories[1:], start=1):
        B = BASIS.design_matrix(traj.times)
        r = traj.values - B @ params.theta
        sol = np.linalg.solve(dense_covariance(params, B), r)
        assert abs(e.s[i] - r @ sol) < 1e-10 * (r @ sol)
        np.testing.assert_allclose(e.zhat_dn.T[i], params.xi.T @ B.T @ sol, rtol=1e-10, atol=1e-12)
        if d == 0:
            assert abs(e.s[i] - r @ r / params.sigma2) < 1e-12
    np.testing.assert_array_equal(e.w, robust_weight(nu, data.design_stats.m, e.s))


def _spd_stack(rng, d, n):
    """(d, d, n) stack of matrices I + X^T X shaped like the E-step's V_i, the
    columns of X scaled over four decades so cond(V_i) reaches about 1e8."""
    X = rng.normal(size=(n, d + 3, d)) * np.logspace(0, 4, d)
    V = np.eye(d) + X.transpose(0, 2, 1) @ X
    return np.ascontiguousarray(V.transpose(1, 2, 0))


@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, BASIS.dimension])
def test_sweep_matches_slogdet_and_inv(rng, d, n):
    V = _spd_stack(rng, d, n)
    dense = V.transpose(2, 0, 1).copy()
    if d > 1:
        assert np.linalg.cond(dense).max() > 1e7
    with np.errstate(all="raise"):
        Vinv, logdet, failed = _sweep(V.copy()[:, :, None], str)
    assert not failed
    Vinv, logdet = Vinv[:, :, 0], logdet[0]
    assert Vinv.shape == (d, d, n) and logdet.shape == (n,)
    sign, ref_logdet = np.linalg.slogdet(dense)
    assert np.all(sign == 1)
    np.testing.assert_allclose(logdet, ref_logdet, rtol=1e-12, atol=1e-12)
    ref_inv = np.linalg.inv(dense)
    for i in range(n):
        err = np.linalg.norm(Vinv[:, :, i] - ref_inv[i])
        assert err <= 1e-12 * np.linalg.norm(ref_inv[i])


@pytest.mark.parametrize("d", [1, 2, 4])
def test_sweep_nonpositive_pivot_names_curve(rng, d):
    V = np.stack([_spd_stack(rng, d, 6) for _ in range(3)], axis=2)  # three models
    # in model 1, curve 3, and no curve before it, gets an indefinite matrix
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    V[:, :, 1, 3] = Q @ np.diag(np.append(np.full(d - 1, 2.0), -1.0)) @ Q.T
    good = V[:, :, [0, 2]].copy()
    with np.errstate(all="raise"):
        Vinv, logdet, failed = _sweep(V, str)
        want_inv, want_logdet, _ = _sweep(good, str)
    assert list(failed) == [1] and isinstance(failed[1], ConditioningError)
    assert "'3'" in str(failed[1])
    # the other models' inverses are those of a sweep without the failing one
    np.testing.assert_array_equal(Vinv[:, :, [0, 2]], want_inv)
    np.testing.assert_array_equal(logdet[[0, 2]], want_logdet)
    assert np.isfinite(Vinv).all() and np.isfinite(logdet).all()


@pytest.mark.parametrize("G", [1, 3])
@pytest.mark.parametrize("k", [0, 1, 37, 1000])
def test_rowdot_is_each_rows_dot(rng, G, k):
    # the scale update of a one-model batch must equal the single-model dot
    # product to the bit, so each row must be the product a[g] @ b[g] computes
    a = rng.normal(size=(G, k)) * 10.0 ** rng.uniform(-6, 6, size=(G, k))
    b = rng.normal(size=(G, k))
    out = _rowdot(a, b)
    assert out.shape == (G,)
    assert np.array_equal(out, [a[g] @ b[g] for g in range(G)])


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def test_loglik_cauchy_closed_form():
    basis = build_basis(4, 5, (0, 1))
    theta = np.ones(9) * 3.0  # mu(t) = 3
    params = ModelParams.from_xi(theta, np.zeros((9, 0)), 4.0, 1.0, basis)
    traj = ("c", [0.4], [3.0])  # x = mu(t), sigma = 2
    ll = log_likelihood(params, dataset_of([traj], basis))
    assert abs(ll - (-math.log(2 * math.pi))) < 1e-12


def test_loglik_gaussian_limit(rng):
    data = random_dataset(rng, BASIS, n=30, m_range=(3, 12))
    params = random_params(rng, BASIS, d=2, sigma2=0.6, nu=1e8)
    params_inf = ModelParams(
        theta=params.theta, H=params.H, lam=params.lam,
        sigma2=params.sigma2, nu=math.inf, basis=BASIS,
    )
    assert abs(log_likelihood(params, data) - log_likelihood(params_inf, data)) < 1e-4


@pytest.mark.parametrize("nu", [1e9, 1e12, 1e16, 1e300, 1.7e308])
def test_large_nu_tends_to_normal_model(nu):
    # the t density constant keeps its digits at any finite nu, so the
    # likelihood is continuous at nu = inf; d >= 1 fits are not compared,
    # since the t-model initializer trims its scatter and the Normal one does not
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 60, Contamination.none(), seed=3
    )
    normal = [stage.params for stage in fit(data, ModelConfig(nu=math.inf, d=2)).stages]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in normal:
            ll_inf = log_likelihood(params, data)
            ll_nu = log_likelihood(dataclasses.replace(params, nu=nu), data)
            assert abs(ll_nu - ll_inf) <= 1e-6 * abs(ll_inf), params.d
        if nu >= 1e12:
            theta, ref = fit(data, ModelConfig(nu=nu, d=0)).params.theta, normal[0].theta
            assert np.linalg.norm(theta - ref) <= 1e-8 * np.linalg.norm(ref)


def test_log_density_constant_matches_mpmath():
    # within 1e-14 (|c*| + m/2) of an 80-digit value at every finite nu,
    # including the large nu where a difference of two log Gammas loses its
    # digits; and exactly -(m/2) log(2 pi) once nu is past every digit
    sizes = [*range(1, 41), 99, 401, 2001]
    data = dataset_of(
        [(f"c{m}", np.linspace(0.0, 1.0, m), np.zeros(m)) for m in sizes], BASIS
    )
    worst = {}
    with mpmath.workdps(80):
        for nu in (0.5, 1, 2, 5, 7.3, 30, 63.9, 64, 128, 1e3, 1e4, 1e6, 1e9, 1e12):
            a = mpmath.mpf(nu) / 2
            for m, c in zip(sizes, data.log_density_constant(nu)):
                h = mpmath.mpf(m) / 2
                exact = (
                    mpmath.loggamma(a + h) - mpmath.loggamma(a)
                    - h * mpmath.log(a) - h * mpmath.log(2 * mpmath.pi)
                )
                worst[nu, m] = float(abs(c - exact) / (abs(exact) + h))
    assert max(worst.values()) <= 1e-14, max(worst, key=worst.get)
    assert np.array_equal(data.log_density_constant(1.7e308), -(0.5 * data.m) * model.LOG_2PI)


def test_loglik_matches_dense_oracle(rng):
    data = random_dataset(rng, BASIS, n=12, m_range=(2, 9))
    for nu in (1.0, 5.0, math.inf):
        params = random_params(rng, BASIS, d=2, sigma2=0.8, nu=nu)
        ref = 0.0
        for traj in data.trajectories:
            B = BASIS.design_matrix(traj.times)
            sigma = dense_covariance(params, B)
            ref += dense_t_logpdf(traj.values, B @ params.theta, sigma, nu)
        assert abs(log_likelihood(params, data) - ref) < 1e-8 * max(1, abs(ref))


def test_loglik_decreasing_in_distance(rng):
    params = random_params(rng, BASIS, d=1, sigma2=0.5)
    times = np.linspace(0.1, 0.9, 8)
    B = BASIS.design_matrix(times)
    mu = B @ params.theta
    direction = rng.normal(size=8)
    lls = []
    for c in (0.5, 1.0, 2.0):
        lls.append(log_likelihood(params, dataset_of([("c", times, mu + c * direction)], BASIS)))
    assert lls[0] > lls[1] > lls[2]


# ---------------------------------------------------------------------------
# orthonormalization
# ---------------------------------------------------------------------------

def _from_xi(xi):
    """(H, lam) of ModelParams.from_xi, the one-model orthonormalization."""
    params = ModelParams.from_xi(np.zeros(9), xi, 1.0, 1.0, BASIS)
    return params.H, params.lam


def test_orthonormalize_identity_metric():
    J = np.eye(4)
    xi = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    H, lam, deficient = model._orthonormalize(xi[None], J)
    assert not deficient[0]
    np.testing.assert_allclose(lam[0], [4.0, 1.0])
    np.testing.assert_allclose(np.abs(H[0]), np.abs(xi / np.array([2.0, 1.0])), atol=1e-12)


def test_orthonormalize_d1(rng):
    J = BASIS.gram_matrix
    xi = rng.normal(size=(9, 1))
    H, lam = _from_xi(xi)
    assert abs(lam[0] - float(xi[:, 0] @ J @ xi[:, 0])) < 1e-12
    np.testing.assert_allclose(np.abs(H[:, 0]), np.abs(xi[:, 0]) / math.sqrt(lam[0]), atol=1e-12)


def test_orthonormalize_reconstruction(rng):
    J = BASIS.gram_matrix
    for d in (1, 2, 3):
        xi = rng.normal(size=(9, d))
        H, lam = _from_xi(xi)
        np.testing.assert_allclose(H.T @ J @ H, np.eye(d), atol=1e-10)
        np.testing.assert_allclose((H * lam) @ H.T, xi @ xi.T, atol=1e-10)
        assert np.all(np.diff(lam) <= 1e-12)
        # canonical sign: nonnegative integral against the constant function
        integrals = H.T @ J @ np.ones(9)
        assert np.all((integrals > -1e-12) | (np.abs(integrals) < 1e-12))


def test_orthonormalize_rank_deficient():
    xi = np.zeros((9, 2))
    xi[0, 0] = 1.0
    xi[0, 1] = 1.0  # second column duplicates the first
    with pytest.raises(ConditioningError, match="rank deficient"):
        _from_xi(xi)


def test_orthonormalize_deterministic(rng):
    xi = rng.normal(size=(9, 2))
    H1, l1 = _from_xi(xi)
    H2, l2 = _from_xi(xi.copy())
    assert np.array_equal(H1, H2) and np.array_equal(l1, l2)


@pytest.mark.parametrize("scale", [1.0, 1e150])
def test_params_consistency_check_holds_at_large_scale(rng, scale):
    xi = rng.normal(size=(9, 2)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams.from_xi(np.zeros(9), xi, 1.0, 1.0, BASIS)


def test_params_check_reports_each_model_of_a_stack(rng):
    # one check of a stack gives each model the error its ModelParams raises
    good = ModelParams.from_xi(np.zeros(9), rng.normal(size=(9, 2)), 1.0, 1.0, BASIS)
    swapped = {"lam": good.lam[::-1].copy(), "H": good.H[:, ::-1].copy()}
    variants = [
        {},
        {"sigma2": -1.0},
        {"lam": np.array([good.lam[0], -1.0])},
        swapped,  # ascending lam
        {"H": good.H * 1.1},  # not J-orthonormal
        {"sigma2": math.inf},
        {"theta": np.full(9, np.nan)},
        {"lam": np.array([math.inf, good.lam[1]])},  # descending, J-orthonormal H
        {"H": np.where(good.H == good.H[0, 0], np.nan, good.H)},
    ]
    stacks = [dataclasses.asdict(good) | change for change in variants]
    errors = model._params_errors(
        *(np.stack([s[k] for s in stacks]) for k in ("theta", "H", "lam", "sigma2")),
        1.0, BASIS,
    )
    assert sorted(errors) == list(range(1, len(variants)))
    for g, fields in enumerate(stacks[1:], start=1):
        with pytest.raises(InvalidParamsError) as solo:
            ModelParams(**fields)
        assert str(errors[g]) == str(solo.value)
    with pytest.raises(InvalidParamsError, match="nu must be positive"):
        dataclasses.replace(good, nu=0.0)


# ---------------------------------------------------------------------------
# EM step: manual assembly oracle, ascent, closed forms
# ---------------------------------------------------------------------------

def _manual_em_step(params, data, penalty=0.0):
    """The three closed-form updates assembled per curve with dense algebra."""
    basis = data.basis
    p = basis.dimension
    d = params.d
    nu, sigma2 = params.nu, params.sigma2
    P = basis.penalty_matrix if penalty > 0 else np.zeros((p, p))

    lhs_t = np.zeros((p, p))
    rhs_t = np.zeros(p)
    lhs_x = np.zeros((d * p, d * p))
    rhs_x = np.zeros(d * p)
    num = 0.0
    total_m = 0
    for traj in data.trajectories:
        B = basis.design_matrix(traj.times)
        m = traj.m
        sigma = dense_covariance(params, B)
        r = traj.values - B @ params.theta
        s = float(r @ np.linalg.solve(sigma, r))
        w = 1.0 if math.isinf(nu) else (nu + m) / (nu + s)
        zhat = params.xi.T @ B.T @ np.linalg.solve(sigma, r)
        V = np.eye(d) + params.xi.T @ B.T @ B @ params.xi / sigma2
        Vinv = np.linalg.inv(V)

        lhs_t += w * B.T @ B
        rhs_t += w * B.T @ (traj.values - B @ params.xi @ zhat)
        lhs_x += np.kron(Vinv + w * np.outer(zhat, zhat), B.T @ B)
        rhs_x += w * np.kron(zhat, B.T @ r)
        resid = traj.values - B @ params.theta - B @ params.xi @ zhat
        num += w * float(resid @ resid) + float(
            np.trace(B @ params.xi @ Vinv @ params.xi.T @ B.T)
        )
        total_m += m
    theta_new = np.linalg.solve(lhs_t + 2 * penalty * P, rhs_t)
    if d > 0:
        for k in range(d):
            blk = slice(k * p, (k + 1) * p)
            lhs_x[blk, blk] += 2 * penalty * P
        xi_new = np.linalg.solve(lhs_x, rhs_x).reshape(d, p).T
    else:
        xi_new = params.xi
    if penalty > 0:
        num += 2 * penalty * float(params.theta @ P @ params.theta)
        for k in range(d):
            num += 2 * penalty * float(params.xi[:, k] @ P @ params.xi[:, k])
    return theta_new, xi_new, num / total_m


def _assert_matches_manual(params, data, config, penalty=0.0):
    stepped = em_step(params, data, config)
    theta_ref, xi_ref, sigma2_ref = _manual_em_step(params, data, penalty=penalty)
    np.testing.assert_allclose(stepped.theta, theta_ref, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(stepped.xi @ stepped.xi.T, xi_ref @ xi_ref.T, rtol=1e-8, atol=1e-10)
    assert abs(stepped.sigma2 - sigma2_ref) < 1e-10


@pytest.mark.parametrize(
    "nu, d",
    [
        # the d = 1 cases keep their original ids
        pytest.param(nu, d, id=str(nu) if d == 1 else f"{nu}-d{d}")
        for d in (1, 2, 3)
        for nu in (1.0, 5.0, math.inf)
    ],
)
def test_em_step_matches_manual_assembly(rng, nu, d):
    basis = build_basis(4, 1, (0, 1))
    truth = random_params(rng, basis, d=d, sigma2=0.4, nu=nu)
    data = random_dataset(rng, basis, n=8, m_range=(4, 8), params=truth, noise=0.4)
    params = random_params(rng, basis, d=d, sigma2=0.6, nu=nu)
    _assert_matches_manual(params, data, ModelConfig(nu=nu, d=d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_em_step_penalized_matches_manual_assembly(rng, d):
    basis = build_basis(4, 4, (0, 1))
    data = random_dataset(rng, basis, n=8, m_range=(6, 10))
    params = random_params(rng, basis, d=d, sigma2=0.5, nu=1.0)
    config = ModelConfig(nu=1.0, d=d, penalty=0.3)
    _assert_matches_manual(params, data, config, penalty=0.3)


def test_loglik_singular_posterior_precision_is_conditioning_error():
    # V_i rounds to a singular matrix for the curve observed at t = 1 only
    params = singular_at_right_end(BASIS)
    data = dataset_of([("early", [0.01, 0.05], [0.3, -0.2]), ("late", [1.0], [0.4])], BASIS)
    with pytest.raises(ConditioningError, match="'late'"):
        log_likelihood(params, data)


def test_em_step_d0_normal_closed_form(rng):
    data = random_dataset(rng, BASIS, n=10, m_range=(4, 9))
    params = random_params(rng, BASIS, d=0, sigma2=0.9, nu=math.inf)
    stepped = em_step(params, data, ModelConfig(nu=math.inf, d=0))
    btb = sum(
        BASIS.design_matrix(t.times).T @ BASIS.design_matrix(t.times)
        for t in data.trajectories
    )
    btx = sum(BASIS.design_matrix(t.times).T @ t.values for t in data.trajectories)
    theta_gls = np.linalg.solve(btb, btx)
    np.testing.assert_allclose(stepped.theta, theta_gls, rtol=1e-10)
    num = sum(
        float(np.sum((t.values - BASIS.design_matrix(t.times) @ params.theta) ** 2))
        for t in data.trajectories
    )
    total_m = sum(t.m for t in data.trajectories)
    assert abs(stepped.sigma2 - num / total_m) < 1e-12


def test_em_ascent_short(rng):
    for k in range(5):
        nu = (1.0, 5.0)[k % 2]
        data = random_dataset(rng, BASIS, n=15, m_range=(3, 10))
        params = random_params(rng, BASIS, d=1, sigma2=0.5, nu=nu)
        config = ModelConfig(nu=nu, d=1)
        ll = log_likelihood(params, data)
        for _ in range(25):
            params = em_step(params, data, config)
            ll_new = log_likelihood(params, data)
            assert ll_new >= ll - 1e-8
            ll = ll_new


# ---------------------------------------------------------------------------
# fit: sequential chain
# ---------------------------------------------------------------------------

def test_fit_rank1_recovery(rng):
    basis = build_basis(4, 5, (0, 1))
    trajs = []
    for i in range(100):
        times = np.sort(rng.uniform(0, 1, 15))
        z = rng.normal()
        x = 3.0 * z * math.sqrt(2) * np.sin(math.pi * times) + 0.01 * rng.normal(size=15)
        trajs.append((f"c{i}", times, x))
    data = dataset_of(trajs, basis)
    # with noise variance 1e-4, EM on the component converges slowly; SqS3
    # cycles still converge within max_iter
    res = fit(data, ModelConfig(nu=math.inf, d=1))
    assert res.converged
    err = l2_error(
        lambda t: res.params.components(t)[:, 0],
        lambda t: math.sqrt(2) * np.sin(math.pi * np.asarray(t)),
        sign_align=True,
    )
    assert err < 0.05


def test_fit_cauchy_vs_normal_mean_agreement():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 100, Contamination.none(), seed=9
    )
    mu_c = fit(data, ModelConfig(nu=1.0, d=0)).params
    mu_n = fit(data, ModelConfig(nu=math.inf, d=0)).params
    diff = l2_error(lambda t: mu_c.mean(t), lambda t: mu_n.mean(t))
    assert diff < 0.1


def test_fit_structure_and_invariants():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 60, Contamination.none(), seed=3
    )
    res = fit(data, ModelConfig(nu=1.0, d=2))
    assert len(res.stages) == 3
    assert [s.params.d for s in res.stages] == [0, 1, 2]
    J = data.basis.gram_matrix
    H = res.params.H
    np.testing.assert_allclose(H.T @ J @ H, np.eye(2), atol=1e-8)
    assert res.params.lam[0] > res.params.lam[1] > 0
    for stage in res.stages:
        assert np.all(np.diff(stage.loglik_trace) >= -1e-8)
    # per-curve arrays come from the E-step at the returned parameters
    assert abs(res.loglik - log_likelihood(res.params, data)) < 1e-9 * abs(res.loglik)
    m = np.array([t.m for t in data.trajectories])
    np.testing.assert_array_equal(res.weights, robust_weight(1.0, m, res.s))
    e = _estep_at(res.params, data)
    np.testing.assert_allclose(res.s, e.s, rtol=0, atol=1e-8)


def test_fit_determinism():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(15), 40, Contamination.none(), seed=5
    )
    r1 = fit(data, ModelConfig(nu=1.0, d=1))
    r2 = fit(data, ModelConfig(nu=1.0, d=1))
    assert np.array_equal(r1.params.theta, r2.params.theta)
    assert np.array_equal(r1.params.xi, r2.params.xi)
    assert r1.params.sigma2 == r2.params.sigma2


def test_fit_nonconvergence_flag():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 30, Contamination.none(), seed=2
    )
    with pytest.warns(UserWarning):
        res = fit(data, ModelConfig(nu=1.0, d=1, max_iter=1))
    assert res.converged is False


def test_fit_warns_naming_capped_stages():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 30, Contamination.none(), seed=2
    )
    capped = ModelConfig(nu=1.0, d=1, max_iter=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit(data, capped)
        (lockstep,) = _fit_lockstep([data], capped)  # the Monte Carlo path counts, never warns
    assert [s.converged for s in res.stages] == [False, False]
    assert [str(w.message) for w in caught] == [
        "fit stages that did not converge within max_iter=3: d=0, 1; "
        "each keeps its last iterate"
    ]
    assert caught[0].filename == __file__  # reported at the caller's line
    assert lockstep.converged is False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = fit(data, ModelConfig(nu=1.0, d=1))
    # a cap that stage 0 meets and stage 1 does not: only d=1 is named
    k0, k1 = (s.iterations for s in full.stages)
    assert k0 < k1
    with pytest.warns(UserWarning, match=r"max_iter=\d+: d=1; ") as caught:
        res = fit(data, dataclasses.replace(capped, max_iter=k0))
    assert len(caught) == 1
    assert [s.converged for s in res.stages] == [True, False]


@pytest.mark.parametrize("nu", [1.0, math.inf])
def test_fit_from_stops_at_the_cap(nu):
    # with no map left after a cycle's x1, x2 is traced and the fit stops
    # there: each SqS3 cycle traces x0 and x1, the cap's partial cycle every
    # iterate
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 30, Contamination.none(), seed=2
    )
    init = fit(data, ModelConfig(nu=nu, d=1, tol=1e-4)).params
    for k in range(1, 10):
        result = fit_from(data, ModelConfig(nu=nu, d=1, max_iter=k, tol=1e-300), init)
        assert result.iterations == k
        assert len(result.loglik_trace) == 2 * (k // 3) + k % 3 + 1
        assert not result.converged


def test_fit_zero_data_degenerate():
    times = np.linspace(0, 1, 5)
    data = dataset_of([(f"c{i}", times, np.zeros(5)) for i in range(4)], BASIS)
    with pytest.raises(DegenerateFitError):
        fit(data, ModelConfig(nu=math.inf, d=0))


def test_fit_constant_data(rng):
    # curves must jointly support all basis functions for theta to be identified
    trajs = [(f"c{i}", np.sort(rng.uniform(0, 1, 12)), np.full(12, 7.0)) for i in range(5)]
    data = dataset_of(trajs, BASIS)
    res = fit(data, ModelConfig(nu=math.inf, d=0))
    grid = np.linspace(0, 1, 101)
    np.testing.assert_allclose(res.params.mean(grid), 7.0, atol=1e-6)


@pytest.mark.parametrize("nu", [1.0, 5.0])
def test_vanishing_noise_variance_is_degenerate(nu):
    # the mean spline fits constant curves to rounding, so under a t model the
    # curves' weights grow and sigma2 falls geometrically, without bound
    rng = np.random.default_rng(0)
    trajs = [(f"c{i}", np.sort(rng.uniform(0, 1, 10)), np.full(10, 2.0)) for i in range(30)]
    data = dataset_of(trajs, BASIS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFitError, match="noise variance sigma2") as exc_info:
            fit(data, ModelConfig(nu=nu, d=1))
        # the Normal fit of the same data settles above the rounding level
        normal = fit(data, ModelConfig(nu=math.inf, d=1))
    assert exc_info.value.stages == ()  # the mean-only stage is the one that fails
    assert normal.converged and normal.params.sigma2 > (np.finfo(float).eps * 2.0) ** 2


def test_fit_runtime_budget():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 100, Contamination.none(), seed=11
    )
    start = time.perf_counter()
    fit(data, ModelConfig(nu=1.0, d=2))
    assert time.perf_counter() - start < 15.0


def test_fit_from_warm_start():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 20, Contamination.none(), seed=8
    )
    config = ModelConfig(nu=1.0, d=1)
    full = fit(data, config)
    cont = fit_from(data, config, full.params)
    assert cont.converged
    assert cont.iterations <= 5  # already at the fixed point


def test_penalized_fit_smooths():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(15), 50, Contamination.none(), seed=4
    )
    rough = fit(data, ModelConfig(nu=math.inf, d=1))
    smooth = fit(
        data, ModelConfig(nu=math.inf, d=1, penalty=50.0)
    )
    P = data.basis.penalty_matrix
    for stage in smooth.stages:
        assert np.all(np.diff(stage.loglik_trace) >= -1e-8)
    bend_r = rough.params.xi[:, 0] @ P @ rough.params.xi[:, 0]
    bend_s = smooth.params.xi[:, 0] @ P @ smooth.params.xi[:, 0]
    assert bend_s < bend_r


# ---------------------------------------------------------------------------
# lockstep fits of datasets that share one design
# ---------------------------------------------------------------------------

def _scenario_datasets(n=40, seed=8, design=GridDesign.random_uniform(10)):
    # one Monte Carlo replication's scenarios: the same times, different values
    return [
        simulate_dataset(TrueModel(), design, n, contamination, seed=seed)[0]
        for contamination in (
            Contamination.none(),
            Contamination("exogenous_mean", 0.2, 4.0),
            Contamination("endogenous_pc", 0.2, 4.0),
            Contamination("exogenous_pc", 0.3, 4.0),
        )
    ]


def _assert_same_fit(result, solo, rtol=1e-12):
    # stage by stage; a single-stage result (fit_from) is its own stage
    stages, solo_stages = result.stages or (result,), solo.stages or (solo,)
    assert [s.iterations for s in stages] == [s.iterations for s in solo_stages]
    assert [s.backtracks for s in stages] == [s.backtracks for s in solo_stages]
    assert [s.converged for s in stages] == [s.converged for s in solo_stages]
    for got, want in zip(stages, solo_stages):
        for x, y in [
            (got.params.theta, want.params.theta),
            (got.params.xi, want.params.xi),
            (got.params.sigma2, want.params.sigma2),
            (got.loglik, want.loglik),
            (got.s, want.s),
            (got.weights, want.weights),
        ]:
            assert np.linalg.norm(np.subtract(x, y)) <= rtol * np.linalg.norm(y)


@pytest.mark.parametrize("nu", [1.0, 5.0, math.inf])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_lockstep_fits_match_solo_fits(d, nu):
    datasets = _scenario_datasets()
    config = ModelConfig(nu=nu, d=d)
    for result, data in zip(_fit_lockstep(datasets, config), datasets):
        _assert_same_fit(result, fit(data, config))


@pytest.mark.parametrize("models_per_batch", [1, None], ids=["one", "all"])
def test_lockstep_fits_independent_of_batch_cap(monkeypatch, models_per_batch):
    datasets = _scenario_datasets()
    config = ModelConfig(nu=1.0, d=2)
    solo = [fit(data, config) for data in datasets]
    per_model = 8 * (config.d + 1) * datasets[0].n * BASIS.dimension
    monkeypatch.setattr(model, "_BATCH_BYTES", per_model * (models_per_batch or len(datasets)))
    sizes = []
    em_loop = model._em_loop

    def recording(batch, phi, *args):
        sizes.append(phi.shape[0])
        return em_loop(batch, phi, *args)

    monkeypatch.setattr(model, "_em_loop", recording)
    for result, want in zip(_fit_lockstep(datasets, config), solo):
        _assert_same_fit(result, want)
    assert max(sizes) == (models_per_batch or len(datasets))


def test_lockstep_fit_rejects_mixed_designs():
    shared = _scenario_datasets()
    other = _scenario_datasets(seed=9)[0]  # the same n and basis, other times
    with pytest.raises(InvalidInputError, match="share one design"):
        _fit_lockstep(shared[:2] + [other], ModelConfig(nu=1.0, d=1))


def _late_curve_data(values):
    # only curve "late" sees the last basis function, which is 1 at t = 1
    rng = np.random.default_rng(2)
    times = [np.sort(rng.uniform(0, 0.8, 8)) for _ in range(12)] + [np.array([1.0])]
    ids = [f"c{i}" for i in range(12)] + ["late"]
    m = np.array([t.size for t in times])
    return Dataset(Curves(ids, np.concatenate(times), values, m), BASIS)


def test_lockstep_stage_error_stays_with_its_model():
    # one batch: a failing E-step (row 1), a failing M-step (row 2) and two
    # survivors; each failing row reports its solo error, the survivors go on
    values = np.random.default_rng(3).normal(size=97)
    data = _late_curve_data(values)
    # V_i is singular in floating point for the curve observed at t = 1
    singular = singular_at_right_end(BASIS)
    good = ModelParams.from_xi(np.zeros(9), np.eye(9)[:, :2] * 0.5, 1.0, 1.0, BASIS)
    starts = [
        good,
        singular,
        good,
        ModelParams.from_xi(np.full(9, 0.1), np.eye(9)[:, 1:3] * 0.3, 0.5, 1.0, BASIS),
    ]
    config = ModelConfig(nu=1.0, d=2, max_iter=20)
    stats = data.design_stats
    include = np.ones((4, data.n))
    include[2, -1] = 0.0  # without "late", no curve sees t = 1: the theta system is singular
    batch = _batch(data, 1.0, include, (
        np.repeat(stats.btx[None], 4, axis=0), np.repeat(stats.xtx[None], 4, axis=0)
    ))
    stops = _lockstep_stage(
        batch, {g: (p.theta, p.xi, p.sigma2) for g, p in enumerate(starts)}, config
    )
    without_late = Dataset(
        Curves(data.ids[:-1], data.times[:-1], data.values[:-1], data.m[:-1]), BASIS
    )
    with pytest.raises(ConditioningError, match="'late'") as estep_error:
        fit_from(data, config, singular)
    with pytest.raises(ConditioningError, match="theta update") as mstep_error:
        fit_from(without_late, config, good)
    for g, solo_error in [(1, estep_error), (2, mstep_error)]:
        assert isinstance(stops[g], ConditioningError)
        assert str(stops[g]) == str(solo_error.value)
    for g in (0, 3):
        (stage,) = _stage_results([stops[g]], 1.0, BASIS)
        _assert_same_fit(stage, fit_from(data, config, starts[g]))


def test_lockstep_fit_error_stays_with_its_dataset():
    datasets = _scenario_datasets()
    huge = datasets[2].values.copy()
    huge[datasets[2].offsets[3]:datasets[2].offsets[4]] = 1e200  # x^T x overflows
    datasets[2] = Dataset(
        Curves(datasets[2].ids, datasets[2].times, huge, datasets[2].m), BASIS
    )
    config = ModelConfig(nu=1.0, d=2)
    # no numpy warning on the way: the suite turns RuntimeWarning into errors
    results = _fit_lockstep(datasets, config)
    with pytest.raises(NumericalOverflowError, match=repr(datasets[2].ids[3])) as solo_error:
        fit(datasets[2], config)
    assert isinstance(results[2], NumericalOverflowError)
    assert str(results[2]) == str(solo_error.value)
    for g in (0, 1, 3):
        _assert_same_fit(results[g], fit(datasets[g], config))


def _clean_and_exo_pc(seed, n):
    # a selection-study sample and its exo_pc_10 twin, which shares its design
    return [
        simulate_dataset(
            TrueModel(), GridDesign.random_uniform(), n, contamination, seed=seed, basis=BASIS
        )[0]
        for contamination in (Contamination.none(), Contamination("exogenous_pc", 0.10, 4.0))
    ]


def test_lockstep_rank_deficient_stage_stays_with_its_model():
    # this clean sample (n = 20) loses rank at d = 4: its stage-4 loadings
    # collapse onto the d = 3 model, while its twin fits all five stages
    datasets = _clean_and_exo_pc(113, 20)
    config = ModelConfig(nu=1.0, d=4)
    results = _fit_lockstep(datasets, config)
    assert isinstance(results[0], ConditioningError)
    assert "rank deficient" in str(results[0])
    earlier = fit(datasets[0], dataclasses.replace(config, d=3))
    assert len(results[0].stages) == 4
    for got, want in zip(results[0].stages, earlier.stages):
        _assert_same_fit(got, want)
    _assert_same_fit(results[1], fit(datasets[1], config))
    assert len(results[1].stages) == 5
    # rep 110's clean sample (n = 60) at tol 1e-8 keeps rank at d = 4
    (rep110, _) = _fit_lockstep(_clean_and_exo_pc(110, 60), config)
    assert len(rep110.stages) == 5


# ---------------------------------------------------------------------------
# stage transitions on the model axis: each batched kernel against its
# model-by-model computation
# ---------------------------------------------------------------------------

def _stage0_stops(G, nu):
    # G value rows observed at one design, fitted at d = 0 in lockstep
    base = _scenario_datasets()[0]
    rows = base.values + np.random.default_rng(5).normal(scale=0.5, size=(G, base.values.size))
    btx, xtx = base._value_stats(rows)
    batch = _batch(base, nu, np.ones((G, base.n)), (btx, xtx))
    sigma2 = xtx.sum(axis=1) / base.design_stats.total_obs
    starts = {g: (np.zeros(9), np.zeros((9, 0)), float(s)) for g, s in enumerate(sigma2)}
    stops = _lockstep_stage(batch, starts, ModelConfig(nu=nu, d=1, tol=1e-4))
    return base, list(stops.values())


def test_value_stats_rows_match_each_row_alone():
    base = _scenario_datasets()[0]
    rows = base.values * np.random.default_rng(6).normal(size=(13, 1))
    btx, xtx = base._value_stats(rows)
    assert btx.shape == (13, base.n, 9) and xtx.shape == (13, base.n)
    for g, x in enumerate(rows):
        for i in range(base.n):
            a, b = base.offsets[i], base.offsets[i + 1]
            curve = x[a:b]
            assert np.array_equal(btx[g, i], base.pooled_design[a:b].T @ curve)
            assert xtx[g, i] == curve @ curve
    stats = base.design_stats
    assert np.array_equal(stats.btx, base._value_stats(base.values[None])[0][0])
    assert np.array_equal(stats.xtx, base._value_stats(base.values[None])[1][0])


def _lengths_unsorted():
    # lengths out of order; m = 1, 4, 11 and 600 are each held by one curve
    rng = np.random.default_rng(21)
    lengths = [6, 2, 1, 6, 11, 600, 2, 4, 6, 2]
    return dataset_of(
        [random_trajectory(rng, BASIS, m, id_=f"c{i}") for i, m in enumerate(lengths)], BASIS
    )


@pytest.mark.parametrize(
    "make_data",
    [
        # the benchmark's large-n design: about 30 distinct lengths over 5,000 curves
        pytest.param(lambda: simulate_dataset(
            TrueModel(), GridDesign.poisson_uniform(15.0), 5000,
            Contamination("exogenous_mean", 0.10, 4.0), seed=1,
        )[0], id="poisson-5000"),
        pytest.param(_lengths_unsorted, id="lengths-unsorted"),
    ],
)
def test_design_stats_match_each_curve_alone(make_data):
    data = make_data()
    stats, alone = data.design_stats, reference_design_stats(data)
    for name in ("m", "btb", "btx", "xtx"):
        assert np.array_equal(getattr(stats, name), getattr(alone, name)), name
    assert stats.total_obs == alone.total_obs


def test_value_stats_independent_of_the_layout_of_values():
    base = _scenario_datasets()[0]
    rows = base.values * np.random.default_rng(6).normal(size=(13, 1))
    btx, xtx = base._value_stats(rows)
    for layout in (np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
        assert not layout.flags.c_contiguous
        other_btx, other_xtx = base._value_stats(layout)
        assert np.array_equal(other_btx, btx) and np.array_equal(other_xtx, xtx)


@pytest.mark.parametrize("nu", [1.0, math.inf])
def test_init_new_column_matches_model_by_model_formula(nu):
    data, stops = _stage0_stops(13, nu)
    cols = model._init_new_column(data, stops, nu)
    assert cols.shape == (13, 9)
    for col, stop in zip(cols, stops):
        want = init_new_column(data, stop, stop.sigma2, nu)
        # alone, bitwise the formula; in the batch, the multi-RHS solves round
        # differently
        assert np.array_equal(model._init_new_column(data, [stop], nu)[0], want)
        assert np.linalg.norm(col - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_stacked_orthonormalize_matches_per_model(rng, d):
    J = BASIS.gram_matrix
    xi = rng.normal(size=(13, 9, d)) * rng.uniform(0.1, 10.0, size=(13, 1, 1))
    xi[4, :, -1] = xi[4, :, 0]  # a rank-deficient model among them
    H, lam, deficient = model._orthonormalize(xi, J)
    assert deficient.tolist() == [g == 4 and d > 1 for g in range(13)]
    for g in np.flatnonzero(~deficient):
        H1, lam1 = _from_xi(xi[g])
        assert np.array_equal(H[g], H1) and np.array_equal(lam[g], lam1)


def test_stage_transition_is_one_call_per_stage(monkeypatch):
    # with one model per EM batch, a stage's transition still takes one
    # new-column call and one canonicalization for all four models
    datasets = _scenario_datasets()
    monkeypatch.setattr(model, "_BATCH_BYTES", 8 * 3 * datasets[0].n * BASIS.dimension)
    calls = []
    for name in ("_init_new_column", "_orthonormalize", "_em_loop"):
        def recording(*args, _name=name, _f=getattr(model, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(model, name, recording)
    _fit_lockstep(datasets, ModelConfig(nu=1.0, d=2))
    assert calls == (
        ["_em_loop"] * 4 + ["_orthonormalize", "_init_new_column"]
    ) * 2 + ["_em_loop"] * 4 + ["_orthonormalize"]


def test_probe_rejects_rank_deficient_point():
    # an extrapolated point whose loadings lose a direction falls back to x2,
    # like a point that lowers the objective; a healthy point is kept
    data = _scenario_datasets()[0]
    batch = _batch(data, 1.0, np.ones((2, data.n)))
    rng = np.random.default_rng(8)
    xi = rng.normal(scale=0.3, size=(2, 9, 2))
    theta = rng.normal(scale=0.1, size=(2, 1, 9))
    phi2 = np.concatenate([xi.transpose(0, 2, 1), theta], axis=1)
    sigma2_2 = np.array([0.4, 0.6])
    phi = phi2 + rng.normal(scale=0.01, size=phi2.shape)
    phi[0, 1] = 0.0  # row 0's second loading column vanishes
    sigma2 = np.array([0.5, 0.5])
    # no objective floor: only the rank rule can reject a point
    kept, kept_sigma2 = phi.copy(), sigma2.copy()
    e, failed, back = model._probe(batch, kept, kept_sigma2, phi2, sigma2_2, [-math.inf] * 2)
    assert back == [0] and not failed
    assert np.array_equal(kept[0], phi2[0]) and kept_sigma2[0] == sigma2_2[0]
    assert np.array_equal(kept[1], phi[1]) and kept_sigma2[1] == sigma2[1]
    # the rejected row's E-step is that of x2
    alone, _ = model._estep(batch.select([0]), phi2[:1], sigma2_2[:1])
    assert e.loglik[0] == alone.loglik[0]
    assert np.array_equal(e.w[0], alone.w[0])


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [0, 1, 2])
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(
    n=st.integers(8, 30),
    nu=st.sampled_from([1.0, math.inf]),
    contaminated=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fit_invariant_to_curve_order(n, d, nu, contaminated, seed):
    contamination = (
        Contamination("exogenous_mean", 0.10, 4.0) if contaminated else Contamination.none()
    )
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), n, contamination, seed=seed
    )
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = dataset_of([data.trajectories[i] for i in perm], data.basis)
    config = ModelConfig(nu=nu, d=d, tol=1e-14, max_iter=50000)
    orig, moved = fit(data, config), fit(shuffled, config)

    def assert_agree(p, q, rtol):
        for x, y in [(p.theta, q.theta), (p.xi @ p.xi.T, q.xi @ q.xi.T), (p.sigma2, q.sigma2)]:
            assert np.linalg.norm(x - y) <= rtol * np.linalg.norm(x)

    # one EM update from the same point: only rounding separates the orders
    step = em_step(orig.params, data, config)
    assert_agree(step, em_step(orig.params, shuffled, config), 1e-10)
    # whole fits: each stops up to ~5e-6 short of its fixed point when EM is
    # slow (n = 8, d = 2, nu = 1), so they agree to that accuracy, not better
    assert_agree(orig.params, moved.params, 1e-5)
    np.testing.assert_allclose(moved.s, orig.s[perm], rtol=1e-5)
    np.testing.assert_allclose(moved.weights, orig.weights[perm], rtol=1e-5)


@pytest.mark.parametrize("nu", [1.0, 5.0, math.inf])
def test_fit_equivariant_to_affine_value_rescaling(nu):
    # x -> a x + b maps the likelihood's maximizer to theta -> a theta + b 1
    # (the B-splines sum to one), (lambda, sigma2) -> a^2 (lambda, sigma2),
    # the same loadings up to sign and the same weights; iteration counts
    # differ with a, so the fits are compared at tol 1e-14
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 40,
        Contamination("exogenous_mean", 0.10, 4.0), seed=23,
    )
    config = ModelConfig(nu=nu, d=2, tol=1e-14, max_iter=50000)
    base = fit(data, config)
    p = base.params

    def rel(x, y):
        return np.linalg.norm(np.asarray(x) - y) / np.linalg.norm(y)

    for a, b in [(4.0, 1.0), (0.125, -3.0), (3.0, 0.5), (-2.0, 2.0)]:
        moved = Dataset(Curves(data.ids, data.times, a * data.values + b, data.m), data.basis)
        result = fit(moved, config)
        q = result.params
        sign = np.sign(np.sum(q.H * p.H, axis=0))
        assert rel(q.theta, a * p.theta + b) < 1e-4
        assert rel(q.lam, a * a * p.lam) < 1e-4
        assert rel(q.sigma2, a * a * p.sigma2) < 1e-4
        assert rel(q.H * sign, p.H) < 1e-4
        assert rel(result.weights, base.weights) < 1e-4


def _time_mapped(data, a, b):
    """``data`` observed at times a + b t, on the basis whose knots and
    domain are mapped the same way (b > 0): every design matrix is unchanged
    and the Gram matrix scales by b."""
    old = data.basis
    basis = SplineBasis(
        old.order, a + b * old.interior_knots, (a + b * old.domain[0], a + b * old.domain[1])
    )
    return Dataset(Curves(data.ids, a + b * data.times, data.values, data.m), basis)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    a=st.floats(-100.0, 100.0),
    log10_b=st.floats(-2.0, 2.0),
    d=st.integers(0, 3),
    nu=st.sampled_from([1.0, 5.0, math.inf]),
    seed=st.integers(0, 2**16),
)
def test_loglik_invariant_to_affine_time_map(a, log10_b, d, nu, seed):
    # the same theta and xi on the mapped basis give the same curve
    # distributions: from_xi only re-splits xi into H / sqrt(b) and b lam
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, BASIS, n=20, m_range=(2, 10))
    params = random_params(rng, BASIS, d=d, sigma2=0.4, nu=nu)
    moved = _time_mapped(data, a, 10.0**log10_b)
    mapped = ModelParams.from_xi(params.theta, params.xi, params.sigma2, nu, moved.basis)
    ll = log_likelihood(params, data)
    assert abs(log_likelihood(mapped, moved) - ll) <= 1e-10 * abs(ll)


@pytest.mark.parametrize("nu", [1.0, 5.0, math.inf])
def test_fit_invariant_to_time_shift(nu):
    # a shift leaves the Gram matrix, and so every stage initializer, as it
    # was: the fits agree to rounding, iteration for iteration
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 40,
        Contamination("exogenous_mean", 0.10, 4.0), seed=23,
    )
    config = ModelConfig(nu=nu, d=2)
    base = fit(data, config)
    p = base.params

    def rel(x, y):
        return np.linalg.norm(np.asarray(x) - y) / np.linalg.norm(y)

    for a in (-1000.0, 0.5, 7.0):
        result = fit(_time_mapped(data, a, 1.0), config)
        assert [s.iterations for s in result.stages] == [s.iterations for s in base.stages]
        q = result.params
        assert rel(q.theta, p.theta) <= 1e-10
        assert rel(q.lam, p.lam) <= 1e-10
        assert rel(result.weights, base.weights) <= 1e-10


def test_fits_near_the_bottom_of_the_float_range():
    # SqS3 keeps extrapolating while sigma2 is a normal float, so at 1e-152
    # and 1e-153 (sigma2 about 2e-305 and 2e-307) the fit takes the maps of
    # 1e-151; below, squared values are subnormal and the fit asks for
    # rescaled values instead of failing on a later check
    base, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 40, Contamination.none(), seed=3
    )

    def scaled(scale):
        return Dataset(Curves(base.ids, base.times, scale * base.values, base.m), base.basis)

    config = ModelConfig(nu=1.0, d=2)
    ref = fit(scaled(1e-151), config)
    for scale in (1e-152, 1e-153):
        result = fit(scaled(scale), config)
        assert [s.iterations for s in result.stages] == [s.iterations for s in ref.stages]
        assert [s.backtracks for s in result.stages] == [s.backtracks for s in ref.stages]
        ratio = (result.params.sigma2 / scale**2) / (ref.params.sigma2 / 1e-151**2)
        assert abs(ratio - 1.0) < 1e-9
    for scale in (1e-154, 1e-160, 1e-170):
        with pytest.raises(DegenerateFitError, match="below the smallest normal float"):
            fit(scaled(scale), config)
    with pytest.raises(DegenerateFitError, match="all observed values are zero"):
        fit(scaled(0.0), config)


@functools.lru_cache(maxsize=None)
def _edge_data(family: str) -> Dataset:
    """A small dataset at one edge of the input space, on ``BASIS``."""
    rng = np.random.default_rng(7)
    base, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 30, Contamination.none(), seed=5
    )

    def dataset(times, values, m):
        ids = [f"c{i}" for i in range(len(m))]
        return Dataset(Curves(ids, np.asarray(times), np.asarray(values), np.asarray(m)), BASIS)

    if family == "single_observation":
        return dataset(rng.uniform(0, 1, 60), rng.normal(size=60), [1] * 60)
    if family == "identical_curves":
        t = np.sort(rng.uniform(0, 1, 10))
        x = np.sin(3 * t) + rng.normal(0, 0.3, 10)
        return dataset(np.tile(t, 20), np.tile(x, 20), [10] * 20)
    if family == "two_curves":
        return simulate_dataset(
            TrueModel(), GridDesign.random_uniform(10), 2, Contamination.none(), seed=5
        )[0]
    if family == "one_time":
        return dataset(np.full(base.times.size, 0.3), base.values, base.m)
    if family == "values_1e150":
        return dataset(base.times, base.values * 1e150, base.m)
    if family == "values_1e-150":
        return dataset(base.times, base.values * 1e-150, base.m)
    if family == "constant":  # the mean spline fits these exactly
        return dataset(base.times, np.full(base.times.size, 2.0), base.m)
    if family == "one_long_curve":
        times = [np.sort(rng.uniform(0, 1, 500))]
        times += [np.sort(rng.uniform(0, 1, 3)) for _ in range(40)]
        values = [np.sin(2 * np.pi * t) + rng.normal(0, 0.5, t.size) for t in times]
        return dataset(np.concatenate(times), np.concatenate(values), [t.size for t in times])
    raise AssertionError(family)


EDGE_FAMILIES = (
    "single_observation", "identical_curves", "two_curves", "one_time",
    "values_1e150", "values_1e-150", "constant", "one_long_curve",
)
EDGE_MAX_ITER = 200
# the (family, nu, d) cases whose fit caps a stage at EDGE_MAX_ITER
EDGE_CAPPED = {
    (family, nu, d)
    for nu in (1.0, math.inf)
    for family, d in [("single_observation", 1), ("single_observation", 2), ("two_curves", 1)]
}


@pytest.mark.parametrize("d", [0, 1, 2, BASIS.dimension])
@pytest.mark.parametrize("nu", [1.0, math.inf])
@pytest.mark.parametrize("family", EDGE_FAMILIES)
def test_edge_inputs_end_in_results_or_typed_errors(family, nu, d):
    # no numpy floating-point error on the way (benign underflow aside) and
    # no warning but fit's own max_iter one, where it is expected
    data = _edge_data(family)
    capped = (family, nu, d) in EDGE_CAPPED
    expect = (
        pytest.warns(UserWarning, match=f"did not converge within max_iter={EDGE_MAX_ITER}")
        if capped else contextlib.nullcontext()
    )
    grid = np.linspace(0, 1, 11)
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        try:
            with expect:
                result = fit(data, ModelConfig(nu=nu, d=d, max_iter=EDGE_MAX_ITER))
            diagnostics = curve_diagnostics(result.params, data)
            band = mean_confidence_band(result.params, data, grid)
        except RfpcaError:
            assert not capped
            return
    assert np.isfinite(result.params.theta).all() and np.isfinite(result.params.sigma2)
    assert all(np.isfinite(c.s) and np.isfinite(c.weight) for c in diagnostics)
    assert np.isfinite(band.band_half_width).all()


# ---------------------------------------------------------------------------
# estimating equations
# ---------------------------------------------------------------------------

def test_ee_residuals_small_at_fixed_point():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(14), 30, Contamination.none(), seed=6
    )
    res = fit(data, ModelConfig(nu=1.0, d=1, tol=1e-14, max_iter=50000))
    norms = estimating_equation_residuals(res.params, data)
    assert np.all(norms < 1e-5)


def test_ee_residuals_monotone_in_tol():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 25, Contamination.none(), seed=3
    )
    prev = None
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        res = fit(data, ModelConfig(nu=1.0, d=2, tol=tol, max_iter=50000))
        norm = estimating_equation_residuals(res.params, data).max()
        if prev is not None:
            assert norm <= prev + 1e-12
        prev = norm


def test_ee_theta_residual_grows_off_root(rng):
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(12), 25, Contamination.none(), seed=3
    )
    res = fit(data, ModelConfig(nu=1.0, d=1, tol=1e-14, max_iter=50000))
    base = estimating_equation_residuals(res.params, data)[0]
    theta = res.params.theta.copy()
    theta[2] += 0.1
    perturbed = ModelParams(
        theta=theta, H=res.params.H, lam=res.params.lam,
        sigma2=res.params.sigma2, nu=res.params.nu, basis=res.params.basis,
    )
    assert estimating_equation_residuals(perturbed, data)[0] > base


def test_ee_residuals_match_dense_assembly(rng):
    """Batched estimating equations agree with a per-curve dense computation,
    with components and without."""
    data = random_dataset(rng, BASIS, n=10, m_range=(4, 9))
    for d, nu in [(2, 1.0), (2, math.inf), (0, 1.0), (0, math.inf)]:
        params = random_params(rng, BASIS, d=d, sigma2=0.5, nu=nu)
        eq1 = np.zeros(9)
        S_n = np.zeros((9, 9))
        eq4 = 0.0
        for traj in data.trajectories:
            B = BASIS.design_matrix(traj.times)
            sigma = dense_covariance(params, B)
            sig_inv = np.linalg.inv(sigma)
            r = traj.values - B @ params.theta
            s = float(r @ sig_inv @ r)
            w = 1.0 if math.isinf(nu) else (nu + traj.m) / (nu + s)
            eq1 += w * B.T @ sig_inv @ r
            S_n += -B.T @ sig_inv @ B + w * np.outer(B.T @ sig_inv @ r, B.T @ sig_inv @ r)
            eq4 += -0.5 * np.trace(sig_inv) + 0.5 * w * float(r @ sig_inv @ sig_inv @ r)
        J = BASIS.gram_matrix
        proj = np.eye(9) - J @ params.H @ params.H.T
        eq2 = proj @ S_n @ params.H
        eq3 = np.array([params.H[:, k] @ S_n @ params.H[:, k] for k in range(d)])
        n = data.n
        ref = np.array([
            np.linalg.norm(eq1) / n,
            np.linalg.norm(eq2) / n,
            np.linalg.norm(eq3) / n,
            abs(eq4) / n,
        ])
        np.testing.assert_allclose(
            estimating_equation_residuals(params, data), ref, rtol=1e-8, atol=1e-10
        )


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

def _curves(ids, times, values, m):
    return Curves(
        ids, np.array(times, dtype=float), np.array(values, dtype=float), np.array(m, dtype=int)
    )


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(_curves(["a", "a"], [0.5, 0.3], [1.0, 0.5], [1, 1]), BASIS)
    with pytest.raises(ValueError):
        Dataset(_curves(["b"], [1.5], [0.0], [1]), BASIS)
    with pytest.raises(ValueError):
        Dataset(_curves([], [], [], []), BASIS)


@pytest.mark.parametrize(
    "curves, error, message",
    [
        pytest.param(
            _curves(["a", "b", "c"], [0.1, 0.2, 0.3, 0.4, 0.5], [1, 1, np.nan, 1, np.inf], [2, 2, 1]),
            InvalidInputError, "curve 'b': times and values must be finite", id="non-finite",
        ),
        pytest.param(
            _curves(["a", "b", "c"], [0.1, 0.2, 0.5, 0.4, 0.3], [0, 0, 0, 0, 0], [2, 2, 1]),
            InvalidInputError, "curve 'b': times must be nondecreasing", id="decreasing",
        ),
        pytest.param(
            _curves(["a", "b", "a", "b"], [0.1, 0.2, 0.3, 0.4], [0, 0, 0, 0], [1, 1, 1, 1]),
            InvalidInputError, "ids must be unique; 'a' repeats", id="duplicate-id",
        ),
        pytest.param(
            _curves(["a", "b", "c"], [0.1, 0.2, 0.3, 1.5, 2.0], [0, 0, 0, 0, 0], [2, 2, 1]),
            OutOfDomainError, "curve 'b' has times outside", id="outside-domain",
        ),
        pytest.param(
            _curves([], [], [], []), InvalidInputError, "at least one trajectory", id="no-curves",
        ),
        pytest.param(
            _curves(["a", "b"], [0.1, 0.2], [0, 0], [2, 0]),
            InvalidInputError, "curve 'b': needs at least one observation", id="empty-curve",
        ),
        pytest.param(
            _curves(["a", "b"], [0.1, 0.2], [0, 0], [1, 2]),
            DimensionMismatchError, r"with sum\(m\) entries", id="counts-mismatch",
        ),
    ],
)
def test_dataset_checks_pooled_columns(curves, error, message):
    with pytest.raises(error, match=message):
        Dataset(curves, BASIS)


def test_dataset_pools_curves_and_builds_views():
    data = Dataset(
        _curves(["a", "b", "c"], [0.3, 0.6, 0.1, 0.2, 0.5, 0.9], [1, 2, 3, 4, 5, 6], [2, 3, 1]),
        BASIS,
    )
    # a time falling back between curves is not a decrease
    assert data.n == 3 and data.offsets.tolist() == [0, 2, 5, 6]
    assert [t.id for t in data.trajectories] == ["a", "b", "c"]
    b = data.trajectories[1]
    assert b.times.tolist() == [0.1, 0.2, 0.5] and np.shares_memory(b.values, data.values)
    assert b.m == 3
    same = dataset_of(data.trajectories, BASIS)
    assert same.ids == data.ids
    assert same.times.tobytes() == data.times.tobytes()
    assert same.values.tobytes() == data.values.tobytes()


@functools.lru_cache(maxsize=None)
def _small_fit():
    # a d = 1 fit on BASIS, and its data
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(8), 12, Contamination.none(), seed=4, basis=BASIS
    )
    return fit(data, ModelConfig(nu=1.0, d=1, tol=1e-4)), data


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, data: log_likelihood(f.params, data), id="log_likelihood"),
        pytest.param(
            lambda f, data: estimating_equation_residuals(f.params, data),
            id="estimating_equation_residuals",
        ),
        pytest.param(
            lambda f, data: fit_from(data, ModelConfig(nu=1.0, d=1), f.params), id="fit_from"
        ),
        pytest.param(
            lambda f, data: em_step(f.params, data, ModelConfig(nu=1.0, d=1)), id="em_step"
        ),
        pytest.param(
            lambda f, data: cross_validate(data, ModelConfig(nu=1.0, d=1), full_fit=f),
            id="cross_validate",
        ),
        pytest.param(lambda f, data: curve_diagnostics(f.params, data), id="curve_diagnostics"),
        pytest.param(
            lambda f, data: mean_confidence_band(f.params, data, np.linspace(0, 1, 5)),
            id="mean_confidence_band",
        ),
    ],
)
def test_model_and_data_must_share_the_basis(call):
    fitted, data = _small_fit()
    other = build_basis(4, 5, (0, 2))  # the same dimension p = 9
    assert other.dimension == BASIS.dimension
    on_other = dataset_of(data.trajectories, other)
    with pytest.raises(DimensionMismatchError, match="different spline bases"):
        call(fitted, on_other)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(nu=0.0)
    with pytest.raises(ValueError):
        ModelConfig(d=-1)
    with pytest.raises(ValueError):
        ModelConfig(tol=0.0)
    with pytest.raises(ValueError):
        ModelConfig(penalty=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [("penalty", math.inf), ("penalty", math.nan), ("tol", math.inf), ("tol", math.nan)],
)
def test_config_rejects_nonfinite_penalty_and_tol(field, value):
    # an infinite penalty ended in a "log-likelihood is non-finite" error,
    # and an infinite tol stopped every stage after two updates as converged
    with pytest.raises(InvalidInputError, match=f"{field} must be"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda params, data: ModelConfig(d=1.5), InvalidInputError,
                     "d must be an integer", id="config-d"),
        pytest.param(lambda params, data: ModelConfig(max_iter=2.5), InvalidInputError,
                     "max_iter must be an integer", id="config-max_iter"),
        pytest.param(lambda params, data: ModelConfig(nu="1"), InvalidInputError,
                     "nu must be", id="config-nu"),
        pytest.param(lambda params, data: ModelConfig(penalty="0"), InvalidInputError,
                     "penalty must be", id="config-penalty"),
        pytest.param(lambda params, data: ModelConfig(tol="1"), InvalidInputError,
                     "tol must be", id="config-tol"),
        pytest.param(lambda params, data: dataclasses.replace(params, nu="1"),
                     InvalidParamsError, "nu must be positive", id="params-nu"),
        pytest.param(lambda params, data: dataclasses.replace(params, sigma2="1"),
                     InvalidParamsError, "sigma2 must be positive", id="params-sigma2"),
        pytest.param(
            lambda params, data: select_dimension(data, 1.5, "bic", ModelConfig()),
            InvalidInputError, "d_max must be an integer", id="select-d_max",
        ),
        pytest.param(
            lambda params, data: select_dimension(data, -1, "bic", ModelConfig()),
            InvalidInputError, "d_max must be >= 0", id="select-d_max-neg",
        ),
        pytest.param(
            lambda params, data: mean_confidence_band(params, data, [0.5], level="0.9"),
            InvalidInputError, "level must be", id="band-level",
        ),
        pytest.param(
            lambda params, data: sigma_solve(params, np.ones(9), np.ones(9)),
            DimensionMismatchError, r"design must be an \(m, p\) matrix", id="sigma_solve-1d",
        ),
        pytest.param(
            lambda params, data: sigma_solve(params, np.ones((1, 9)), 1.0),
            DimensionMismatchError, "rhs rows must match design rows", id="sigma_solve-0d-rhs",
        ),
    ],
)
def test_library_settings_of_the_wrong_type_raise_typed_errors(call, error, message):
    fitted, data = _small_fit()
    with pytest.raises(error, match=message):
        call(fitted.params, data)


def test_library_settings_take_numpy_scalars():
    fitted, data = _small_fit()
    params = fitted.params
    config = ModelConfig(
        nu=np.float64(1.0), d=np.int64(1), penalty=np.float64(0.0), max_iter=np.int64(500),
        tol=np.float64(1e-4),
    )
    assert fit(data, config).params.d == 1
    report = select_dimension(data, np.int64(1), "bic", dataclasses.replace(config, d=0))
    assert len(report.per_d) == 2
    band = mean_confidence_band(params, data, [0.5], level=np.float64(0.9))
    assert band.level == 0.9
