import math
import time

import numpy as np
import pytest

from rfpca import (
    ConditioningError,
    Dataset,
    DegenerateFitError,
    ModelConfig,
    ModelParams,
    Trajectory,
    build_basis,
    em_step,
    estimating_equation_residuals,
    fit,
    fit_from,
    log_likelihood,
    mahalanobis,
    orthonormalize,
    posterior_stats,
    robust_weight,
    sigma_solve,
    simulate_dataset,
)
from rfpca.simulate import Contamination, GridDesign, TrueModel, l2_error
from oracles import dense_covariance, dense_t_logpdf, random_dataset, random_params


BASIS = build_basis(4, 5, (0, 1))


# ---------------------------------------------------------------------------
# sigma_solve / mahalanobis / posterior_stats against dense algebra
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


def test_mahalanobis(rng):
    params = random_params(rng, BASIS, d=2)
    times = np.sort(rng.uniform(0, 1, 9))
    B = BASIS.design_matrix(times)
    center = Trajectory("c", times, B @ params.theta)
    assert mahalanobis(params, center) == 0.0

    p0 = random_params(rng, BASIS, d=0, sigma2=1.0)
    values = B @ p0.theta + rng.normal(size=9)
    traj = Trajectory("c", times, values)
    r = values - B @ p0.theta
    assert abs(mahalanobis(p0, traj) - r @ r) < 1e-12

    traj2 = Trajectory("c", times, rng.normal(size=9))
    r2 = traj2.values - B @ params.theta
    sigma = dense_covariance(params, B)
    ref = r2 @ np.linalg.solve(sigma, r2)
    assert abs(mahalanobis(params, traj2) - ref) < 1e-10 * ref


def test_robust_weight():
    assert robust_weight(math.inf, 5, 123.4) == 1.0
    for nu in (0.5, 1.0, 5.0, 50.0):
        assert abs(robust_weight(nu, 20, 20.0) - 1.0) < 1e-15
    assert abs(robust_weight(1.0, 20, 100.0) - 21.0 / 101.0) < 1e-15


def test_posterior_stats(rng):
    params = random_params(rng, BASIS, d=2, sigma2=0.5)
    times = np.sort(rng.uniform(0, 1, 10))
    B = BASIS.design_matrix(times)
    center = posterior_stats(params, Trajectory("c", times, B @ params.theta))
    np.testing.assert_allclose(center.zhat, 0.0, atol=1e-12)

    p0 = random_params(rng, BASIS, d=0, sigma2=0.5)
    traj = Trajectory("c", times, rng.normal(size=10))
    ps0 = posterior_stats(p0, traj)
    assert ps0.zhat.size == 0 and ps0.V.shape == (0, 0)
    r = traj.values - B @ p0.theta
    assert abs(ps0.s - r @ r / 0.5) < 1e-12

    traj2 = Trajectory("c", times, rng.normal(size=10))
    ps = posterior_stats(params, traj2)
    sigma = dense_covariance(params, B)
    r2 = traj2.values - B @ params.theta
    zhat_ref = params.xi.T @ B.T @ np.linalg.solve(sigma, r2)
    np.testing.assert_allclose(ps.zhat, zhat_ref, rtol=1e-10, atol=1e-12)
    assert abs(ps.weight - robust_weight(params.nu, 10, ps.s)) < 1e-14


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def test_loglik_cauchy_closed_form():
    basis = build_basis(4, 5, (0, 1))
    theta = np.ones(9) * 3.0  # mu(t) = 3
    params = ModelParams.from_xi(theta, np.zeros((9, 0)), 4.0, 1.0, basis)
    traj = Trajectory("c", np.array([0.4]), np.array([3.0]))  # x = mu(t), sigma = 2
    ll = log_likelihood(params, Dataset([traj], basis))
    assert abs(ll - (-math.log(2 * math.pi))) < 1e-12


def test_loglik_gaussian_limit(rng):
    data = random_dataset(rng, BASIS, n=30, m_range=(3, 12))
    params = random_params(rng, BASIS, d=2, sigma2=0.6, nu=1e8)
    params_inf = ModelParams(
        theta=params.theta, xi=params.xi, H=params.H, lam=params.lam,
        sigma2=params.sigma2, nu=math.inf, basis=BASIS,
    )
    assert abs(log_likelihood(params, data) - log_likelihood(params_inf, data)) < 1e-4


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
        traj = Trajectory("c", times, mu + c * direction)
        lls.append(log_likelihood(params, Dataset([traj], BASIS)))
    assert lls[0] > lls[1] > lls[2]


# ---------------------------------------------------------------------------
# orthonormalization
# ---------------------------------------------------------------------------

def test_orthonormalize_identity_metric():
    J = np.eye(4)
    xi = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    H, lam = orthonormalize(xi, J)
    np.testing.assert_allclose(lam, [4.0, 1.0])
    np.testing.assert_allclose(np.abs(H), np.abs(xi / np.array([2.0, 1.0])), atol=1e-12)


def test_orthonormalize_d1(rng):
    J = BASIS.gram_matrix
    xi = rng.normal(size=(9, 1))
    H, lam = orthonormalize(xi, J)
    assert abs(lam[0] - float(xi[:, 0] @ J @ xi[:, 0])) < 1e-12
    np.testing.assert_allclose(np.abs(H[:, 0]), np.abs(xi[:, 0]) / math.sqrt(lam[0]), atol=1e-12)


def test_orthonormalize_reconstruction(rng):
    J = BASIS.gram_matrix
    for d in (1, 2, 3):
        xi = rng.normal(size=(9, d))
        H, lam = orthonormalize(xi, J)
        np.testing.assert_allclose(H.T @ J @ H, np.eye(d), atol=1e-10)
        np.testing.assert_allclose((H * lam) @ H.T, xi @ xi.T, atol=1e-10)
        assert np.all(np.diff(lam) <= 1e-12)
        # canonical sign: nonnegative integral against the constant function
        integrals = H.T @ J @ np.ones(9)
        assert np.all((integrals > -1e-12) | (np.abs(integrals) < 1e-12))


def test_orthonormalize_rank_deficient():
    J = np.eye(5)
    xi = np.zeros((5, 2))
    xi[0, 0] = 1.0
    xi[0, 1] = 1.0  # second column duplicates the first
    with pytest.raises(ConditioningError):
        orthonormalize(xi, J)


def test_orthonormalize_deterministic(rng):
    J = BASIS.gram_matrix
    xi = rng.normal(size=(9, 2))
    H1, l1 = orthonormalize(xi, J)
    H2, l2 = orthonormalize(xi.copy(), J)
    assert np.array_equal(H1, H2) and np.array_equal(l1, l2)


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
    config = ModelConfig(nu=1.0, d=d, mean_penalty=0.3, component_penalties=0.3)
    _assert_matches_manual(params, data, config, penalty=0.3)


def test_em_step_on_dropped_dataset_matches_manual_assembly(rng):
    # the cross-validation path: design statistics sliced from the full dataset
    basis = build_basis(4, 1, (0, 1))
    truth = random_params(rng, basis, d=2, sigma2=0.4)
    data = random_dataset(rng, basis, n=9, m_range=(4, 8), params=truth, noise=0.4)
    data.design_stats
    sub = data.drop(4)
    assert "design_stats" in sub.__dict__
    params = random_params(rng, basis, d=2, sigma2=0.6)
    _assert_matches_manual(params, sub, ModelConfig(nu=1.0, d=2))


def test_loglik_singular_posterior_precision_is_conditioning_error():
    # Two identical loading columns 2^70 e_9 on the last basis function, which
    # is exactly 1 at the right endpoint: for a curve observed there,
    # V_i = I + Xi^T B^T B Xi / sigma2 rounds to 2^140 [[1, 1], [1, 1]],
    # singular in floating point. A curve away from that function has V_i = I.
    J = BASIS.gram_matrix
    e_first, e_last = np.eye(9)[0], np.eye(9)[-1]
    H = np.column_stack([e_last / math.sqrt(J[-1, -1]), e_first / math.sqrt(J[0, 0])])
    params = ModelParams(
        theta=np.zeros(9), xi=np.column_stack([e_last, e_last]) * 2.0**70, H=H,
        lam=np.array([2.0**141 * J[-1, -1], 1e-30]), sigma2=1.0, nu=1.0, basis=BASIS,
    )
    data = Dataset(
        [
            Trajectory("early", np.array([0.01, 0.05]), np.array([0.3, -0.2])),
            Trajectory("late", np.array([1.0]), np.array([0.4])),
        ],
        BASIS,
    )
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
        trajs.append(Trajectory(f"c{i}", times, x))
    data = Dataset(trajs, basis)
    res = fit(data, ModelConfig(nu=math.inf, d=1))
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
    # per-curve stats match the public per-curve operations
    ps = res.per_curve[0]
    ref = posterior_stats(res.params, data.trajectories[0])
    np.testing.assert_allclose(ps.zhat, ref.zhat, atol=1e-8)
    assert abs(ps.s - ref.s) < 1e-8
    assert abs(ps.weight - robust_weight(1.0, data.trajectories[0].m, ps.s)) < 1e-12


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
    res = fit(data, ModelConfig(nu=1.0, d=1, max_iter=1))
    assert res.converged is False


def test_fit_zero_data_degenerate():
    times = np.linspace(0, 1, 5)
    trajs = [Trajectory(f"c{i}", times, np.zeros(5)) for i in range(4)]
    data = Dataset(trajs, BASIS)
    with pytest.raises(DegenerateFitError):
        fit(data, ModelConfig(nu=math.inf, d=0))


def test_fit_constant_data(rng):
    # curves must jointly support all basis functions for theta to be identified
    trajs = [
        Trajectory(f"c{i}", np.sort(rng.uniform(0, 1, 12)), np.full(12, 7.0))
        for i in range(5)
    ]
    data = Dataset(trajs, BASIS)
    res = fit(data, ModelConfig(nu=math.inf, d=0))
    grid = np.linspace(0, 1, 101)
    np.testing.assert_allclose(res.params.mean(grid), 7.0, atol=1e-6)


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
        data, ModelConfig(nu=math.inf, d=1, mean_penalty=50.0, component_penalties=50.0)
    )
    P = data.basis.penalty_matrix
    for stage in smooth.stages:
        assert np.all(np.diff(stage.loglik_trace) >= -1e-8)
    bend_r = rough.params.xi[:, 0] @ P @ rough.params.xi[:, 0]
    bend_s = smooth.params.xi[:, 0] @ P @ smooth.params.xi[:, 0]
    assert bend_s < bend_r


# ---------------------------------------------------------------------------
# estimating equations
# ---------------------------------------------------------------------------

def test_ee_residuals_small_at_fixed_point():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(14), 30, Contamination.none(), seed=6
    )
    res = fit(data, ModelConfig(nu=1.0, d=1, tol=1e-10, deep_convergence=True, max_iter=50000))
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
    res = fit(data, ModelConfig(nu=1.0, d=1, tol=1e-10, deep_convergence=True, max_iter=50000))
    base = estimating_equation_residuals(res.params, data)[0]
    theta = res.params.theta.copy()
    theta[2] += 0.1
    perturbed = ModelParams(
        theta=theta, xi=res.params.xi, H=res.params.H, lam=res.params.lam,
        sigma2=res.params.sigma2, nu=res.params.nu, basis=res.params.basis,
    )
    assert estimating_equation_residuals(perturbed, data)[0] > base


def test_ee_residuals_match_dense_assembly(rng):
    """Batched estimating equations agree with a per-curve dense computation."""
    data = random_dataset(rng, BASIS, n=10, m_range=(4, 9))
    for nu in (1.0, math.inf):
        params = random_params(rng, BASIS, d=2, sigma2=0.5, nu=nu)
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
        eq3 = np.array([params.H[:, k] @ S_n @ params.H[:, k] for k in range(2)])
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

def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory("a", np.array([0.2, 0.1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Trajectory("a", np.array([0.1, np.nan]), np.array([1.0, 2.0]))
    with pytest.raises(Exception):
        Trajectory("a", np.array([0.1, 0.2]), np.array([1.0]))


def test_dataset_validation():
    t = Trajectory("a", np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset([t, Trajectory("a", np.array([0.3]), np.array([0.5]))], BASIS)
    with pytest.raises(ValueError):
        Dataset([Trajectory("b", np.array([1.5]), np.array([0.0]))], BASIS)
    with pytest.raises(ValueError):
        Dataset([], BASIS)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(nu=0.0)
    with pytest.raises(ValueError):
        ModelConfig(d=-1)
    with pytest.raises(ValueError):
        ModelConfig(tol=0.0)
    with pytest.raises(ValueError):
        ModelConfig(mean_penalty=-1.0)
