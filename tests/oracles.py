"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the textbook definitions
(recursive basis evaluation, dense covariance algebra) rather than reusing
any package code paths.
"""

import math
from types import SimpleNamespace

import numpy as np


def bspline_basis(knots, degree, i, x):
    """Value of the i-th B-spline basis function by the Cox-de Boor recursion."""
    knots = np.asarray(knots, dtype=float)
    if degree == 0:
        # half-open spans, except the last nonempty span which is closed
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < x <= knots[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + degree] - knots[i]
    if den > 0:
        left = (x - knots[i]) / den * bspline_basis(knots, degree - 1, i, x)
    right = 0.0
    den = knots[i + degree + 1] - knots[i + 1]
    if den > 0:
        right = (knots[i + degree + 1] - x) / den * bspline_basis(knots, degree - 1, i + 1, x)
    return left + right


def bspline_basis_derivative(knots, degree, i, x, order=1):
    """Derivative of the i-th basis function via the derivative recursion."""
    if order == 0:
        return bspline_basis(knots, degree, i, x)
    knots = np.asarray(knots, dtype=float)
    if degree == 0:
        return 0.0
    left = 0.0
    den = knots[i + degree] - knots[i]
    if den > 0:
        left = degree / den * bspline_basis_derivative(knots, degree - 1, i, x, order - 1)
    right = 0.0
    den = knots[i + degree + 1] - knots[i + 1]
    if den > 0:
        right = degree / den * bspline_basis_derivative(knots, degree - 1, i + 1, x, order - 1)
    return left - right


def reference_design_matrix(basis, times):
    p = basis.dimension
    out = np.zeros((len(times), p))
    for j, t in enumerate(times):
        for i in range(p):
            out[j, i] = bspline_basis(basis.knots, basis.degree, i, t)
    return out


def greville_abscissae(basis):
    """Coefficient sites where spline coefficients reproduce linear functions."""
    k = basis.degree
    t = basis.knots
    return np.array([t[i + 1 : i + k + 1].mean() for i in range(basis.dimension)])


def robust_weight(nu, m, s):
    """The t model's downweighting factor (nu + m) / (nu + s) of a curve with
    m observations at squared distance s; exactly 1 when nu is inf."""
    if math.isinf(nu):
        return np.ones_like(np.asarray(s, dtype=float))
    return (nu + np.asarray(m)) / (nu + np.asarray(s))


def dense_covariance(params, design):
    """Sigma_i assembled explicitly."""
    design = np.asarray(design, dtype=float)
    return design @ params.xi @ params.xi.T @ design.T + params.sigma2 * np.eye(design.shape[0])


def dense_t_logpdf(x, mu, sigma, nu):
    """Multivariate t (or Gaussian for nu=inf) log density from dense algebra."""
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    m = x.size
    r = x - mu
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    s = float(r @ np.linalg.solve(sigma, r))
    if math.isinf(nu):
        return -0.5 * (m * math.log(2 * math.pi) + logdet + s)
    return float(
        gammaln(0.5 * (nu + m))
        - gammaln(0.5 * nu)
        - 0.5 * m * math.log(nu * math.pi)
        - 0.5 * logdet
        - 0.5 * (nu + m) * math.log1p(s / nu)
    )


def dense_log_likelihood(theta, xi, sigma2, nu, data):
    """Sum of dense per-curve log densities at raw (unorthonormalized)
    loadings, each curve's design matrix built from its own times."""
    params = SimpleNamespace(xi=np.asarray(xi, dtype=float), sigma2=sigma2)
    total = 0.0
    for traj in data.trajectories:
        B = data.basis.design_matrix(traj.times)
        total += dense_t_logpdf(traj.values, B @ theta, dense_covariance(params, B), nu)
    return total


def doppler_projection(basis):
    """Coefficients of the L2 projection of the unit Doppler function onto the
    spline space, from 64-point Gauss-Legendre quadrature on each knot
    interval."""
    from rfpca.simulate import doppler_phi3

    x, w = np.polynomial.legendre.leggauss(64)
    breaks = np.unique(basis.knots)
    half = 0.5 * np.diff(breaks)[:, None]
    t = (half * x + 0.5 * (breaks[:-1] + breaks[1:])[:, None]).ravel()
    wt = (half * w).ravel()
    B = reference_design_matrix(basis, t)
    gram = B.T @ (wt[:, None] * B)
    return np.linalg.solve(gram, B.T @ (wt * doppler_phi3(t)))


def added_column_gain(loglik, xi, direction, sigma2):
    """Largest increase of ``loglik`` from appending the column c * direction
    to the loadings ``xi``, by bounded line search over log c^2 in
    [1e-3, 10] * sigma2. Any c gives a lower bound on the gain of the best
    one-column extension."""
    from scipy.optimize import minimize_scalar

    def neg(log_var):
        return -loglik(np.column_stack([xi, math.exp(0.5 * log_var) * direction]))

    bounds = (math.log(1e-3 * sigma2), math.log(10.0 * sigma2))
    best = minimize_scalar(neg, bounds=bounds, method="bounded", options={"xatol": 1e-6})
    return -best.fun - loglik(xi)


def init_new_column(data, stop, sigma2, nu, trim=0.25):
    """One model's seed for its next loading column, written model by model:
    the leading Gram-metric eigenvector of the weighted scatter of its
    ridge-projected residual coefficients (the quarter of curves farthest
    from the mean dropped under a t model, n >= 8), largest entry positive,
    scaled to variance sigma2 / 2. ``stop`` supplies the previous stage's
    B^T r - A zhat, distances and weights."""
    btb = data.design_stats.btb
    p = data.basis.dimension
    ridge = np.trace(btb, axis1=1, axis2=2) / p + 1e-12
    reg = btb + ridge[:, None, None] * np.eye(p)
    coefs = np.linalg.solve(reg, stop.btr[:, :, None])[:, :, 0]
    w = stop.w
    if not math.isinf(nu) and data.n >= 8:
        cutoff = np.quantile(stop.s, 1.0 - trim)
        w = np.where(stop.s <= cutoff, w, 0.0)
    J = data.basis.gram_matrix
    L = np.linalg.cholesky(J)
    scatter = (w[:, None] * coefs).T @ coefs
    M = L.T @ scatter @ L
    _, evecs = np.linalg.eigh(0.5 * (M + M.T))
    v = np.linalg.solve(L.T, evecs[:, -1])
    norm = math.sqrt(max(float(v @ J @ v), np.finfo(float).tiny))
    v = v / norm
    top = np.argmax(np.abs(v))
    if v[top] < 0:
        v = -v
    return v * math.sqrt(sigma2 / 2.0)


def random_params(rng, basis, d, sigma2=0.3, nu=1.0, scale=1.0):
    """Valid ModelParams with random loadings, built through the public factory."""
    from rfpca import ModelParams

    p = basis.dimension
    theta = rng.normal(size=p) * scale
    xi = rng.normal(size=(p, d)) * scale
    return ModelParams.from_xi(theta, xi, sigma2, nu, basis)


def singular_at_right_end(basis):
    """Valid ModelParams whose two components both load on the last basis
    function, the only one nonzero at the right end of the domain, with
    lam_1 set so that the two columns of B Xi match there. For a curve
    observed only at that end, V_i = I + Xi^T B^T B Xi / sigma2 rounds to
    2^140 c [[1, -1], [-1, 1]], singular in floating point; a curve away
    from the last two basis functions has V_i = I."""
    from rfpca import ModelParams

    J, eye = basis.gram_matrix, np.eye(basis.dimension)
    h2 = eye[-1] / math.sqrt(J[-1, -1])
    h1 = eye[-2] - (eye[-2] @ J @ h2) * h2  # J-orthogonal to h2
    h1 /= math.sqrt(h1 @ J @ h1)
    lam2 = 2.0**140
    return ModelParams(
        theta=np.zeros(basis.dimension), H=np.column_stack([h1, h2]),
        lam=np.array([lam2 * (h2[-1] / h1[-1]) ** 2, lam2]), sigma2=1.0, nu=1.0, basis=basis,
    )


def dataset_of(records, basis):
    """The ``Dataset`` of (id, times, values) records, ``Trajectory`` views
    among them, pooled in the given order."""
    from rfpca import Curves, Dataset

    ids, times, values = zip(*records)
    times = [np.asarray(t, dtype=float) for t in times]
    values = [np.asarray(v, dtype=float) for v in values]
    return Dataset(
        Curves(list(ids), np.concatenate(times), np.concatenate(values), [t.size for t in times]),
        basis,
    )


def reference_design_stats(data):
    """``Dataset.design_stats`` one curve at a time: B_i^T B_i, B_i^T x_i and
    x_i^T x_i, each product taken on the curve's own contiguous rows of the
    pooled design and values."""
    n, p = data.n, data.basis.dimension
    btb, btx, xtx = np.empty((n, p, p)), np.empty((n, p)), np.empty(n)
    bounds, design = data.offsets.tolist(), data.pooled_design
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        B, x = design[a:b], data.values[a:b]
        np.matmul(B.T, B, out=btb[i])
        btx[i] = B.T @ x
        xtx[i] = x @ x
    m = np.diff(bounds)
    return SimpleNamespace(m=m, btb=btb, btx=btx, xtx=xtx, total_obs=int(m.sum()))


def random_trajectory(rng, basis, m, params=None, noise=0.5, id_="curve"):
    """One random curve as an (id, times, values) record."""
    a, b = basis.domain
    times = np.sort(rng.uniform(a, b, m))
    if params is None:
        values = rng.normal(size=m) * noise
    else:
        B = basis.design_matrix(times)
        z = rng.normal(size=params.d)
        values = B @ (params.theta + params.xi @ z) + noise * rng.normal(size=m)
    return id_, times, values


def random_dataset(rng, basis, n, m_range=(5, 15), params=None, noise=0.5):
    trajs = [
        random_trajectory(
            rng, basis, int(rng.integers(m_range[0], m_range[1] + 1)),
            params=params, noise=noise, id_=f"c{i:03d}",
        )
        for i in range(n)
    ]
    return dataset_of(trajs, basis)


def reference_read_long_csv(path):
    """A well-formed long CSV read row by row with ``csv.reader``.

    Returns (ids, times, values, m) as lists: ids in order of first
    appearance, each curve's rows sorted by time with a stable sort.
    """
    import csv

    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                cid, t, v = row
                groups.setdefault(cid, []).append((float(t), float(v)))
    curves = [sorted(obs, key=lambda tv: tv[0]) for obs in groups.values()]
    return (
        list(groups),
        [t for obs in curves for t, _ in obs],
        [v for obs in curves for _, v in obs],
        [len(obs) for obs in curves],
    )


def reference_simulate(truth, design, n, contamination, seed):
    """Curves of ``simulate_dataset``, drawn one curve at a time.

    Draw order: the design's grids, the (n, d) scores, one noise vector per
    curve, then the permutation choosing the contaminated curves. Returns
    a list of (id, times, values).
    """
    rng = np.random.default_rng(seed)
    grids = design.sample(rng, n, truth.domain)
    z = rng.standard_normal((n, len(truth.lambdas)))
    noise = [rng.standard_normal(g.size) for g in grids]
    n_bad = int(round(contamination.epsilon * n))
    kind, K = contamination.kind, contamination.K
    selected = rng.permutation(n)[:n_bad] if kind != "none" else np.array([], dtype=int)
    plus, minus = selected[: n_bad // 2], selected[n_bad // 2 :]
    lambdas = np.asarray(truth.lambdas, dtype=float)
    if kind == "endogenous_mean":
        z[selected, 0] = K
    elif kind == "endogenous_pc":
        z[selected, :] = 0.0
        z[plus, 1] = K * math.sqrt(lambdas[1])
        z[minus, 1] = -K * math.sqrt(lambdas[1])
    shift = np.zeros(n)
    if kind in ("exogenous_mean", "exogenous_pc"):
        level = K * math.sqrt(lambdas[0]) if lambdas.size else K
        shift[selected if kind == "exogenous_mean" else plus] = level
        if kind == "exogenous_pc":
            shift[minus] = -level
    from rfpca.simulate import doppler_phi3

    out = []
    for i, times in enumerate(grids):
        x = truth.mu(times) + math.sqrt(truth.sigma2) * noise[i]
        for k, phi in enumerate(truth.phis):
            x = x + z[i, k] * math.sqrt(lambdas[k]) * phi(times)
        if shift[i]:
            x = x + shift[i] * doppler_phi3(times)
        out.append((f"curve{i:04d}", times, x))
    return out


def reference_study_rows(study, per_rep):
    """Table rows of a Monte Carlo study from its replications' rows, keyed
    by label: each cell, in (scenario, estimator, criterion) order, collects
    every row of every replication whose scenario, nu and criterion labels
    are the cell's. Cells with unique labels need no row order."""
    from rfpca.simulate import STUDY_CRITERIA, estimator_label

    def matching(**labels):
        return [
            r for rows in per_rep for r in rows
            if all(r[key] == value for key, value in labels.items())
        ]

    out = []
    for scen in study.scenarios:
        for nu in study.estimators:
            if study.mode == "estimation":
                cell = matching(scenario=scen.name, nu=nu)
                for metric in ("mu", "phi1"):
                    errors = np.array([r[f"{metric}_err"] for r in cell if r[f"{metric}_ok"]])
                    rms = se = np.nan
                    if errors.size:
                        sq = errors**2
                        rms = math.sqrt(float(sq.mean()))
                        se = 0.0
                        if sq.size >= 2 and rms > 0:
                            se = float(sq.std(ddof=1)) / math.sqrt(sq.size) / (2.0 * rms)
                    out.append({
                        "estimator": estimator_label(nu), "scenario": scen.name,
                        "metric": f"rmse_{metric}", "value": rms, "mc_se": se,
                        "reps_used": errors.size, "reps_excluded": len(cell) - errors.size,
                    })
                continue
            for criterion in STUDY_CRITERIA:
                cell = matching(scenario=scen.name, nu=nu, criterion=criterion)
                chosen = [r["chosen_d"] for r in cell if r["ok"]]
                for d in range(study.d_max + 1):
                    out.append({
                        "estimator": estimator_label(nu), "criterion": criterion,
                        "scenario": scen.name, "d": d,
                        "percent": 100.0 * chosen.count(d) / len(chosen) if chosen else np.nan,
                        "reps_used": len(chosen), "reps_excluded": len(cell) - len(chosen),
                    })
    return out
