import dataclasses
import math
from collections.abc import Sequence

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import chi2, norm

from rfpca import (
    Dataset,
    DimensionMismatchError,
    ModelConfig,
    build_basis,
    curve_diagnostics,
    fit,
    g_weight,
    mean_confidence_band,
    mean_covariance,
    simulate_dataset,
)
from rfpca._special import ndtri
from rfpca.diagnostics import OUTLIER_QUANTILE, _outlier_cutoff
from rfpca.model import _estep_at
from rfpca.simulate import Contamination, GridDesign, TrueModel
from oracles import dataset_of


BASIS = build_basis(4, 5, (0, 1))


def _clean_fit(n=60, seed=0, nu=1.0, d=2, m=15):
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(m), n, Contamination.none(), seed=seed
    )
    return fit(data, ModelConfig(nu=nu, d=d)), data


def test_g_weight_values():
    assert g_weight(math.inf, 20, 5.0) == -1.0
    assert abs(g_weight(1e9, 20, 5.0) + 1.0) < 1e-6  # analytic limit
    nu, m = 2.0, 7
    assert abs(g_weight(nu, m, 0.0) + (nu + m) / nu) < 1e-14
    assert abs(g_weight(1.0, 2, 1.0) + 0.75) < 1e-14


def test_curve_diagnostics_d0_fitted_values():
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 20, Contamination.none(), seed=1
    )
    res = fit(data, ModelConfig(nu=math.inf, d=0))
    diags = curve_diagnostics(res.params, data)
    for diag, traj in zip(diags, data.trajectories):
        B = data.basis.design_matrix(traj.times)
        np.testing.assert_allclose(diag.fitted_values, B @ res.params.theta, atol=1e-12)
        assert abs(diag.residual_norm - np.linalg.norm(traj.values - diag.fitted_values)) < 1e-12


@pytest.mark.parametrize("d", [0, 2])
def test_curve_diagnostics_matches_per_curve_loop(d):
    res, data = _clean_fit(n=40, d=d)
    params = res.params
    e = _estep_at(params, data)
    diags = curve_diagnostics(params, data)
    assert [g.id for g in diags] == [t.id for t in data.trajectories]
    for i, (g, traj) in enumerate(zip(diags, data.trajectories)):
        B = data.basis.design_matrix(traj.times)
        fitted = B @ (params.theta + params.xi @ e.zhat_dn.T[i])
        resid = traj.values - fitted
        np.testing.assert_allclose(g.fitted_values, fitted, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.residuals, resid, rtol=0, atol=1e-12)
        assert abs(g.residual_norm - np.linalg.norm(resid)) <= 1e-12 * np.linalg.norm(resid)
        assert g.s == float(e.s[i]) and g.weight == float(e.w[i])


def test_curve_diagnostics_table_contract():
    res, data = _clean_fit(n=30, d=1, m=8)
    table = curve_diagnostics(res.params, data)
    assert isinstance(table, Sequence) and len(table) == data.n
    assert table.ids == tuple(data.ids)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.s = table.weight
    with pytest.raises(IndexError):
        table[data.n]

    def fields(d):
        return (d.id, d.fitted_values.tolist(), d.residuals.tolist(), d.residual_norm, d.s,
                d.weight, d.outlier_flag)

    records = list(table)
    assert len(records) == data.n
    for i, d in enumerate(records):
        a, b = table.offsets[i], table.offsets[i + 1]
        columns = (
            table.ids[i], table.fitted[a:b].tolist(), table.residuals[a:b].tolist(),
            table.residual_norm[i], table.s[i], table.weight[i], table.outlier_flag[i],
        )
        assert fields(d) == fields(table[i]) == fields(table[i - data.n]) == columns
        for record in (d, table[i]):
            assert record.fitted_values.base is table.fitted
            assert record.residuals.base is table.residuals
            assert [type(v) for v in fields(record)[3:]] == [float, float, float, bool]
    assert fields(table[-1]) == fields(records[-1])
    assert [fields(d) for d in table[1:4]] == [fields(d) for d in records[1:4]]


def test_curve_diagnostics_near_noiseless():
    rng = np.random.default_rng(3)
    trajs = []
    for i in range(50):
        times = np.sort(rng.uniform(0, 1, 15))
        z = rng.normal(size=2)
        x = (
            z[0] * math.sqrt(2) * np.sin(math.pi * times)
            + z[1] * math.sqrt(0.25) * math.sqrt(2) * np.sin(2 * math.pi * times)
            + 1e-3 * rng.normal(size=15)
        )
        trajs.append((f"c{i}", times, x))
    data = dataset_of(trajs, BASIS)
    res = fit(data, ModelConfig(nu=math.inf, d=2))
    diags = curve_diagnostics(res.params, data)
    assert max(d.residual_norm for d in diags) < 0.05


def test_contaminated_curve_gets_smallest_weight():
    # one curve with its leading score set to K=8
    data, record = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 50,
        Contamination("endogenous_mean", epsilon=0.02, K=8.0), seed=7,
    )
    assert record.contaminated.size == 1
    res = fit(data, ModelConfig(nu=1.0, d=1))
    diags = curve_diagnostics(res.params, data)
    weights = np.array([d.weight for d in diags])
    assert int(np.argmin(weights)) == int(record.contaminated[0])


def test_outlier_flag_coherence():
    data, record = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(20), 100,
        Contamination("exogenous_mean", epsilon=0.10, K=4.0), seed=11,
    )
    res = fit(data, ModelConfig(nu=1.0, d=2))
    diags = curve_diagnostics(res.params, data)
    weights = np.array([d.weight for d in diags])
    median_w = np.median(weights)
    flagged = [d for d in diags if d.outlier_flag]
    assert flagged, "contaminated dataset should produce flags"
    assert all(d.weight < median_w for d in flagged)


def test_diagnostics_basis_mismatch():
    res, data = _clean_fit(n=20, m=10)
    other = dataset_of(data.trajectories, build_basis(4, 6, (0, 1)))
    with pytest.raises(DimensionMismatchError):
        curve_diagnostics(res.params, other)


def test_mean_covariance_symmetric_psd():
    res, data = _clean_fit(n=50, seed=2)
    v = mean_covariance(res.params, data)
    assert np.allclose(v, v.T)
    assert np.linalg.eigvalsh(v).min() >= -1e-10


def test_mean_covariance_scales_inversely_with_n():
    res, data = _clean_fit(n=80, seed=5, nu=1.0, d=1)
    v1 = mean_covariance(res.params, data)
    doubled = dataset_of(
        data.trajectories + [(t.id + "_dup", t.times, t.values) for t in data.trajectories],
        data.basis,
    )
    v2 = mean_covariance(fit(doubled, ModelConfig(nu=1.0, d=1)).params, doubled)
    ratio = np.linalg.norm(v2) / np.linalg.norm(v1)
    assert abs(ratio - 0.5) < 0.02


def test_mean_covariance_d0_normal_matches_classical_sandwich():
    truth0 = TrueModel(phis=(), lambdas=(), sigma2=0.25)
    data, _ = simulate_dataset(
        truth0, GridDesign.fixed_uniform(20), 40, Contamination.none(), seed=9
    )
    res = fit(data, ModelConfig(nu=math.inf, d=0))
    v = mean_covariance(res.params, data)
    btb = np.zeros((9, 9))
    meat = np.zeros((9, 9))
    for traj in data.trajectories:
        B = data.basis.design_matrix(traj.times)
        r = traj.values - B @ res.params.theta
        btb += B.T @ B
        meat += np.outer(B.T @ r, B.T @ r)
    ref = np.linalg.solve(btb, meat) @ np.linalg.inv(btb)
    np.testing.assert_allclose(v, 0.5 * (ref + ref.T), atol=1e-8)


def test_band_symmetric_and_level_validation():
    res, data = _clean_fit(n=40, seed=3, d=1)
    grid = np.linspace(0, 1, 21)
    band = mean_confidence_band(res.params, data, grid, 0.9)
    np.testing.assert_allclose(band.band_center, res.params.mean(grid), atol=1e-12)
    assert np.all(band.band_half_width >= 0)
    assert band.level == 0.9
    with pytest.raises(ValueError):
        mean_confidence_band(res.params, data, grid, 1.2)


def test_band_shrinks_like_root_n():
    widths = {}
    for n in (100, 400):
        data, _ = simulate_dataset(
            TrueModel(), GridDesign.random_uniform(20), n, Contamination.none(),
            seed=21,
        )
        res = fit(data, ModelConfig(nu=math.inf, d=0))
        band = mean_confidence_band(res.params, data, np.linspace(0.1, 0.9, 9), 0.95)
        widths[n] = band.band_half_width.mean()
    ratio = widths[400] / widths[100]
    assert 0.4 <= ratio <= 0.6


def test_outlier_cutoff_is_faithfully_rounded():
    # the exact chi2(m) quantile lies strictly between the cutoff's neighbouring
    # floats c- < c < c+: Q(m/2, c-/2) > tail > Q(m/2, c+/2) at 30 digits. The
    # tail is 1 - OUTLIER_QUANTILE of the level as stored (0.01 + 8.9e-16), the
    # value chi2.ppf also receives; scipy's own gammaincinv fails this at 67
    # of the m = 1..400
    m = np.array([*range(1, 401), 1000, 2000, 5000])
    cutoff = _outlier_cutoff(m)
    with mpmath.workdps(30):
        tail = 1 - mpmath.mpf(OUTLIER_QUANTILE)

        def upper(k, c):
            a, x = mpmath.mpf(int(k)) / 2, mpmath.mpf(c) / 2
            return mpmath.gammainc(a, x, mpmath.inf, regularized=True)

        unfaithful = [
            int(k) for k, c in zip(m, cutoff)
            if not upper(k, np.nextafter(c, 0)) > tail > upper(k, np.nextafter(c, np.inf))
        ]
    assert unfaithful == []
    res, data = _clean_fit(n=40, seed=3, d=1)
    flags = [c.outlier_flag for c in curve_diagnostics(res.params, data)]
    assert flags == list(_estep_at(res.params, data).s > chi2.ppf(OUTLIER_QUANTILE, data.m))


def test_ndtri_equals_scipy():
    # the cephes port takes every branch: the centre, both tails and, below
    # exp(-32), the far-tail approximation
    rng = np.random.default_rng(5)
    y = np.concatenate([
        rng.random(2000), 10.0 ** -rng.uniform(0, 300, 2000),
        1 - 10.0 ** -rng.uniform(0, 16, 2000), [0.0, 0.5, 1.0],
    ])
    assert np.array_equal([ndtri(v) for v in y.tolist()], scipy_ndtri(y))


def test_band_half_width_uses_norm_ppf():
    res, data = _clean_fit(n=40, seed=3, d=1)
    grid = np.linspace(0, 1, 21)
    B = BASIS.design_matrix(grid)
    for level in (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9):
        band = mean_confidence_band(res.params, data, grid, level)
        variance = np.maximum(np.einsum("gp,pq,gq->g", B, band.v_theta, B), 0.0)
        expected = norm.ppf(0.5 * (1.0 + level)) * np.sqrt(variance)
        assert np.array_equal(band.band_half_width, expected)
