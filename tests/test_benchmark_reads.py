"""The rfpca names and attributes that the benchmark under ``perfbench/``
reads directly. The benchmark counts any exception in an operation as a
failed operation, so a rename or a removed attribute fails here first."""

import csv
import functools

import numpy as np

from rfpca import cli, diagnostics, model
from rfpca import simulate as sim
from rfpca.diagnostics import curve_diagnostics


def test_benchmark_reads(tmp_path):
    data, record = sim.simulate_dataset(
        sim.TrueModel(), sim.GridDesign.poisson_uniform(8.0), 12,
        sim.Contamination("exogenous_mean", 0.2, 4.0), seed=1,
    )
    # the workloads write their input CSV from the trajectory views
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "value"])
        for traj in data.trajectories:
            assert traj.m == traj.times.size == traj.values.size
            for t, v in zip(traj.times, traj.values):
                writer.writerow([traj.id, repr(float(t)), repr(float(v))])
    assert {data.trajectories[i].id for i in record.contaminated}
    assert isinstance(model.Dataset.__dict__["design_stats"], functools.cached_property)
    assert data.design_stats._asdict()

    result = model.fit(cli.ingest(path, domain=(0, 1)), model.ModelConfig(nu=1.0, d=1, tol=1e-4))
    assert all(stage.iterations >= 1 for stage in result.stages)
    cli.save_model(tmp_path / "model.json", result)
    params, fit_block = cli.load_model(tmp_path / "model.json")
    assert fit_block["iterations"] == result.iterations
    assert fit_block["backtracks"] == result.backtracks
    assert all(stage.backtracks >= 0 for stage in result.stages)
    data = model.Dataset(cli.read_long_csv(path), params.basis)
    # the benchmark traces the CLI's curve_diagnostics through this name
    assert cli.curve_diagnostics is diagnostics.curve_diagnostics
    assert all(isinstance(d.outlier_flag, bool) for d in curve_diagnostics(params, data))
    assert np.isfinite(model.log_likelihood(params, data))
    model.em_step(params, data, model.ModelConfig(nu=params.nu, d=params.d))
    assert model.estimating_equation_residuals(params, data).shape == (4,)
    assert np.linspace(*data.basis.domain, sim.ERROR_NORM_GRID).size == sim.ERROR_NORM_GRID

    sim.Contamination.none()
    sim.GridDesign.random_uniform(10)
    t1, t2 = sim.efficiency_study(reps=1), sim.selection_study(reps=1)
    assert t1.scenarios and t1.estimators
    assert sim.MonteCarloStudy.criteria == t2.criteria and t2.d_max >= 0
