"""The three benchmark workloads: inputs made from a seed, the CLI commands
of one operation, and the checks on what those commands wrote.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Inputs reach the program only as files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np


def write_long_csv(path: Path, data) -> None:
    """Write a Dataset as id,time,value rows.

    ``repr(float(x))`` keeps every digit and stays plain text under numpy 2,
    whose ``repr(np.float64)`` reads ``np.float64(...)``, which
    ``read_long_csv`` rejects as non-numeric.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "value"])
        for traj in data.trajectories:
            for t, v in zip(traj.times, traj.values):
                writer.writerow([traj.id, repr(float(t)), repr(float(v))])


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class Workload:
    """One set of inputs and the operation repeated on them."""

    name = ""

    def __init__(self, rfpca: dict, seed: int, work: Path, tiny: bool):
        self.rfpca = rfpca  # module name -> imported rfpca module
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.out = work / "out"

    def prepare(self) -> None:
        """Make the inputs every operation shares (outside any timing)."""

    def before_op(self, i: int) -> None:
        """Make the inputs of operation ``i`` (outside its timing)."""

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def input_key(self, i: int):
        """Operations with equal keys read equal inputs and must write equal outputs."""
        return i

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self, i: int) -> tuple[list[str], dict]:
        """Return (problems, facts) for the outputs operation ``i`` wrote."""
        raise NotImplementedError

    def digest(self) -> dict:
        return {p.name: sha256(p) for p in self.outputs()}

    def summary(self, facts: dict) -> dict:
        """Workload-specific entries for the detail record, from the facts of every op."""
        return {}


class FitLarge(Workload):
    """``rfpca fit --dim 2`` then ``rfpca diagnose`` on one large sample."""

    name = "fit_large"
    n = 5000
    tiny_n = 300
    weight_ratio_max = 0.5
    eqres_limit = 1e-2

    def __init__(self, *args, extra_fit_args=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.extra_fit_args = list(extra_fit_args)
        self.csv = self.work / "data.csv"
        self.eqres_max = None

    def prepare(self) -> None:
        sim = self.rfpca["simulate"]
        data, record = sim.simulate_dataset(
            sim.TrueModel(),
            sim.GridDesign.poisson_uniform(15.0),
            self.tiny_n if self.tiny else self.n,
            sim.Contamination("exogenous_mean", 0.10, 4.0),
            seed=self.seed,
        )
        write_long_csv(self.csv, data)
        self.contaminated = {data.trajectories[i].id for i in record.contaminated}
        self.rows = sum(t.m for t in data.trajectories)

    def commands(self, i):
        return [
            ["fit", "--data", str(self.csv), "--dim", "2", "--out", str(self.out),
             *self.extra_fit_args],
            ["diagnose", "--data", str(self.csv), "--model", str(self.out / "model.json"),
             "--out", str(self.out)],
        ]

    def input_key(self, i):
        return 0

    def outputs(self):
        return [self.out / f for f in ("model.json", "diagnostics.csv", "band.csv", "outliers.csv")]

    def _eqres(self) -> float:
        cli, model = self.rfpca["cli"], self.rfpca["model"]
        params, _ = cli.load_model(self.out / "model.json")
        data = model.Dataset(cli.read_long_csv(self.csv), params.basis)
        return float(np.max(model.estimating_equation_residuals(params, data)))

    def check(self, i):
        problems = []
        with open(self.out / "model.json") as fh:
            fit_block = json.load(fh)["fit"]
        if fit_block.get("converged") is not True:
            problems.append("model.json: fit not converged")
        if self.eqres_max is None:
            # later operations must write byte-identical outputs, so one
            # evaluation covers the run
            self.eqres_max = self._eqres()
        if not self.eqres_max <= self.eqres_limit:
            problems.append(f"eqres_max {self.eqres_max!r} > {self.eqres_limit}")
        band = read_rows(self.out / "band.csv")
        half = [(float(r["upper"]) - float(r["lower"])) / 2.0 for r in band]
        if not band or not all(math.isfinite(h) and h > 0 for h in half):
            problems.append("band.csv: a half-width is not finite and positive")
        curves = read_rows(self.out / "outliers.csv")
        bad = [float(r["weight"]) for r in curves if r["id"] in self.contaminated]
        good = [float(r["weight"]) for r in curves if r["id"] not in self.contaminated]
        ratio = statistics.median(bad) / statistics.median(good)
        if not ratio < self.weight_ratio_max:
            problems.append(f"contaminated/clean median weight {ratio!r} >= {self.weight_ratio_max}")
        facts = {
            "iterations_last_stage": fit_block.get("iterations"),
            "converged": fit_block.get("converged"),
            "eqres_max": self.eqres_max,
            "flagged": sum(int(r["flag"]) for r in curves),
            "weight_ratio": ratio,
            "csv_rows": self.rows,
        }
        return problems, facts

    def summary(self, facts):
        return {"eqres_max": self.eqres_max}


class SelectSmall(Workload):
    """``rfpca select`` by BIC (d <= 4) then by CV (d <= 2) on n = 100 curves.

    Operation i reads its own sample, drawn from (seed, i mod CYCLE), so the
    median over a run averages over samples instead of resting on one.
    """

    name = "select_small"
    n = 100
    tiny_n = 30
    cycle = 16

    def _csv(self, i) -> Path:
        return self.work / f"data{self.input_key(i)}.csv"

    def input_key(self, i):
        return i % self.cycle

    def before_op(self, i):
        path = self._csv(i)
        if path.exists():
            return
        sim = self.rfpca["simulate"]
        sub_seed = int(np.random.SeedSequence([self.seed, self.input_key(i)]).generate_state(1)[0])
        data, _ = sim.simulate_dataset(
            sim.TrueModel(), sim.GridDesign.random_uniform(10),
            self.tiny_n if self.tiny else self.n, sim.Contamination.none(), seed=sub_seed,
        )
        write_long_csv(path, data)

    def commands(self, i):
        csv_path = str(self._csv(i))
        return [
            ["select", "--data", csv_path, "--criterion", "bic", "--dmax", "4",
             "--out", str(self.out / "bic")],
            ["select", "--data", csv_path, "--criterion", "cv", "--dmax", "2",
             "--out", str(self.out / "cv")],
        ]

    def outputs(self):
        return [self.out / "bic" / "selection.json", self.out / "cv" / "selection.json"]

    def check(self, i):
        problems = []
        reports = {}
        for crit in ("bic", "cv"):
            with open(self.out / crit / "selection.json") as fh:
                reports[crit] = json.load(fh)
            if reports[crit]["chosen_d"] != 2:
                problems.append(f"{crit} chose d={reports[crit]['chosen_d']}, expected 2")
        nonconverged = sum(row["cv_refits_nonconverged"] for row in reports["cv"]["per_d"])
        if nonconverged:
            problems.append(f"{nonconverged} CV refits did not converge")
        facts = {
            "chosen_d.bic": reports["bic"]["chosen_d"],
            "chosen_d.cv": reports["cv"]["chosen_d"],
            "cv_refits_nonconverged": nonconverged,
            **self.digest(),
        }
        return problems, facts


class McStudy(Workload):
    """Replication r of Tables 1 and 2: ``rfpca simulate --reps 1 --seed seed+r``."""

    name = "mc_study"

    def commands(self, i):
        rep_seed = str(self.seed + i)
        return [
            ["simulate", "--table", "1", "--reps", "1", "--seed", rep_seed, "--out", str(self.out)],
            ["simulate", "--table", "2", "--reps", "1", "--seed", rep_seed, "--out", str(self.out)],
        ]

    def outputs(self):
        return [self.out / "table1.csv", self.out / "table2.csv"]

    def check(self, i):
        sim = self.rfpca["simulate"]
        t1, t2 = sim.efficiency_study(reps=1), sim.selection_study(reps=1)
        expected = {
            "table1.csv": (len(t1.scenarios) * len(t1.estimators) * 2, ("value", "mc_se")),
            # the CLI runs Table 2 at n = 20 and n = 60
            "table2.csv": (
                2 * len(t2.scenarios) * len(t2.estimators) * len(t2.criteria) * (t2.d_max + 1),
                ("percent",),
            ),
        }
        problems = []
        tables = {}
        for fname, (nrows, numeric) in expected.items():
            rows = read_rows(self.out / fname)
            tables[fname] = rows
            if len(rows) != nrows:
                problems.append(f"{fname}: {len(rows)} rows, expected {nrows}")
            if not all(_finite(r[k]) for r in rows for k in numeric):
                problems.append(f"{fname}: non-finite entries")
        excluded = sum(int(r["reps_excluded"]) for rows in tables.values() for r in rows)
        if excluded:
            problems.append(f"reps_excluded = {excluded}")
        # which d each (n, estimator, criterion, scenario) picked in this
        # replication; recorded, never gated (criterion 4 stays visible)
        chosen = {
            f"n{r['n']}/{r['estimator']}/{r['criterion']}/{r['scenario']}": int(r["d"])
            for r in tables["table2.csv"]
            if _finite(r["percent"]) and float(r["percent"]) == 100.0
        }
        facts = {"reps_excluded": excluded, "chosen_d": chosen, **self.digest()}
        return problems, facts

    def summary(self, facts):
        tallies: dict = {}
        for op_facts in facts.values():
            for key, d in op_facts["chosen_d"].items():
                tallies.setdefault(key, {}).setdefault(f"d{d}", 0)
                tallies[key][f"d{d}"] += 1
        return {"chosen_d_tallies": tallies}


WORKLOADS = {w.name: w for w in (FitLarge, SelectSmall, McStudy)}
