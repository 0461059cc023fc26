"""Command-line surface: CSV ingestion, fitting, dimension selection,
diagnostics, model persistence and the simulation studies.

Input data is long-format CSV with the exact header ``id,time,value`` and one
row per observation. Fitted models round-trip through a JSON document with
full-precision floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import simulate as sim
from .basis import SplineBasis, build_basis
from .diagnostics import curve_diagnostics, mean_confidence_band
from .errors import CsvParseError, InvalidInputError, RfpcaError, is_real
from .model import Curves, Dataset, FitResult, ModelConfig, ModelParams, fit
from .selection import select_dimension

MODEL_FILE_VERSION = 1
LONG_CSV_HEADER = "id,time,value"


# ---------------------------------------------------------------------------
# Long-format CSV ingestion
# ---------------------------------------------------------------------------

_CSV_DTYPE = [("id", object), ("time", float), ("value", float)]


def read_long_csv(path) -> Curves:
    """Parse an id,time,value file into pooled curves.

    After the header, each nonblank line is three comma-separated fields,
    optionally double-quoted. Times and values must be finite ASCII decimal
    numbers; ``1_000``, which ``float`` accepts, is rejected. The file is
    read as UTF-8. Rows may come in any order: curves are numbered by first
    appearance of their ids, and a stable sort puts each curve's rows in time
    order, so tied times keep their file order. One ``np.loadtxt`` call parses
    the rows; only if it fails, or a number is not finite, is the file scanned
    again line by line, so that the ``CsvParseError`` names the first
    offending line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            if header.rstrip("\r\n") != LONG_CSV_HEADER:
                raise CsvParseError(
                    f"{path}: line 1: expected header {LONG_CSV_HEADER!r}"
                )
            try:
                with warnings.catch_warnings():
                    # an empty body is reported below, as a CsvParseError
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(
                        fh, dtype=_CSV_DTYPE, delimiter=",", comments=None, quotechar='"',
                        ndmin=1,
                    )
            except ValueError as exc:
                raise _first_bad_line(path) or CsvParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        # from the header read, the parse or the rescan, whichever decodes
        # the offending bytes first
        raise _undecodable_line(path) from None
    time, value = rows["time"], rows["value"]
    if not (np.isfinite(time).all() and np.isfinite(value).all()):
        raise _first_bad_line(path) or CsvParseError(f"{path}: non-finite time or value")
    if not rows.size:
        raise CsvParseError(f"{path}: line 2: no data rows")
    ids, first, inverse = np.unique(rows["id"], return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique ids in order of first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    curve = rank[inverse]
    perm = np.lexsort((time, curve))
    return Curves(ids[order].tolist(), time[perm], value[perm], np.bincount(curve))


def _undecodable_line(path) -> CsvParseError:
    """The error naming the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        # a UTF-8 multibyte sequence never holds the newline byte
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return CsvParseError(f"{path}: line {lineno}: not valid UTF-8 text")
    return CsvParseError(f"{path}: not valid UTF-8 text")


def _first_bad_line(path) -> CsvParseError | None:
    """The error of the first data line that breaks ``read_long_csv``'s
    rules, or None; a slow scan, made only after the fast parse failed."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        for lineno, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            if len(row) != 3:
                return CsvParseError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            t, v = _number(row[1]), _number(row[2])
            if t is None or v is None:
                return CsvParseError(f"{path}: line {lineno}: non-numeric time or value")
            if not (math.isfinite(t) and math.isfinite(v)):
                return CsvParseError(f"{path}: line {lineno}: non-finite time or value")
    return None


def _number(field: str) -> float | None:
    """``float`` of what ``np.loadtxt`` reads as a number (ASCII text with no
    underscores, between optional whitespace), else None."""
    text = field.strip()
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    return None


def ingest(path, order: int = 4, num_interior_knots: int = 5, domain=None) -> Dataset:
    """Read a long CSV and attach a spline basis (domain defaults to the
    observed time range)."""
    curves = read_long_csv(path)
    if domain is None:
        domain = (float(curves.times.min()), float(curves.times.max()))
    basis = build_basis(order, num_interior_knots, domain)
    return Dataset(curves, basis)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def save_model(path, result: FitResult) -> None:
    params = result.params
    doc = {
        "version": MODEL_FILE_VERSION,
        "basis": params.basis.to_dict(),
        "nu": "inf" if math.isinf(params.nu) else params.nu,
        "d": params.d,
        "theta": params.theta.tolist(),
        "H": params.H.tolist(),
        "lambda": params.lam.tolist(),
        "sigma2": params.sigma2,
        "fit": {
            "loglik": result.loglik,
            "iterations": result.iterations,
            "backtracks": result.backtracks,
            "converged": result.converged,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


@contextmanager
def _json_fields(path, what: str):
    """Report undecodable JSON or missing and mistyped fields as an input
    error naming the file; the package's own errors keep their class and
    gain the file's name."""
    try:
        yield
    except RfpcaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInputError(
            f"{path}: malformed {what} ({type(exc).__name__}: {exc})"
        ) from exc


# the keys save_model writes; an unknown key, like an unknown version, marks
# a file of a format this reader cannot vouch for
_MODEL_KEYS = ("version", "basis", "nu", "d", "theta", "H", "lambda", "sigma2", "fit")


def load_model(path) -> tuple[ModelParams, dict]:
    with open(path) as fh, _json_fields(path, "model file"):
        doc = json.load(fh)
        _check_keys(doc, _MODEL_KEYS, "model file")
        version = doc["version"]
        if type(version) is not int or version != MODEL_FILE_VERSION:
            raise InvalidInputError(
                f"model file version must be {MODEL_FILE_VERSION}, got {version!r}"
            )
        fit_block = doc.get("fit", {})
        if not isinstance(fit_block, dict):
            raise InvalidInputError(f"fit must be a JSON object, got {fit_block!r}")
        basis = SplineBasis.from_dict(doc["basis"])
        nu, d, sigma2 = doc["nu"], doc["d"], doc["sigma2"]
        if not (nu == "inf" or is_real(nu)):
            raise InvalidInputError(f'nu must be a number or "inf", got {nu!r}')
        if not is_real(sigma2):
            raise InvalidInputError(f"sigma2 must be a number, got {sigma2!r}")
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InvalidInputError(f"d must be a non-negative integer, got {d!r}")
        H = np.asarray(doc["H"], dtype=float)
        if H.shape != (basis.dimension, d):
            raise InvalidInputError(
                f"H must be {basis.dimension} x {d} to match p and d, got shape {H.shape}"
            )
        params = ModelParams(
            theta=np.asarray(doc["theta"], dtype=float),
            H=H,
            lam=np.asarray(doc["lambda"], dtype=float),
            sigma2=float(sigma2),
            nu=math.inf if nu == "inf" else float(nu),
            basis=basis,
        )
        return params, fit_block


# ---------------------------------------------------------------------------
# Small output helpers
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` with one ``csv.writer``. Rows hold Python
    scalars only, so array columns come in through ``.tolist()``: a float is
    written as its ``repr``, while how a numpy scalar is written depends on
    the Python and numpy versions."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_diagnostics_csv(path, table) -> None:
    _write_csv(
        path,
        ["id", "residual_norm", "s", "weight", "flag"],
        zip(table.ids, table.residual_norm.tolist(), table.s.tolist(),
            table.weight.tolist(), table.outlier_flag.astype(int).tolist()),
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _parse_nu(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        nu = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid nu: {text!r}") from None
    if nu <= 0:
        raise argparse.ArgumentTypeError("nu must be positive or 'inf'")
    return nu


def _parse_domain(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("domain must be 'a,b'")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("domain must be 'a,b' with numeric bounds") from None
    return a, b


def _add_basis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--knots", type=int, default=5, help="number of interior knots (default 5)")
    p.add_argument("--order", type=int, default=4, help="spline order (default 4, cubic)")
    p.add_argument("--domain", type=_parse_domain, default=None,
                   help="basis domain 'a,b' (default: observed time range)")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=_parse_nu, default=1.0,
                   help="t degrees of freedom, or 'inf' for the Normal model (default 1)")
    p.add_argument("--penalty", type=float, default=0.0,
                   help="roughness penalty applied to mean and components (default 0)")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfpca",
        description="Robust functional principal components for sparse longitudinal data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and write model.json + diagnostics.csv")
    p_fit.add_argument("--data", required=True, help="long-format CSV (id,time,value)")
    p_fit.add_argument("--dim", type=int, default=0, help="number of components (default 0)")
    _add_basis_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out", default=".", help="output directory")
    p_fit.set_defaults(run=cmd_fit)

    p_sel = sub.add_parser("select", help="choose the model dimension; writes selection.json")
    p_sel.add_argument("--data", required=True)
    p_sel.add_argument("--dmax", type=int, default=4, help="largest dimension to consider")
    p_sel.add_argument("--criterion", choices=["aic", "bic", "cv"], default="bic")
    _add_basis_flags(p_sel)
    _add_fit_flags(p_sel)
    p_sel.add_argument("--out", default=".")
    p_sel.set_defaults(run=cmd_select)

    p_diag = sub.add_parser("diagnose", help="score curves against a saved model; writes band.csv + outliers.csv")
    p_diag.add_argument("--data", required=True)
    p_diag.add_argument("--model", required=True, help="model.json from a previous fit")
    p_diag.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p_diag.add_argument("--grid", type=int, default=201, help="evaluation grid size (default 201)")
    p_diag.add_argument("--out", default=".")
    p_diag.set_defaults(run=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study; writes a tidy CSV")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, choices=[1, 2],
                       help="canonical study: 1 = estimator RMSEs, 2 = dimension selection")
    group.add_argument("--study", help="JSON study configuration file")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replications (default: the study file's, else 200)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="seed of replication 0 (default: the study file's, else 0)")
    p_sim.add_argument("--out", default=".")
    p_sim.set_defaults(run=cmd_simulate)

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    data = ingest(args.data, args.order, args.knots, args.domain)
    config = ModelConfig(nu=args.nu, d=args.dim, penalty=args.penalty,
                         max_iter=args.max_iter, tol=args.tol)
    result = fit(data, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.json", result)
    _write_diagnostics_csv(out / "diagnostics.csv", curve_diagnostics(result.params, data))
    return 0 if result.converged else 2


def cmd_select(args) -> int:
    data = ingest(args.data, args.order, args.knots, args.domain)
    # select_dimension sets the dimension of every fit it runs
    config = ModelConfig(nu=args.nu, penalty=args.penalty, max_iter=args.max_iter, tol=args.tol)
    report = select_dimension(data, args.dmax, args.criterion, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "selection.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
    return 0 if all(row["converged"] for row in report.per_d) else 2


def cmd_diagnose(args) -> int:
    if args.grid < 1:
        raise InvalidInputError(f"--grid must be >= 1, got {args.grid}")
    if not 0.0 < args.level < 1.0:
        raise InvalidInputError(f"--level must be in (0, 1), got {args.level}")
    params, _ = load_model(args.model)
    curves = read_long_csv(args.data)
    try:
        data = Dataset(curves, params.basis)
    except ValueError as exc:
        raise RfpcaError(f"data incompatible with the saved model basis: {exc}") from exc
    a, b = params.basis.domain
    grid = np.linspace(a, b, args.grid)
    band = mean_confidence_band(params, data, grid, args.level)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lower = band.band_center - band.band_half_width
    upper = band.band_center + band.band_half_width
    _write_csv(
        out / "band.csv",
        ["t", "center", "lower", "upper"],
        zip(band.band_grid.tolist(), band.band_center.tolist(), lower.tolist(), upper.tolist()),
    )
    _write_diagnostics_csv(out / "outliers.csv", curve_diagnostics(params, data))
    return 0


# every key a study file may set; any other key is an input error, so a
# misspelled or retired setting cannot be silently ignored
_STUDY_KEYS = ("mode", "scenarios", "estimators", "n", "reps", "seed", "d_max")
_SCENARIO_KEYS = ("name", "kind", "epsilon", "K")


def _check_keys(doc: dict, allowed: tuple, what: str) -> None:
    unknown = [key for key in doc.keys() if key not in allowed]
    if unknown:
        raise InvalidInputError(f"unknown {what} key {unknown[0]!r}")


def _study_from_json(path, flags: dict) -> sim.MonteCarloStudy:
    """The study a JSON file describes; ``flags`` (reps, seed) given on the
    command line override the file's values."""
    with open(path) as fh, _json_fields(path, "study file"):
        doc = json.load(fh)
        _check_keys(doc, _STUDY_KEYS, "study")
        scenarios = []
        for s in doc["scenarios"]:
            _check_keys(s, _SCENARIO_KEYS, "scenario")
            if not isinstance(s["name"], str):
                raise InvalidInputError(f"scenario names must be strings, got {s['name']!r}")
            recipe = {key: value for key, value in s.items() if key != "name"}
            scenarios.append(sim.StudyScenario(s["name"], sim.Contamination(**recipe)))
        bad = [e for e in doc["estimators"] if not (e == "inf" or is_real(e))]
        if bad:
            raise InvalidInputError(f'estimators must be numbers or "inf", got {bad[0]!r}')
        estimators = tuple(math.inf if e == "inf" else float(e) for e in doc["estimators"])
        settings = {key: doc[key] for key in ("n", "reps", "seed", "d_max") if key in doc}
        return sim.MonteCarloStudy(
            mode=doc["mode"], scenarios=tuple(scenarios), estimators=estimators,
            **(settings | flags),
        )


def cmd_simulate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a flag left out takes the study file's value, else the study's default
    flags = {key: value for key, value in (("reps", args.reps), ("seed", args.seed))
             if value is not None}
    if args.study:
        name = "study.csv"
        rows = sim.monte_carlo(_study_from_json(args.study, flags))
    elif args.table == 1:
        name = "table1.csv"
        rows = sim.monte_carlo(sim.efficiency_study(**flags))
    else:
        name = "table2.csv"
        rows = [
            {"n": n, **row}
            for n in (20, 60)
            for row in sim.monte_carlo(sim.selection_study(n=n, **flags))
        ]
    header = list(rows[0])
    _write_csv(out / name, header, ([row[k] for k in header] for row in rows))
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"rfpca: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one line per warning, without Python's source location
        warnings.showwarning = _print_warning
        try:
            return args.run(args)
        except (RfpcaError, OSError) as exc:
            print(f"rfpca: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
