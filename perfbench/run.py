"""rfpca benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON record of details (environment, per-operation wall times, tail
latency, solution accuracy, counts that must repeat for a seed).  See
NOTES.md for the workloads, the metrics and what each should move.

End-to-end times are normalised by the host's speed, measured while they
run (``speedometer.py``), so that the host's slow and fast phases cancel.
The plain wall times are in the detail record.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speedometer import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

LAYERS = ("cli", "basis", "model", "selection", "diagnostics", "simulate")
SETUP_SAMPLES = 3
MIN_OPS = 3      # untraced operations per run, whatever --seconds says
MIN_PAIRS = 1    # untraced + traced pairs per traced run
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}


class CannotRun(Exception):
    """The benchmark cannot measure here; no result is printed."""


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    return "count"


PER_LAYER = (
    "cli.read_csv_s",
    "basis.design_matrix_s",
    "basis.grid_eval_ms",
    "model.design_stats_s",
    "model.fit_s",
    "model.estep_ms",
    "model.em_step_ms",
    "model.iter_ms",
    "model.estep_mb_computed",
    "model.iterations",
    "model.iterations.d0",
    "model.iterations.d1",
    "model.iterations.d2",
    "selection.bic_s",
    "selection.chain_s",
    "selection.cv_s",
    "selection.refits",
    "selection.refit_iters.mean",
    "selection.refit_ms.p50",
    "selection.refit_iter_ms",
    "selection.drop_ms.p50",
    "selection.heldout_ms.p50",
    "selection.cv_nonconverged",
    "diagnostics.curve_s",
    "diagnostics.band_s",
    "diagnostics.flagged",
    "simulate.dataset_ms.p50",
    "simulate.fit_ms.p50",
    "simulate.fit_iters.mean",
    "simulate.error_norms_ms.p50",
    "simulate.reps_excluded",
    "simulate.harness_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.overhead_s",
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(rfpca_threads) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "RFPCA_THREADS": rfpca_threads,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

SETUP_CODE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
from speedometer import Speedometer, python_probe
meter = Speedometer(python_probe)
with meter:
    t0 = time.perf_counter()
    import rfpca, rfpca.cli
    wall = time.perf_counter() - t0
print(json.dumps({"wall": wall, "norm": meter.normalise(wall), "probes": len(meter.samples)}))
"""


def setup_seconds(samples: int) -> list[dict]:
    """Time ``import rfpca, rfpca.cli`` in fresh interpreters, each with its
    own speedometer; return their plain and normalised times."""
    env = {k: v for k, v in os.environ.items() if k != "RFPCA_THREADS"}
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent), str(SRC)],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs operations of one workload and records their outcome."""

    def __init__(self, workload, cli_main):
        self.wl = workload
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest: dict = {}
        self.facts: dict = {}

    def _commands(self, i: int, tracer, problems: list[str]) -> None:
        argv = ["?"]
        try:
            for argv in self.wl.commands(i):
                if tracer is None:
                    rc = self.cli_main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = self.cli_main(argv)
                if rc != 0:
                    why = " (fit did not converge)" if rc == 2 else ""
                    problems.append(f"rfpca {argv[0]} exited {rc}{why}")
                    break
        except SystemExit as exc:  # argparse rejected the arguments
            problems.append(f"rfpca {argv[0]} exited {exc.code}")
        except Exception as exc:  # a crash fails this op; the run goes on
            traceback.print_exc(file=sys.stderr)
            problems.append(f"rfpca {argv[0]} raised {type(exc).__name__}: {exc}")

    def op(self, i: int, tracer=None, meter=None):
        """Run operation ``i``; return (wall seconds, ok).  With ``meter``,
        the speedometer runs during the commands."""
        self.wl.before_op(i)
        self.attempted += 1
        problems = []
        with meter or contextlib.nullcontext():
            t0 = time.perf_counter()
            self._commands(i, tracer, problems)
            wall = time.perf_counter() - t0
        if not problems:
            try:
                found, facts = self.wl.check(i)
                problems += found
                key = self.wl.input_key(i)
                digest = self.wl.digest()
                if self.first_digest.setdefault(key, digest) != digest:
                    problems.append("outputs differ from an earlier op on the same inputs")
                self.facts.setdefault(i, facts)
            except Exception as exc:  # unreadable outputs fail this op
                traceback.print_exc(file=sys.stderr)
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.failed += bool(problems)
        for p in problems:
            self.failures.append(f"op {i}: {p}")
            print(f"perfbench: op {i} failed: {p}", file=sys.stderr)
        return wall, not problems


def _keep_going(started: float, walls: list[float], seconds: float, minimum: int) -> bool:
    if len(walls) < minimum:
        return True
    # start another op only if it is expected to end nearer the deadline
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(walls) / 2.0 < seconds


def tail(walls: list[float]):
    """Highest percentile with at least TAIL_BEYOND ops beyond it."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND  # ops at or below the reported value
    return {"value": sorted(walls)[k - 1], "unit": "s",
            "percentile": round(100.0 * k / n, 1), "ops": n}


def run_plain(runner: Runner, seconds: float):
    """Untraced ops, each under the speedometer; return their plain walls,
    their normalised walls, the speedometer records and the normalised walls
    of the ops that passed."""
    walls, norm, probes, ok_norm = [], [], [], []
    meter = Speedometer()
    started = time.perf_counter()
    i = 0
    while _keep_going(started, walls, seconds, MIN_OPS):
        wall, ok = runner.op(i, meter=meter)
        walls.append(wall)
        norm.append(meter.normalise(wall))
        probes.append({"n": len(meter.samples), "probe_s": meter.probe_s})
        if ok:
            ok_norm.append(norm[-1])
        i += 1
    return walls, norm, probes, ok_norm


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, ops: list[int], traced_walls: dict, plain_walls: list[float],
                  runner: Runner, rfpca: dict) -> dict:
    """Per-layer metrics from the spans of the traced ops (see NOTES.md)."""
    per_op = []
    lists = {"refit": [], "drop": [], "heldout": [], "sim_data": [], "sim_fit": [],
             "sim_err": []}
    for op in ops:
        spans = [(i, s) for i, s in enumerate(tracer.spans) if s.op == op]

        def total(name, under=None):
            return sum(s.duration for i, s in spans
                       if s.name == name and (under is None or tracer.under(i, under)))

        fits = [s for _, s in spans if s.name == "model.fit"]
        iters = [sum(s.info["iters"]) for s in fits]
        refits = [s for _, s in spans if s.name == "model.fit_from"]
        mc_fits = [s for i, s in spans if s.name == "model.fit"
                   and tracer.under(i, "simulate.monte_carlo")]
        lists["refit"] += [s.duration for s in refits]
        lists["drop"] += [s.duration for i, s in spans if s.name == "model.drop"
                          and tracer.under(i, "selection.cross_validate")]
        lists["heldout"] += [s.duration for i, s in spans if s.name == "model.log_likelihood"
                             and tracer.under(i, "selection.cross_validate")]
        lists["sim_data"] += [s.duration for _, s in spans if s.name == "simulate.simulate_dataset"]
        lists["sim_fit"] += [s.duration for s in mc_fits]
        lists["sim_err"] += [s.duration for _, s in spans if s.name == "simulate.error_norms"]
        fit_s = total("model.fit")
        refit_iters = [s.info["iters"][0] for s in refits]
        flagged = [s.info["flagged"] for _, s in spans if s.name == "diagnostics.curve_diagnostics"]
        mc_children = (
            sum(s.duration for s in mc_fits)
            + sum(s.duration for i, s in spans
                  if s.name in ("simulate.simulate_dataset", "simulate.error_norms",
                                "model.log_likelihood")
                  and tracer.under(i, "simulate.monte_carlo"))
        )
        has_mc = any(s.name == "simulate.monte_carlo" for _, s in spans)
        selfs = tracer.self_times(op)
        row = {
            "cli.read_csv_s": total("cli.read_long_csv"),
            "model.design_stats_s": total("model.design_stats"),
            "model.fit_s": fit_s,
            "model.iter_ms": 1e3 * fit_s / sum(iters) if sum(iters) else 0.0,
            "model.iterations": sum(iters),
            "selection.bic_s": sum(s.duration for _, s in spans
                                   if s.name == "selection.select_dimension"
                                   and s.info["criterion"] == "bic"),
            "selection.chain_s": total("model.fit", under="selection.select_dimension"),
            "selection.cv_s": total("selection.cross_validate"),
            "selection.refits": len(refits),
            "selection.refit_iters.mean": (sum(refit_iters) / len(refit_iters)
                                           if refit_iters else 0.0),
            "selection.refit_iter_ms": (1e3 * sum(s.duration for s in refits) / sum(refit_iters)
                                        if sum(refit_iters) else 0.0),
            "selection.cv_nonconverged": sum(1 for s in refits if not s.info["converged"]),
            "diagnostics.curve_s": total("diagnostics.curve_diagnostics"),
            "diagnostics.band_s": total("diagnostics.mean_confidence_band"),
            "diagnostics.flagged": flagged[-1] if flagged else 0,
            "simulate.fit_iters.mean": (sum(sum(s.info["iters"]) for s in mc_fits) / len(mc_fits)
                                        if mc_fits else 0.0),
            "simulate.reps_excluded": runner.facts.get(op, {}).get("reps_excluded", 0),
            "simulate.harness_s": traced_walls[op] - mc_children if has_mc else 0.0,
            **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS},
        }
        for d in range(3):
            row[f"model.iterations.d{d}"] = sum(
                s.info["iters"][d] for s in fits if len(s.info["iters"]) > d
            )
        per_op.append(row)

    # Times: median over traced ops.  Counts: from the first traced op, whose
    # inputs depend only on the seed, so they repeat exactly run to run.
    counts = {"model.iterations", "model.iterations.d0", "model.iterations.d1",
              "model.iterations.d2", "selection.refits", "selection.refit_iters.mean",
              "selection.cv_nonconverged", "diagnostics.flagged", "simulate.fit_iters.mean",
              "simulate.reps_excluded"}
    out = {}
    for name in per_op[0]:
        out[name] = per_op[0][name] if name in counts else _median([r[name] for r in per_op])
    out["selection.refit_ms.p50"] = 1e3 * _median(lists["refit"])
    out["selection.drop_ms.p50"] = 1e3 * _median(lists["drop"])
    out["selection.heldout_ms.p50"] = 1e3 * _median(lists["heldout"])
    out["simulate.dataset_ms.p50"] = 1e3 * _median(lists["sim_data"])
    out["simulate.fit_ms.p50"] = 1e3 * _median(lists["sim_fit"])
    out["simulate.error_norms_ms.p50"] = 1e3 * _median(lists["sim_err"])
    out.update(kernel_timings(tracer.last_fit, rfpca))
    out["trace.overhead_s"] = (_median([traced_walls[op] for op in ops])
                               - _median(plain_walls))
    return out


def _time_call(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings(last_fit, rfpca: dict) -> dict:
    """Time public model and basis calls at the last traced fit's data and
    parameters: the pooled design matrix, a 401-point grid evaluation, one
    E-step (log_likelihood) and one EM step."""
    if last_fit is None:
        return {"basis.design_matrix_s": 0.0, "basis.grid_eval_ms": 0.0, "model.estep_ms": 0.0,
                "model.em_step_ms": 0.0, "model.estep_mb_computed": 0.0}
    import numpy as np

    model, sim = rfpca["model"], rfpca["simulate"]
    data, result = last_fit
    params, basis = result.params, data.basis
    pooled = np.concatenate([t.times for t in data.trajectories])
    grid = np.linspace(*basis.domain, sim.ERROR_NORM_GRID)
    config = model.ModelConfig(nu=params.nu, d=params.d)
    stats = data.design_stats
    fields = stats._asdict().values() if hasattr(stats, "_asdict") else vars(stats).values()
    computed_bytes = sum(a.nbytes for a in fields if isinstance(a, np.ndarray))
    return {
        "basis.design_matrix_s": _time_call(lambda: basis.design_matrix(pooled), 5),
        "basis.grid_eval_ms": 1e3 * _time_call(lambda: basis.design_matrix(grid), 50),
        "model.estep_ms": 1e3 * _time_call(lambda: model.log_likelihood(params, data), 11),
        "model.em_step_ms": 1e3 * _time_call(lambda: model.em_step(params, data, config), 11),
        "model.estep_mb_computed": computed_bytes / 1e6,
    }


def run_traced(runner: Runner, seconds: float, rfpca: dict):
    from spans import Tracer

    tracer = Tracer(rfpca)
    plain_walls, traced_walls, traced_ok = [], {}, []
    started = time.perf_counter()
    i = 0
    while _keep_going(started, [w + traced_walls[k] for k, w in enumerate(plain_walls)],
                      seconds, MIN_PAIRS):
        wall, _ = runner.op(i)
        plain_walls.append(wall)
        tracer.op = i
        with tracer:
            traced_walls[i], ok = runner.op(i, tracer)
        if ok:
            traced_ok.append(i)
        i += 1
    ops = traced_ok or sorted(traced_walls)
    metrics = layer_metrics(tracer, ops, traced_walls, plain_walls, runner, rfpca)
    return tracer, metrics, list(traced_walls.values())


def _import_rfpca() -> dict:
    if not (SRC / "rfpca" / "__init__.py").is_file():
        raise CannotRun(f"no rfpca sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"rfpca.{name}") for name in LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise CannotRun("rfpca was not imported from this checkout")
    return mods


def measure(workload_cls, seed: int, seconds: float, trace: bool, tiny: bool = False,
            workload_kwargs=None) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    rfpca_threads = os.environ.pop("RFPCA_THREADS", None)  # measure program defaults
    rfpca = _import_rfpca()
    env = environment(rfpca_threads)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise CannotRun(
            f"BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs; "
            "set OPENBLAS_NUM_THREADS to at most nproc"
        )
    setup = setup_seconds(1 if tiny else SETUP_SAMPLES)
    norm, probes = [], []
    work = WORK / f"{workload_cls.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workload_cls(rfpca, seed, work, tiny, **(workload_kwargs or {}))
        wl.prepare()
        runner = Runner(wl, rfpca["cli"].main)
        if trace:
            tracer, metrics, walls = run_traced(runner, seconds, rfpca)
        else:
            walls, norm, probes, ok_norm = run_plain(runner, seconds)
            metrics = {
                "setup_s": statistics.median(s["norm"] for s in setup),
                "wall_norm_s": statistics.median(ok_norm or norm),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END_UNITS if not trace else {name: _unit(name) for name in PER_LAYER}
    failed = runner.failed
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    first = runner.facts.get(min(runner.facts)) if runner.facts else {}
    detail = {
        "workload": workload_cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "env": env,
        "setup_samples": setup,
        "op_walls_s": walls,
        "op_walls_norm_s": norm,
        "op_probes": probes,
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail(walls),
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "facts_op0": first,
    }
    detail.update(wl.summary(runner.facts))
    OUT.mkdir(exist_ok=True)
    stem = f"{workload_cls.name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if trace:
        tracer.write_jsonl(OUT / f"{stem}-spans.jsonl")
    return result, detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), args.tiny)
    except (CannotRun, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
