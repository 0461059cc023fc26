"""Self-test of the benchmark at tiny input sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that every workload prints the result line BENCHMARK.json
describes, with every metric and its unit; that the detail line
carries the facts NOTES.md promises; that the speedometer probed every timed
op and import and is removed afterwards; that a forced failure is counted and
does not crash the run; that two runs on one seed agree on every count and output
digest while a second seed gives other inputs; that the run refuses more BLAS
threads than CPUs; and that it fails without a result when the rfpca sources
are missing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

COUNTS = (
    "model.iterations", "model.iterations.d0", "model.iterations.d1", "model.iterations.d2",
    "selection.refits", "selection.refit_iters.mean", "selection.cv_nonconverged",
    "diagnostics.flagged", "simulate.fit_iters.mean", "simulate.reps_excluded",
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc, None, None
    return proc, json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_result(workload: str, trace: int, result: dict, spec: dict) -> None:
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    tag = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{tag}: outputs pass their checks")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{tag}: every metric emitted with its unit")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in result["metrics"].values()), f"{tag}: metric values are finite numbers")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    traced = {}
    for workload in workloads:
        for trace in (0, 1):
            proc, result, detail = bench(workload, SEED, trace)
            expect(result is not None, f"{workload} trace={trace}: run succeeds")
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            check_result(workload, trace, result, spec)
            expect(all(k in detail for k in ("env", "wall_s.tail", "fail_frac", "facts_op0")),
                   f"{workload} trace={trace}: detail record")
            if workload == "fit_large":
                expect(detail.get("eqres_max", 1.0) <= 1e-2, f"{workload}: eqres_max reported")
            if not trace:
                expect(len(detail["op_walls_norm_s"]) == len(detail["op_walls_s"])
                       and all(p["n"] > 0 for p in detail["op_probes"])
                       and all(s["probes"] > 0 for s in detail["setup_samples"]),
                       f"{workload}: the speedometer probed every op and import")
            if trace:
                traced[workload] = (result, detail)

    # Determinism: a second run on the same seed repeats every count and
    # output digest; another seed gives other inputs that pass the same checks.
    for workload, (result, detail) in traced.items():
        _, again, again_detail = bench(workload, SEED, 1)
        _, other, other_detail = bench(workload, SEED + 1, 1)
        if again is None or other is None:
            expect(False, f"{workload}: determinism runs succeed")
            continue
        counts = {k: result["metrics"][k]["value"] for k in COUNTS}
        expect(counts == {k: again["metrics"][k]["value"] for k in COUNTS},
               f"{workload}: counts repeat on seed {SEED}")
        expect(detail["facts_op0"] == again_detail["facts_op0"],
               f"{workload}: op-0 outputs repeat on seed {SEED}")
        expect(other["correct"] and other_detail["facts_op0"] != detail["facts_op0"],
               f"{workload}: seed {SEED + 1} passes with other outputs")

    # A forced failure (fit capped at one EM iteration exits 2) is counted.
    sys.path.insert(0, str(HERE))
    import run
    from workloads import FitLarge

    result, detail = run.measure(FitLarge, SEED, 1, False, tiny=True,
                                 workload_kwargs={"extra_fit_args": ["--max-iter", "1"]})
    expect(result["failed"] == result["attempted"] >= 1 and result["correct"] is False,
           "forced failure counted in failed/attempted")
    expect(detail["fail_frac"] == 1.0 and "exited 2" in detail["failures"][0],
           "forced failure reported as a non-converged fit")
    import signal

    expect(signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
           and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
           "speedometer timer and handler removed after a run")

    # More BLAS threads than CPUs: refuse to run.  OpenBLAS caps its own
    # count at the CPU count, so the reading is replaced for this check.
    real = run._blas_threads
    run._blas_threads = lambda: len(os.sched_getaffinity(0)) + 1
    try:
        run.measure(FitLarge, SEED, 1, False, tiny=True)
        refused = False
    except run.CannotRun:
        refused = True
    finally:
        run._blas_threads = real
    expect(refused, "refuses BLAS threads > nproc")

    # Without the rfpca sources: fail fast and print no result.
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result, _ = bench(workloads[0], SEED, 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "fails without rfpca sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
