"""Speedometer: measures the host's speed while a timed operation runs.

The shared host this benchmark runs on slows down and speeds up by up to
about 1.8x, in phases that last from a second to minutes.  A plain wall time
therefore says as much about the phase as about rfpca, and a reference timed
before or after an operation misses the phases during it.  While a
``Speedometer`` is active, a wall-clock interval timer interrupts the
process every ``INTERVAL_S`` seconds and runs a fixed probe of about a
millisecond.  The mean probe time over the operation is the host's slowdown
during it.  The benchmark reports

    normalised = (wall - time spent in probes) * nominal / mean probe time

which is the operation's time on a host where the probe takes its nominal
time.  See NOTES.md, "Normalised times".

The probes imitate rfpca's mix of work without calling rfpca: batched
(n, p, p) numpy algebra like the E- and M-steps, small solves like the
per-curve code, and plain Python bookkeeping.  ``python_probe`` has the
Python part alone, so that it can run while ``import rfpca`` is timed in a
fresh interpreter without importing numpy first.  Neither probe may change:
every comparison between commits rests on them being the same code with the
same inputs.  This module imports numpy only when ``numpy_probe`` first runs.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
NOMINAL_S = {"numpy_probe": 1.0e-3, "python_probe": 0.7e-3}


def python_probe() -> float:
    table: dict = {}
    for k in range(4000):
        table[k % 97] = table.get(k % 97, 0.0) + 0.5 * k
    return min(table.values())


_arrays = None


def _probe_arrays():
    import numpy as np

    rng = np.random.default_rng(12345)
    n, m, p, d = 200, 12, 9, 2
    B = rng.standard_normal((n, m, p))
    return {
        "btb": np.einsum("nmp,nmq->npq", B, B),
        "btx": rng.standard_normal((n, p)),
        "xi": 0.1 * rng.standard_normal((p, d)),
        "theta": 0.1 * rng.standard_normal(p),
        "curves": [(B[i], rng.standard_normal(m)) for i in range(15)],
        "eye_d": np.eye(d),
        "eye_p": np.eye(p),
    }


def numpy_probe() -> float:
    global _arrays
    import numpy as np

    if _arrays is None:
        _arrays = _probe_arrays()
    a = _arrays
    A = a["btb"] @ a["xi"]
    xtbx = np.einsum("pk,npl->nkl", a["xi"], A)
    Vinv = np.linalg.inv(a["eye_d"] + xtbx)
    u = (a["btx"] - a["btb"] @ a["theta"]) @ a["xi"]
    acc = float(np.einsum("nkl,nl->nk", Vinv, u).sum())
    for B, x in a["curves"]:
        acc += float(np.linalg.solve(B.T @ B + a["eye_p"], B.T @ x)[0])
    table: dict = {}
    for k in range(1500):
        table[k % 97] = table.get(k % 97, 0.0) + 0.5 * k
    return acc + min(table.values())


class Speedometer:
    """Context manager that runs ``probe`` on a wall-clock timer and keeps
    the duration of every run.  Only one may be active at a time, in the
    main thread."""

    def __init__(self, probe=numpy_probe):
        self.probe = probe
        self.nominal_s = NOMINAL_S[probe.__name__]
        self.samples: list[float] = []
        for _ in range(5):  # warm up: first calls allocate and fill caches
            probe()

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def probe_s(self) -> float:
        """Time spent in probes."""
        return sum(self.samples)

    def normalise(self, wall: float) -> float:
        """``wall`` without the probes, at the probe's nominal speed."""
        if not self.samples:  # too short to be probed: take it as it is
            return wall
        return (wall - self.probe_s) * self.nominal_s / statistics.fmean(self.samples)
