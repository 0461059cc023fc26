"""In-memory span recorder that wraps rfpca's public layer functions.

Tracing is done from outside the package: while a ``Tracer`` is active, each
public function listed in ``BINDINGS`` is replaced, at every module or class
attribute through which rfpca itself calls it, by a wrapper that records a
span (name, start, end, parent, op id).  Leaving the ``with`` block restores
the original objects, so untraced operations run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _fit_info(tracer, args, kwargs, result) -> dict:
    tracer.last_fit = (args[0] if args else kwargs["data"], result)
    return {"iters": [s.iterations for s in result.stages], "converged": bool(result.converged)}


def _fit_from_info(tracer, args, kwargs, result) -> dict:
    return {"iters": [result.iterations], "converged": bool(result.converged)}


def _select_info(tracer, args, kwargs, result) -> dict:
    criterion = args[2] if len(args) > 2 else kwargs.get("criterion")
    return {"criterion": str(criterion).lower()}


def _diagnostics_info(tracer, args, kwargs, result) -> dict:
    return {"flagged": sum(1 for d in result if d.outlier_flag)}


# span name -> (every place rfpca looks the function up, the first being
# where it is defined; optional recorder of facts taken from the call and its
# result).  A binding a later version of the package lacks is skipped with a
# warning.
BINDINGS = {
    "cli.read_long_csv": ([("cli", "read_long_csv")], None),
    "cli.ingest": ([("cli", "ingest")], None),
    "cli.save_model": ([("cli", "save_model")], None),
    "cli.load_model": ([("cli", "load_model")], None),
    "basis.design_matrix": ([("basis", "SplineBasis.design_matrix")], None),
    "model.design_matrices": ([("model", "Dataset.design_matrices")], None),
    "model.design_stats": ([("model", "Dataset.design_stats")], None),
    "model.drop": ([("model", "Dataset.drop")], None),
    "model.fit": (
        [("model", "fit"), ("cli", "fit"), ("selection", "fit"), ("simulate", "fit")],
        _fit_info,
    ),
    "model.fit_from": ([("model", "fit_from"), ("selection", "fit_from")], _fit_from_info),
    "model.log_likelihood": (
        [("model", "log_likelihood"), ("selection", "log_likelihood"),
         ("simulate", "log_likelihood")],
        None,
    ),
    "selection.select_dimension": (
        [("selection", "select_dimension"), ("cli", "select_dimension")], _select_info,
    ),
    "selection.cross_validate": ([("selection", "cross_validate")], None),
    "diagnostics.curve_diagnostics": (
        [("diagnostics", "curve_diagnostics"), ("cli", "curve_diagnostics")], _diagnostics_info,
    ),
    "diagnostics.mean_confidence_band": (
        [("diagnostics", "mean_confidence_band"), ("cli", "mean_confidence_band")], None,
    ),
    "diagnostics.mean_covariance": ([("diagnostics", "mean_covariance")], None),
    "simulate.monte_carlo": ([("simulate", "monte_carlo")], None),
    "simulate.simulate_dataset": ([("simulate", "simulate_dataset")], None),
    "simulate.error_norms": ([("simulate", "error_norms")], None),
}


def _resolve(modules: dict, module: str, path: str):
    """Return (owner object, attribute name) for 'Class.attr' or 'attr'."""
    owner = modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Records spans in memory while active; ``op`` tags each span."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._missing: set[str] = set()
        self.last_fit = None  # (Dataset, FitResult) of the latest traced fit

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body, nested in the open span."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func, note):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
            if note is not None:
                span.info = note(self, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (sites, note) in BINDINGS.items():
            owner, attr = _resolve(self.modules, *sites[0])
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self._missing.add(name)
                continue
            if isinstance(original, cached_property):
                wrapped = cached_property(self._wrap(name, original.func, note))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._wrap(name, original, note)
            for site_mod, site_path in sites:
                site, site_attr = _resolve(self.modules, site_mod, site_path)
                if site is not None and site.__dict__.get(site_attr) is original:
                    self._saved.append((site, site_attr, original))
                    setattr(site, site_attr, wrapped)
        if self._missing:
            print(f"perfbench: untraced (not found): {sorted(self._missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        self._saved.clear()
        self._missing.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per layer: span durations minus their direct children's."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s.op == op and s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.op == op:
                out[s.layer] = out.get(s.layer, 0.0) + s.duration - child.get(i, 0.0)
        return out

    def under(self, index: int, name: str) -> bool:
        """True when span ``index`` has an ancestor called ``name``."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                }) + "\n")
