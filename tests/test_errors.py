"""Source checks: every error the package raises is a typed ``RfpcaError``,
the package uses no NumPy name newer than the declared minimum, one
function drives every EM run, only warm starts accelerate it, and one call
makes every stage transition."""

import ast
from pathlib import Path

import pytest

import rfpca

BUILTIN_ERRORS = {"ValueError", "RuntimeError", "KeyError"}
SOURCES = sorted(Path(rfpca.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_error_raised(path):
    # subclasses of RfpcaError are also ValueError or RuntimeError, so
    # callers catching the builtins keep working; a bare builtin escapes
    # the CLI's typed-error handling and ends in a traceback
    bare = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
            bare.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert not bare, bare


# Names that exist only from NumPy 2.0 (or later); pyproject.toml declares
# numpy >= 1.24, so src/ must not use them. Array methods of the same name
# (``x.astype``) are older and allowed: only lookups on the numpy module count.
NUMPY2_ONLY = {
    "vecdot", "matrix_transpose", "permute_dims", "concat", "pow", "astype",
    "unique_values", "unique_counts", "unique_inverse", "unique_all",
    "cumulative_sum", "cumulative_prod", "isdtype", "unstack", "matvec", "vecmat",
    "acos", "acosh", "asin", "asinh", "atan", "atanh", "atan2",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
}
NUMPY2_ONLY_LINALG = {
    "vecdot", "matrix_transpose", "matrix_norm", "vector_norm", "svdvals",
    "diagonal", "trace", "outer", "cross", "matmul", "tensordot",
}


def _numpy_path(node) -> str | None:
    """'numpy' or 'numpy.linalg' for a lookup through np / numpy, else None."""
    if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
        return "numpy"
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and _numpy_path(node.value) == "numpy"
    ):
        return "numpy.linalg"
    return None


def _numpy2_uses(source: str, filename: str) -> list[str]:
    forbidden = {"numpy": NUMPY2_ONLY, "numpy.linalg": NUMPY2_ONLY_LINALG}
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute):
            module, names = _numpy_path(node.value), [node.attr]
        elif isinstance(node, ast.ImportFrom):
            module, names = node.module, [alias.name for alias in node.names]
        else:
            continue
        found += [
            f"{filename}:{node.lineno} uses {module}.{name}"
            for name in names
            if name in forbidden.get(module, ())
        ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy2_only_names(path):
    found = _numpy2_uses(path.read_text(), path.name)
    assert not found, found


def test_numpy2_guard_sees_module_lookups_only():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svdvals\n"
        "np.vecdot(a, b)\n"
        "np.linalg.vector_norm(a)\n"
        "x.astype(float)\n"
        "pow(2, 3)\n"
    )
    assert _numpy2_uses(source, "t.py") == [
        "t.py:2 uses numpy.linalg.svdvals",
        "t.py:3 uses numpy.vecdot",
        "t.py:4 uses numpy.linalg.vector_norm",
    ]


class _References(ast.NodeVisitor):
    """Every use of a name in a module (a name, an attribute or an imported
    name), as (name, innermost enclosing function or "")."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _record(self, name: str) -> None:
        self.found.append((name, self.scope[-1] if self.scope else ""))

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Name(self, node):
        self._record(node.id)

    def visit_Attribute(self, node):
        self._record(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._record(alias.name)


def _references(names: set[str]) -> list[tuple[str, str, str]]:
    """(file, enclosing function, name) of every use of ``names`` in src/."""
    found = []
    for path in SOURCES:
        visitor = _References()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.name, scope, name) for name, scope in visitor.found if name in names]
    return found


def test_one_em_driver():
    # every EM run (fit, warm starts, CV refits, Monte Carlo batches) goes
    # through _lockstep_stage, so a change to the loop is made in one place
    assert _references({"_em_loop"}) == [("model.py", "_lockstep_stage", "_em_loop")]
    # every M-step runs in that loop (em_step too), and a failing model
    # leaves its batch there: nothing reruns a stage
    assert _references({"_mstep"}) == [("model.py", "_em_loop", "_mstep")]
    callers = {scope for _, scope, _ in _references({"_lockstep_stage"})}
    assert callers == {"_fit_lockstep", "_warm_fits"}


def _stage_calls() -> dict[str, list[ast.Call]]:
    """The ``_lockstep_stage`` calls in model.py, by enclosing function."""
    tree = ast.parse((Path(rfpca.__file__).parent / "model.py").read_text())
    calls: dict[str, list[ast.Call]] = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            calls[func.name] = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lockstep_stage"
            ]
    return calls


def test_stage_fits_stay_plain_em():
    # SqS3 cycles run only for warm starts, which begin near a maximum;
    # _fit_lockstep's stages (fit, selection chains, the Monte Carlo
    # tables) pass only the five arguments before ``accelerate``, so no
    # stage fit is accelerated
    calls = _stage_calls()
    (stage,) = calls["_fit_lockstep"]
    assert len(stage.args) == 5 and not stage.keywords
    (warm,) = calls["_warm_fits"]
    keywords = [(k.arg, ast.literal_eval(k.value)) for k in warm.keywords]
    assert keywords == [("accelerate", True)]


def test_one_stage_transition():
    # a stage ends on the model axis: new columns come from one batched
    # initializer, canonical parameters from one stacked orthonormalization
    # and one checker, so no per-model path can compute them differently
    # (test_stage_transition_is_one_call_per_stage counts the calls)
    assert _references({"_init_new_column"}) == [
        ("model.py", "_fit_lockstep", "_init_new_column")
    ]
    for name, callers in [
        ("_orthonormalize", ["_stage_results", "orthonormalize"]),
        ("_stage_results", ["_fit_lockstep", "fit_from"]),
        ("_params_errors", ["__post_init__", "_stage_results"]),
    ]:
        assert sorted(scope for _, scope, _ in _references({name})) == callers, name


def test_batch_sizing_stays_in_model():
    found = _references({"_models_per_batch", "_BATCH_BYTES"})
    assert found and {file for file, _, _ in found} == {"model.py"}, found
