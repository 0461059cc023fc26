"""Source checks: every error the package raises is a typed ``RfpcaError``,
the package uses no NumPy name newer than the declared minimum, one
function drives every EM run, one call makes every stage transition, and
the E-step record carries only what its readers read."""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_allocator_settings(path):
    # the EM loop reuses its one large temporary (the E-step's product
    # buffer), so no module reaches for the C allocator's process-wide
    # settings, which library callers would not get
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]] + [alias.name for alias in node.names]
        else:  # a name, an attribute or a string
            names = [getattr(node, key, None) for key in ("id", "attr", "value")]
        found += [f"{path.name}:{node.lineno} names {name}" for name in names
                  if name in ("ctypes", "mallopt")]
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
        self.estep_reads: list[tuple[str, str]] = []  # e.<attr>, e being an E-step

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
        if isinstance(node.value, ast.Name) and node.value.id == "e":
            self.estep_reads.append((node.attr, self.scope[-1] if self.scope else ""))
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


def test_penalty_matrix_read_once():
    # a batch carries its penalty: nothing in the EM core reads the basis's
    # penalty matrix but the batch builder
    assert _references({"penalty_matrix"}) == [("model.py", "_batch", "penalty_matrix")]


def test_one_basis_check():
    # every (params, data) entry point reaches the E-step core through
    # _estep_at or _warm_fits, which check that model and data share a basis
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [
                    (path.name, func.name) for node in ast.walk(func)
                    if isinstance(node, ast.Constant)
                    and "different spline bases" in str(node.value)
                ]
    assert found == [("model.py", "_estep_at"), ("model.py", "_warm_fits")]
    assert all(
        "different spline bases" not in path.read_text() for path in SOURCES
        if path.name != "model.py"
    )


def test_one_stage_transition():
    # a stage ends on the model axis: new columns come from one batched
    # initializer, canonical parameters from one stacked orthonormalization
    # and one checker, so no per-model path can compute them differently
    # (test_stage_transition_is_one_call_per_stage counts the calls)
    assert _references({"_init_new_column"}) == [
        ("model.py", "_fit_lockstep", "_init_new_column")
    ]
    for name, callers in [
        ("_orthonormalize", ["_stage_results", "from_xi"]),
        ("_stage_results", ["_fit_lockstep", "fit_from"]),
        ("_params_errors", ["__post_init__", "_stage_results"]),
    ]:
        assert sorted(scope for _, scope, _ in _references({name})) == callers, name


def test_batch_sizing_stays_in_model():
    found = _references({"_models_per_batch", "_BATCH_BYTES"})
    assert found and {file for file, _, _ in found} == {"model.py"}, found


def test_estep_record_holds_what_its_readers_read():
    # every field of the E-step record is read off an E-step (``e``) outside
    # the function that builds it, and nothing else is: the record carries no
    # working array that a reader re-derives a sum from, and no alias
    from rfpca.model import _EStep

    read = set()
    for path in SOURCES:
        visitor = _References()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        read |= {name for name, scope in visitor.estep_reads if scope != "_estep"}
    assert read == set(_EStep._fields) | {"model"}
    assert _references({"_resid2"}) == []


def test_whitened_terms_are_the_one_way_to_the_estep_for_inference():
    # the sandwich and the estimating equations read the E-step and its
    # whitened terms from one call, not each from its own preamble
    core = {"_estep", "_estep_at", "_batch", "design_stats", "_model_btr", "_whitened_terms"}
    for func in ("mean_covariance", "estimating_equation_residuals"):
        assert {name for _, scope, name in _references(core) if scope == func} == {
            "_whitened_terms"
        }, func
    assert ("model.py", "_whitened_terms", "_estep_at") in _references({"_estep_at"})
