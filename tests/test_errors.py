"""Every error the package raises is a typed ``RfpcaError``."""

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
