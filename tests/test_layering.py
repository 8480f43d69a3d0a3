"""Module layering: every import in the package sits at module level, so each
module's dependencies show in its header and no deferred import can hide a
cycle (minors, for one, must not reach up into cdv)."""

import ast
from pathlib import Path

import spectralminors


def _function_imports(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


def test_no_function_level_imports():
    sources = sorted(Path(spectralminors.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} in {name}()" for name, line in _function_imports(tree)]
    assert not found, "function-level imports: " + ", ".join(found)
