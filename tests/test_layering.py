"""Module layering: every import in the package sits at module level, so each
module's dependencies show in its header and no deferred import can hide a
cycle (minors, for one, must not reach up into cdv); and the package imports
only the standard library, numpy and itself, so test oracles such as
networkx never become runtime dependencies, and the tests only what the test
extra declares besides; only graph and spectral import numpy, and only
through graph._lazy_import, so importing the package does not load it; no
module reads the environment; graph alone owns the packed bit format and
the walk that ORs rows over a vertex set; no exception handler swallows
what it catches; and no source line quotes a timing, which goes stale on
other hardware and belongs in the bench records."""

import ast
import re
import sys
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


def _statement_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def _lazy_roots(tree):
    # graph._lazy_import("name") imports name on first use; its argument is
    # a literal, so the layering checks read it as they read an import
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_lazy_import"):
            yield ast.literal_eval(node.args[0]).split(".")[0], node.lineno


def _imported_roots(tree):
    yield from _statement_roots(tree)
    yield from _lazy_roots(tree)


def test_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "spectralminors"}
    found = []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} imports {root}"
                  for root, line in _imported_roots(tree) if root not in allowed]
    assert not found, "imports outside the standard library and numpy: " + ", ".join(found)


def test_only_graph_and_spectral_import_numpy():
    # numpy is most of a fresh process's import time, and the minor,
    # planarity, canon, cdv, families, search and cli layers work on the bit
    # rows alone: they reach numpy only through graph and spectral, which
    # import it lazily, so only a solve or a packed graph loads it
    importers, eager = set(), []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(root == "numpy" for root, _ in _imported_roots(tree)):
            importers.add(path.name)
        eager += [f"{path.name}:{line}" for root, line in _statement_roots(tree)
                  if root == "numpy"]
    assert importers == {"graph.py", "spectral.py"}
    assert not eager, "numpy imported at import time: " + ", ".join(eager)


def _importorskips(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "importorskip" and node.args
                and isinstance(node.args[0], ast.Constant)):
            yield node.args[0].value.split(".")[0], node.lineno


def test_tests_import_only_declared_dependencies():
    # tier-1 needs only what the test extra declares (pytest, networkx)
    # besides numpy and the package: scipy and sympy are installed here and
    # there, so an import of either would pass where it is and fail elsewhere
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "networkx", "spectralminors",
                                              "helpers"}
    sources = sorted(Path(__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} imports {root}"
                  for root, line in (*_imported_roots(tree), *_importorskips(tree))
                  if root not in allowed]
    assert not found, "test imports outside the declared dependencies: " + ", ".join(found)


def _environment_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv", "putenv")):
            yield f"os.{node.attr}", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv", "putenv"):
                    yield f"os.{alias.name}", node.lineno


def test_package_reads_no_environment():
    # every setting is a function argument or a command line option, so the
    # same call gives the same answer whatever the environment holds
    found = []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} reads {name}" for name, line in _environment_reads(tree)]
    assert not found, "environment reads: " + ", ".join(found)


_BIT_FORMAT_NAMES = ("packbits", "unpackbits", "_BLOCK", "_from_packed")


def _bit_format_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _BIT_FORMAT_NAMES:
            yield node.attr, node.lineno
        elif isinstance(node, ast.Name) and node.id in ("_BLOCK", "_from_packed"):
            yield node.id, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _BIT_FORMAT_NAMES:
                    yield alias.name, node.lineno


def test_graph_alone_owns_the_bit_format():
    # the packed rows, their slab height and the bit order are graph's: other
    # modules ask it for what they need (spectral for its edge arrays), so a
    # change of format or slab height stays inside one module, and only graph
    # builds a Graph from packed bytes
    found = []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        if path.name != "graph.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{line} uses {name}" for name, line in _bit_format_uses(tree)]
    assert not found, "bit format used outside graph.py: " + ", ".join(found)


def _row_unions(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
                and isinstance(node.value, ast.Subscript)):
            base = node.value.value
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            if name.endswith("rows"):
                yield node.lineno


def test_graph_alone_walks_neighbourhoods():
    # the union of the bit rows over a vertex set, its neighbourhood, is
    # graph._nbhd's: no other module ORs a row into an accumulator, so the
    # flood, the bipartite layers, the backtracker and verify_witness share
    # one walk
    found = []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        if path.name != "graph.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{line}" for line in _row_unions(tree)]
    assert not found, "rows ORed outside graph._nbhd: " + ", ".join(found)


def _silent_handlers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and all(
                isinstance(stmt, (ast.Continue, ast.Pass)) for stmt in node.body):
            yield node.lineno


def test_no_handler_swallows_its_exception():
    # a handler whose body is only continue or pass reads every exception of
    # its type as an answer, a fault in the code under it included
    found = []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _silent_handlers(tree)]
    assert not found, "handlers whose body is only continue or pass: " + ", ".join(found)


# a figure in milliseconds, microseconds or seconds, or a machine's core count
_TIMING = re.compile(r"\d\s?(ms|us)\b|\d s\b|2-core")


def test_src_quotes_no_timings():
    # docstrings and comments keep each invariant and reason; the measured
    # figures live in the BENCH_*.json records and CHANGES.md
    found = []
    for path in sorted(Path(spectralminors.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        found += [f"{path.name}:{i}" for i, line in enumerate(lines, 1) if _TIMING.search(line)]
    assert not found, "timings quoted in the source: " + ", ".join(found)
