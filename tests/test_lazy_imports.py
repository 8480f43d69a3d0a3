"""Deferred imports, each checked in a fresh interpreter: numpy runs only at
the first solve or the first graph on the packed path, multiprocessing only
at the first scan that starts a pool, and a missing numpy still fails at
import time, not inside a later solve."""

import os
import subprocess
import sys
from pathlib import Path

import spectralminors

_SRC = str(Path(spectralminors.__file__).parents[1])

# reports what a fresh process has run so far: a lazily imported module sits
# in sys.modules as it is, but runs (and imports its submodules) only when an
# attribute is first read
_LOADED = '''
import sys, types

def loaded(name):
    return (type(sys.modules.get(name)) is types.ModuleType
            or any(m.startswith(name + ".") for m in sys.modules))
'''


def _run(probe: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-c", _LOADED + probe], env=env, timeout=120,
                          capture_output=True, text=True)


def test_bit_row_work_never_runs_numpy():
    proc = _run('''
import spectralminors.cli
from spectralminors import (classify_mu, complete, delta_y_closure, encode_graph6,
                            enumerate_graphs, has_minor, linkless_obstructions,
                            outerplanar_obstructions, parse_graph6, path, petersen,
                            planar_obstructions)
from spectralminors.graph import WALK_MAX
assert not loaded("numpy")
atlas = list(enumerate_graphs(7))
assert len(atlas) == 1044
obstructions = outerplanar_obstructions() + planar_obstructions() + linkless_obstructions()
assert len(obstructions) == 11
assert classify_mu(petersen()).value == 5
assert has_minor(complete(5), petersen()) is not None
assert len(delta_y_closure(complete(6))) == 7
for g in atlas + list(obstructions) + [complete(WALK_MAX), path(WALK_MAX)]:
    assert parse_graph6(encode_graph6(g)) == g
for argv in (["mu", "Petersen"], ["minor", "--h", "K5", "Petersen"], ["dy"],
             ["report-problems", "--max-n", "6"]):
    assert spectralminors.cli.main(argv) == 0
assert not loaded("numpy"), sorted(m for m in sys.modules if m.startswith("numpy"))
''')
    assert proc.returncode == 0, proc.stderr


def test_serial_scan_never_runs_multiprocessing():
    proc = _run('''
from spectralminors import FamilySpec, scan_family
from spectralminors.cli import main
assert not loaded("multiprocessing")
scan_family(FamilySpec.kr_minor_free(4), 6, jobs=1)
assert main(["search", "--family", "kr", "--r", "4", "--n", "6", "--jobs", "1"]) == 0
assert not loaded("multiprocessing")
''')
    assert proc.returncode == 0, proc.stderr


def test_first_solve_and_large_graph_load_numpy():
    proc = _run('''
import hashlib
from spectralminors import encode_graph6, parse_graph6, path, petersen, spectral_radius
from spectralminors import graph, spectral
assert not loaded("numpy")
assert repr(spectral_radius(petersen()).lam) == "3.0"
assert loaded("numpy")
assert type(graph.np) is types.ModuleType
assert graph.np is spectral.np is sys.modules["numpy"]
s = encode_graph6(path(300))
assert hashlib.sha256(s.encode()).hexdigest() == (
    "0bc5930310bb1d1fc1dc84617dcafe68ec85452296680d95c67176859c291982")
assert parse_graph6(s) == path(300)
assert repr(spectral_radius(path(300)).lam) == "1.9998910661603508"
''')
    assert proc.returncode == 0, proc.stderr


def test_missing_numpy_fails_at_import():
    # a meta-path finder that finds no numpy, whatever the finders behind it
    # find: importing the package must fail there, naming numpy
    proc = _run('''
class HideNumpy:
    def __init__(self, finders):
        self.finders = finders

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            return None
        for finder in self.finders:
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                return spec
        return None

sys.meta_path[:] = [HideNumpy(list(sys.meta_path))]
try:
    import spectralminors
except ModuleNotFoundError as exc:
    assert exc.name == "numpy" and "numpy" in str(exc), exc
else:
    raise AssertionError("spectralminors imported without numpy")
''')
    assert proc.returncode == 0, proc.stderr
