"""All four benchmark workloads at smoke size, each against the bench's own
independent oracles: stream-hosts (scans and K5/K3,3 tests on G(8, p) hosts),
atlas-scan (scans over the n = 6 atlas, whose graph count and pairwise
non-isomorphism the bench checks with networkx), large-spectral (joins on
65-200 vertices and P40, against closed forms and networkx) and cli (fresh
sml processes, among them search --jobs 2 on the process pool and
report-problems); and the traced mode, which wraps the package's public
functions by name and so breaks if one of them is renamed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def smoke_run(workload: str, *extra: str) -> dict:
    pytest.importorskip("networkx")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--workload", workload, "--seconds", "1",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_stream_hosts_smoke_run_is_correct():
    result = smoke_run("stream-hosts")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_atlas_scan_smoke_run_is_correct():
    result = smoke_run("atlas-scan")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_cli_smoke_run_is_correct():
    result = smoke_run("cli")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_large_spectral_smoke_run_is_correct():
    result = smoke_run("large-spectral")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    result = smoke_run("stream-hosts", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    names = [m["name"] for m in manifest["per_layer"]]
    assert len(names) == 49
    assert set(result["metrics"]) == set(names)
