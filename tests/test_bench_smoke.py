"""The benchmark's stream-hosts workload at smoke size: its scans and K5/K3,3
tests on G(8, p) hosts must pass the bench's own independent oracles."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_stream_hosts_smoke_run_is_correct():
    pytest.importorskip("networkx")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--workload", "stream-hosts", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
