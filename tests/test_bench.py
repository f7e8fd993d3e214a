"""The benchmark's output check as a test: each workload's reference input
must still give the artifact digests pinned in ``bench/digests.json``, so a
change to an artifact's bits fails here, not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["wan_gauss", "toy_attn", "desk_batch"])
def test_bench_reports_pinned_digests(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0.05"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
