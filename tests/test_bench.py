"""The benchmark's output check as a test: each workload's reference input
must still give the artifact digests pinned in ``bench/digests.json``, so a
change to an artifact's bits fails here, not only in a benchmark run. The
traced mode is run too, so its span bookkeeping check and its counts of
draws, velocity evaluations and SAR calls per edit are pinned."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ["wan_gauss", "toy_attn", "desk_batch"]

# per edit: (core.sample_gaussian.calls, backends.velocity.calls, sar.apply_sar.calls)
TRACED_CALLS = {
    "wan_gauss": (2, 4, 0),
    "toy_attn": (23, 46, 23),
    "desk_batch": (23, 46, 23),
}


def _bench(workload, *args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    return proc.stdout, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_reports_pinned_digests(workload):
    _bench(workload, "--seconds", "0.05")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bench_keeps_its_books_and_counts(workload):
    stdout, result = _bench(workload, "--seconds", "1", "--trace", "1")
    # printed only once the layer self times add up to the edits' wall time
    assert any(line.startswith("trace: ") for line in stdout.splitlines()), stdout
    metrics = result["metrics"]
    names = ("core.sample_gaussian.calls", "backends.velocity.calls", "sar.apply_sar.calls")
    assert tuple(metrics[name]["value"] for name in names) == TRACED_CALLS[workload]
