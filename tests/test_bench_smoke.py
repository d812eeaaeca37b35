"""The benchmark still runs on the package: every workload of bench/run.py,
at its smoke sizes, untraced and traced, completes and passes its own
output checks. The traced run is the one whose wrappers read the
projection's outputs and the trace's derived bills and aggregates. The
bench and the sources are copied out first, so the run writes nothing into
the checkout."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import REPO

WORKLOADS = ["canonical-n50", "scale-n2000", "small-games"]


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("results", ".work", "__pycache__", "*.egg-info")
    for name in ("bench", "src"):
        shutil.copytree(REPO / name, root / name, ignore=skip)
    return root


@pytest.mark.parametrize(
    "workload, trace",
    [pytest.param(w, "0", id=w) for w in WORKLOADS]
    + [pytest.param(w, "1", id=f"{w}-traced") for w in WORKLOADS],
)
def test_benchmark_runs_every_workload_at_smoke_size(bench_copy, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", trace, "--smoke"],
        cwd=bench_copy, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
