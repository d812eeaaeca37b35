#!/usr/bin/env python3
"""Smoke self-test of the benchmark at reduced sizes.

    python3 bench/smoke.py

For every workload it runs bench/run.py --smoke untraced and traced twice,
and asserts that every metric BENCHMARK.json names is emitted with its unit,
that output checks ran and passed, and that the count metrics repeat exactly
between the two traced runs. It also asserts that the benchmark fails
without printing a result when the program's sources are absent, that
the coverage check of traced ops trips on spans that leave a gap, and that
the host-speed scaling integrates a step over the reference's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 300


def run(root: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_workload(spec: dict, workload: str) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = []
    for trace, wanted in ((0, e2e), (1, layers), (1, layers)):
        proc, result = run(ROOT, workload, trace)
        assert result is not None, f"{workload} trace {trace} failed:\n{proc.stderr}"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(wanted)}"
        assert result["correct"], f"{workload} trace {trace}: an output check failed"
        assert result["attempted"] >= 1
        record = json.loads(
            (BENCH_DIR / "results" / f"{workload}-seed1-trace{trace}.json").read_text()
        )
        assert record["checks"]["run"] > 0, f"{workload}: no output checks ran"
        if trace:
            counts.append({
                name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "bytes")
            })
    assert counts[0] == counts[1], f"{workload}: counts differ between runs: {counts}"
    print(f"smoke {workload}: ok")


def check_without_sources() -> None:
    bare = BENCH_DIR / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns(".work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, result = run(bare, "canonical-n50", 0)
        assert proc.returncode != 0 and result is None, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("smoke without sources: fails as it should")


def check_coverage() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import run

    run.import_package()
    from tracer import layer_metrics

    def uncovered(child_end: float) -> float:
        # an op root of 1 s with one module span from 0 to child_end
        spans = [["bench.op", -1, 0.0, 1.0, None], ["cli.main", 0, 0.0, child_end, None]]
        return layer_metrics(spans, 0, len(spans))["self_s_by_layer"]["bench"]

    assert run.coverage_problem(uncovered(0.5), 0.01) is not None, "a 0.5 s gap passed"
    assert run.coverage_problem(uncovered(1.0), 0.01) is None, "full coverage failed"
    print("smoke coverage check: trips on a gap")


def check_scaling() -> None:
    import numpy as np
    from workloads import REF_NOMINAL_S, RunnerProbe

    # reference runs each second: at the nominal time, then twice as slow
    probe = RunnerProbe()
    probe.ref_at = [float(k) for k in range(10)]
    probe.ref_s = [REF_NOMINAL_S] * 5 + [2 * REF_NOMINAL_S] * 5
    got = probe.scaled(np.array([0.0, 2.0, 8.0]))
    # the speed halves halfway between the runs at 4 s and 5 s
    assert np.allclose(got, [2.0, 2.5 + 3.5 / 2]), got
    print("smoke scaling: ok")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_coverage()
    check_scaling()
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
