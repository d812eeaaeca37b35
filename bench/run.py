#!/usr/bin/env python3
"""Benchmark of the dsmgame pipeline over the CLI, solver and oracle paths.

    python3 bench/run.py --workload canonical-n50 --seed 0 --seconds 10 --trace 0
    python3 bench/smoke.py    # reduced-size self-test

Workloads (workloads.py): canonical-n50, scale-n2000, small-games. The
program is imported from src/ of the checkout this file sits in. Set-up runs
several times; then the workload's rounds of its ops run, and more rounds
until --seconds have passed (with --trace 1 traced rounds alternate with
untraced ones), and ops known to fail at the seed run once at
the end. Every op's outputs are checked.

--trace 0 reports the end-to-end metrics, from untraced ops. An op's time
is the sum of its steps (the time between two clock marks: runner start
and end, each recorded iteration or event, each game), each step taken at
its median over the op's executions in the run. Times are in nominal-host
seconds: the shared host's speed moves by up to 2x within seconds, so a
fixed reference kernel runs every 0.25 s while an op runs
(workloads.RunnerProbe) and each step's time is scaled by the reference's
nominal time over its local time:
  setup_s           median time of one set-up (generate, save, load, topology,
                    weights)
  algK_ms_per_iter  time of an alg-K op per iteration (alg 3: per event,
                    alg3_ms_per_event)
  algK_iter_per_s   iterations per second of runner time (alg3_event_per_s)
  oracle_s          time of the oracle op
  peak_rss_mb       peak resident memory before the known failures run
--trace 1 alternates untraced and traced rounds (at least one of each) and
reports the per-layer metrics of tracer.py from the traced ones, plus the
tracing overhead: each traced execution's span count times the cost of one
wrapper, measured on this machine at start. On workloads whose ops run
inside module spans it checks that the spans cover each op: the op root's
own self time stays within that overhead plus the op's garbage collection
time plus BOOKKEEPING_S in most of the op's traced executions. The measured
gap (median traced minus untraced wall of paired executions) is kept per
op and listed as unresolved where it is not above the untraced spread.

Each run writes its full record (provenance, per-op numbers, checks, failure
records) to bench/results/, and with --trace 1 the spans too. The last
stdout line is {"correct", "attempted", "failed", "metrics"}: "failed"
counts op executions that raised, exited non-zero, failed a check or
had a game whose solver raised (the other games stay timed), and
"correct" is false when an output or benchmark check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# one BLAS thread: with the main thread that stays within nproc, and a
# shared two-core machine gives steadier times without BLAS thread spin
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings above)

#: time the benchmark itself may spend around an op (output capture, the
#: outcome record, a garbage collection that falls outside the spans)
BOOKKEEPING_S = 2e-3

E2E_UNITS = {
    "setup_s": "s",
    "alg1_ms_per_iter": "ms",
    "alg2_ms_per_iter": "ms",
    "alg3_ms_per_event": "ms",
    "alg1_iter_per_s": "1/s",
    "alg2_iter_per_s": "1/s",
    "alg3_event_per_s": "1/s",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_us_per_row"):
        return "us"
    return "count"


def is_count(name: str) -> bool:
    return layer_unit(name) in ("count", "bytes")


def import_package():
    """Import dsmgame from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dsmgame

    if not Path(dsmgame.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"dsmgame imported from {dsmgame.__file__}, not from src/")
    return dsmgame


def provenance(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsmgame").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """Runs a workload's set-ups and ops, keeps one record per execution,
    the output checks and the failure records, and turns them into the
    end-to-end or per-layer metrics."""

    def __init__(self, workload, tracer, span_cost_s: float = 0.0):
        self.workload = workload
        self.tracer = tracer
        self.span_cost_s = span_cost_s
        self.executions: list[dict] = []
        self.failures: list[dict] = []
        self.digests: dict[str, tuple] = {}
        self.checks = {"run": 0, "failed": 0}
        self.bench_checks: list[str] = []
        self.unresolved: list[str] = []
        # garbage collections land wherever objects are allocated, also in
        # the benchmark's own code under an op's root span, so a traced
        # op's collection time is allowed on top of the tracing overhead
        self.gc_s = 0.0
        self._gc_start = 0.0
        gc.callbacks.append(self._time_gc)

    def _time_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def _traced(self, traced: bool, name: str, fn):
        from tracer import END, START

        if not traced:  # the caller takes the wall time from the probe
            return fn(), None, None
        self.tracer.install()
        gc_before = self.gc_s
        try:
            first = len(self.tracer.spans)
            root = self.tracer.open("bench.op", name)
            try:
                out = fn()
            finally:
                self.tracer.close(root)
        finally:
            self.tracer.uninstall()
        # the op's root span is its wall time, so self times sum to it
        wall = self.tracer.spans[root][END] - self.tracer.spans[root][START]
        return out, wall, (first, len(self.tracer.spans), self.gc_s - gc_before)

    def setup(self, traced: bool) -> None:
        # free the previous set-up's objects before the clock starts
        self.workload.state.clear()
        gc.collect()
        probe = self.workload.probe
        probe.start(sampling=not traced)
        try:
            _, wall, spans = self._traced(traced, "setup", self.workload.setup)
        finally:
            probe.stop()
        self.executions.append({
            "op": "setup", "traced": traced, "wall_s": wall if traced else probe.marks[-1] - probe.marks[0],
            "ok": True, "marks": np.array(probe.marks), "spans": spans,
        })

    def execute(self, op, rnd: int, traced: bool) -> dict:
        from workloads import digest

        def run():
            try:
                return op.run()
            except Exception as exc:  # a failed op is recorded, not fatal
                return {
                    "exit_code": None,
                    "stderr": f"{type(exc).__name__}: {exc}",
                    "exc_type": type(exc).__name__,
                }

        gc.collect()  # start every op from the same heap state
        probe = self.workload.probe
        probe.start(sampling=not traced)
        try:
            outcome, wall, spans = self._traced(traced, op.name, run)
        finally:
            probe.stop()
        if not traced:  # the probe's clock leaves out the reference runs
            wall = probe.marks[-1] - probe.marks[0]
        failed_checks = []
        if outcome["exit_code"] == 0:
            self.checks["run"] += 1
            try:
                failed_checks = op.check(outcome)
            except Exception as exc:
                failed_checks = [f"check raised {type(exc).__name__}: {exc}"]
            if "outputs" in outcome:
                self.checks["run"] += 1
                digests = tuple(digest(out) for out in outcome["outputs"])
                if digests != self.digests.setdefault(op.name, digests):
                    failed_checks.append("outputs differ from the op's first execution")
            self.checks["failed"] += bool(failed_checks)
        # an op over a batch of games keeps the games that did not raise:
        # they are checked and timed, and the op still counts as failed
        game_failures = outcome.get("game_failures", [])
        ok = outcome["exit_code"] == 0 and not failed_checks
        done = [c for c in probe.calls if "iterations" in c]
        raised = [c for c in probe.calls if "exc_type" in c]
        record = {
            "op": op.name,
            "family": op.family,
            "round": rnd,
            "traced": traced,
            "wall_s": wall,
            "ok": ok,
            "failed": not ok or bool(game_failures),
            "exit_code": outcome["exit_code"],
            "runner_s": sum(c["runner_s"] for c in probe.calls) if probe.calls else None,
            "iterations": sum(c["iterations"] for c in done) if done else None,
            # probe clock marks; runner calls own slices of the segments
            # between consecutive marks
            "marks": np.array(probe.marks),
            "runner_segments": [c["segments"] for c in done],
            "failed_segments": [c["segments"] for c in raised],
            "spans": spans,
        }
        self.executions.append(record)
        base = {
            "workload": self.workload.name,
            "op": op.name,
            "algorithm": op.algorithm,
            "round": rnd,
        }
        if not ok:
            stderr = outcome.get("stderr", "").strip().splitlines()
            self.failures.append({
                **base,
                "exit_code": outcome["exit_code"],
                "stderr": stderr[0] if stderr else "",
                "exception": outcome.get("exc_type") or (raised[0]["exc_type"] if raised else None),
                "runner_s": record["runner_s"],
                "failed_checks": failed_checks,
            })
        for game, call in zip(game_failures, raised):
            self.failures.append({
                **base,
                "game": game["game"],
                "exit_code": None,
                "stderr": game["stderr"],
                "exception": game["exc_type"],
                "runner_s": call["runner_s"],
                "failed_checks": [],
            })
        return record

    def rounds(self, ops, seconds: float, trace: bool) -> int:
        start = time.perf_counter()
        # a traced run needs one untraced and one traced round
        least = 2 if trace else self.workload.rounds
        rnd = 0
        while True:
            traced = trace and rnd % 2 == 1  # untraced, traced, untraced, ...
            # each op's repeats are spread evenly over the round, between
            # the long ops, so that a spell of load from elsewhere on the
            # machine hits few samples of any one op; every op first runs
            # in list order, as an op may read an earlier op's output
            slots = sorted(
                (k / op.repeat, i, op)
                for i, op in enumerate(ops) for k in range(op.repeat)
            )
            for _, _, op in slots:
                self.execute(op, rnd, traced)
            rnd += 1
            paired = not trace or rnd % 2 == 0
            if paired and rnd >= least and time.perf_counter() - start >= seconds:
                return rnd

    def done(self, op: str, traced: bool) -> list[dict]:
        return [
            e for e in self.executions
            if e["op"] == op and e["traced"] == traced and e["ok"]
        ]

    def walls(self, op: str, traced: bool) -> list[float]:
        return [e["wall_s"] for e in self.done(op, traced)]

    def end_to_end(self, ops, peak_rss_mb: float) -> dict:
        probe = self.workload.probe
        metrics = {"setup_s": statistics.median(
            float(probe.scaled(e["marks"]).sum()) for e in self.done("setup", False)
        )}
        for op in ops:
            done = self.done(op.name, False)
            if not done:
                continue
            # Every execution of an op runs the same steps, so each step
            # (the time between two probe marks) is taken at its median
            # over the executions and the op's time is their sum; on a
            # shared machine neither a burst of load nor a brief quiet
            # spell then moves it.
            if len({len(e["marks"]) for e in done}) > 1:
                self.bench_checks.append(f"{op.name}: executions took different steps")
                done = done[:1]
            typical = np.median([self.workload.probe.scaled(e["marks"]) for e in done], axis=0)
            # the steps of games whose solver raised are left out
            lost = sum(float(typical[a:b].sum()) for a, b in done[0]["failed_segments"])
            op_s = float(typical.sum()) - lost
            if op.family == "oracle":
                metrics["oracle_s"] = op_s
                continue
            runner_s = sum(float(typical[a:b].sum()) for a, b in done[0]["runner_segments"])
            iterations = done[0]["iterations"]
            unit = "event" if op.family == "alg3" else "iter"
            metrics[f"{op.family}_ms_per_{unit}"] = 1e3 * op_s / iterations
            metrics[f"{op.family}_{unit}_per_s"] = iterations / runner_s
        metrics["peak_rss_mb"] = peak_rss_mb
        return metrics

    def per_layer(self, ops) -> tuple[dict, dict]:
        from tracer import layer_metrics

        per_op = {}
        totals: dict[str, float] = {}
        overhead_total = 0.0
        for name in ["setup"] + [op.name for op in ops]:
            traced = self.done(name, True)
            untraced = self.walls(name, False)
            if not traced or not untraced:
                continue
            layers = [layer_metrics(self.tracer.spans, *e["spans"][:2]) for e in traced]
            for key in layers[0]:
                if key != "self_s_by_layer" and is_count(key) and any(m[key] != layers[0][key] for m in layers):
                    self.bench_checks.append(
                        f"{name}: count {key} differs between traced executions: "
                        f"{[m[key] for m in layers]}"
                    )
            merged = {
                key: layers[0][key] if is_count(key) else statistics.median(m[key] for m in layers)
                for key in layers[0] if key != "self_s_by_layer"
            }
            # the tracing overhead of an execution is its span count times
            # the cost of one wrapper on this machine; the spans under the
            # op's root must cover its wall time up to that overhead
            overheads = [(e["spans"][1] - e["spans"][0] - 1) * self.span_cost_s for e in traced]
            gc_s = [e["spans"][2] for e in traced]
            uncovered = [m["self_s_by_layer"].get("bench", 0.0) for m in layers]
            if self.workload.ops_in_spans:
                # trips when most executions leave a gap, so that one stall
                # of the shared host does not decide
                problems = [
                    p for p in map(coverage_problem, uncovered, overheads, gc_s) if p
                ]
                if 2 * len(problems) > len(traced):
                    self.bench_checks.append(f"{name}: {problems[0]}")
            overhead = statistics.median(overheads)
            overhead_total += overhead
            # the measured gap: traced and untraced rounds alternate, so each
            # traced execution is paired with an untraced one of the same op
            # that ran next to it, and the gap is the median difference; it
            # is unresolved unless positive and above the untraced spread
            gap = statistics.median(
                t["wall_s"] - u for t, u in zip(traced, untraced[-len(traced):])
            )
            spread = max(untraced) - min(untraced)
            if not gap > spread:
                self.unresolved.append(
                    f"{name}: traced minus untraced wall {gap:.4f} s is within the "
                    f"untraced walls' spread of {spread:.4f} s"
                )
            per_op[name] = {
                "untraced_wall_s": statistics.median(untraced),
                "traced_wall_s": statistics.median(t["wall_s"] for t in traced),
                "tracing_overhead_s": overhead,
                "traced_minus_untraced_s": gap,
                "gap_resolved": gap > spread,
                "untraced_spread_s": spread,
                "uncovered_s": statistics.median(uncovered),
                "gc_s": statistics.median(gc_s),
                "self_s_by_layer": {
                    layer: statistics.median(m["self_s_by_layer"].get(layer, 0.0) for m in layers)
                    for layer in layers[-1]["self_s_by_layer"]
                },
                "layers": merged,
            }
            for key, value in merged.items():
                totals[key] = totals.get(key, 0) + value
        rows = totals.get("feasible.project_rows", 0)
        feas_s = totals.get("feasible.project_step_s", 0.0) + totals.get("feasible.project_probe_s", 0.0)
        totals["feasible.project_us_per_row"] = 1e6 * feas_s / rows if rows else 0.0
        totals["bench.tracing_overhead_s"] = overhead_total
        return totals, per_op


def coverage_problem(uncovered_s: float, overhead_s: float, gc_s: float = 0.0) -> str | None:
    """The module spans under an op must account for its wall time: the
    op root's own self time, which no module span covers, stays within the
    tracing overhead, the op's garbage collection time and the benchmark's
    bookkeeping around the op. Returns what is wrong, or None."""
    allowance = overhead_s + gc_s + BOOKKEEPING_S
    if uncovered_s > allowance:
        return (
            f"{uncovered_s:.6f} s of the op is outside every module span, more than "
            f"the tracing overhead {overhead_s:.6f} s, garbage collection {gc_s:.6f} s "
            f"and bookkeeping {BOOKKEEPING_S} s"
        )
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        from tracer import Tracer, span_cost_s
        from workloads import WORKLOADS, RunnerProbe
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    info = provenance(args)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    results_dir = BENCH_DIR / "results"
    workdir.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    probe = RunnerProbe()
    probe.install()
    workload = WORKLOADS[args.workload](args.workload, args.seed, workdir, probe, smoke=args.smoke)
    bench = Bench(workload, Tracer(), span_cost_s() if args.trace else 0.0)
    try:
        for _ in range(workload.setup_runs):
            bench.setup(False)
        if args.trace:
            bench.setup(True)
        ops = workload.ops()
        n_rounds = bench.rounds(ops, args.seconds, bool(args.trace))
        probe.reference()  # so that the last op has a reference after it
        # before the known failures, so the peak covers successful ops only
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for op in workload.known_failures():
            bench.execute(op, 0, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((BENCH_DIR / ".work").iterdir()):
            (BENCH_DIR / ".work").rmdir()

    record = {
        "provenance": info,
        "rounds": n_rounds,
        "reference_s": {"median": statistics.median(probe.ref_s), "runs": len(probe.ref_s)},
    }
    if args.trace:
        metrics, record["per_op"] = bench.per_layer(ops)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = bench.end_to_end(ops, peak_rss_mb)
        units = E2E_UNITS
    attempted = len(bench.executions)
    failed = sum(e.get("failed", False) for e in bench.executions)
    correct = bench.checks["failed"] == 0 and not bench.bench_checks
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(
        metrics=metrics,
        checks={**bench.checks, "benchmark": bench.bench_checks, "unresolved": bench.unresolved},
        failures=bench.failures,
        executions=[
            {k: v for k, v in e.items() if k not in ("spans", "marks", "runner_segments", "failed_segments")}
            for e in bench.executions
        ],
        raw_op_wall_s={
            op.name: statistics.median(w) for op in ops if (w := bench.walls(op.name, False))
        },
    )
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        bench.tracer.dump(f"{stem}.spans.jsonl.gz")

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for op, wall in record["raw_op_wall_s"].items():
        walls = bench.walls(op, False)
        print(f"op {op}: wall median {wall:.4f} s, fastest {min(walls):.4f} s, {len(walls)} untraced runs")
    print(f"checks: {bench.checks['run']} run, {bench.checks['failed']} failed")
    for problem in bench.bench_checks:
        print(f"benchmark check failed: {problem}")
    for note in bench.unresolved:
        print(f"unresolved: {note}")
    for failure in bench.failures:
        print("failure " + json.dumps(failure, sort_keys=True))
    print(f"results: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
