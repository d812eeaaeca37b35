"""In-memory span tracer that wraps the public entry points of each dsmgame
module from outside the package.

A span is [name, parent index, start, end, info]. Spans are appended when
they open, so a parent always precedes its children and one forward pass
computes self times (a span's duration minus its children's durations).
Nothing is written while tracing; `dump` writes the spans at the end.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time

import numpy as np

import dsmgame.algorithms as algorithms
import dsmgame.cli as cli
import dsmgame.feasible as feasible
import dsmgame.model as model
import dsmgame.network as network
import dsmgame.oracle as oracle
import dsmgame.scenario as scenario

NAME, PARENT, START, END, INFO = range(5)


def _rows(args, kwargs, out):
    return int(out.shape[0]) if out.ndim == 2 else 1


def _run_info(args, kwargs, out):
    result, trace = out
    arrays = [*trace.profiles, *trace.bills, *trace.aggregates, *(trace.estimates or ())]
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "trace_mem_bytes": sum(a.nbytes for a in arrays),
    }


def _csv_info(args, kwargs, out):
    trace, path = args[0], args[1]
    rows = len(trace.profiles) * trace.profiles[0].shape[0]
    return {"rows": rows, "bytes": os.path.getsize(path)}


# (owner, attribute, span name, info extractor); module functions are
# replaced in every dsmgame module that imported them by name
TARGETS = (
    (model, "mapping_profiles", "model.mapping", None),
    (model.PriceCurve, "price_vector", "model.price", None),
    (model.PriceCurve, "price_derivative_vector", "model.price", None),
    (feasible, "project", "feasible.project", None),
    (feasible, "project_rows", "feasible.project_rows", _rows),
    (algorithms, "run_algorithm1", "algorithms.alg1", _run_info),
    (algorithms, "run_algorithm2", "algorithms.alg2", _run_info),
    (algorithms, "run_algorithm3", "algorithms.alg3", _run_info),
    (algorithms, "fixed_point_residual", "algorithms.residual", None),
    (algorithms.RunTrace, "record", "algorithms.record", None),
    (algorithms.RunTrace, "to_csv", "algorithms.to_csv", _csv_info),
    (network, "generate_topology", "network.topology", None),
    (network, "build_weights", "network.weights", None),
    (oracle, "nash_best_response_iteration", "oracle.nash", None),
    (oracle, "best_response", "oracle.best_response", None),
    (oracle, "social_welfare_optimum", "oracle.welfare", None),
    (oracle, "fairness_comparison", "oracle.fairness", None),
    (scenario, "generate", "scenario.generate", None),
    (scenario, "save_scenario", "scenario.save", None),
    (scenario, "load_scenario", "scenario.load", None),
    (cli, "main", "cli.main", None),
)
EVENT_SPAN = "network.event"


def replace_everywhere(owner, attr: str, new) -> list[tuple[object, str, object]]:
    """Set `owner.attr` to `new`; for a module function, also in every
    dsmgame module that imported it by name. Returns what was replaced."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        holders = [owner]
    else:
        holders = [
            mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "dsmgame" and getattr(mod, attr, None) is original
        ]
    for holder in holders:
        setattr(holder, attr, new)
    return [(holder, attr, original) for holder in holders]


class Tracer:
    """Collects spans while installed; `install`/`uninstall` swap the
    wrappers in and out so untraced rounds run the unmodified code."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info_fn is not None:
                rec[INFO] = info_fn(args, kwargs, out)
            return out

        return traced

    def _wrap_stream(self, fn):
        # one span per event pulled from the gossip generator; the final
        # pull that ends the stream carries info None and is not an event
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            events = fn(*args, **kwargs)
            while True:
                rec = [EVENT_SPAN, stack[-1] if stack else -1, clock(), 0.0, None]
                spans.append(rec)
                try:
                    event = next(events)
                except StopIteration:
                    rec[END] = clock()
                    return
                rec[END] = clock()
                rec[INFO] = 1
                yield event

        return traced

    def install(self) -> None:
        for owner, attr, name, info_fn in TARGETS:
            wrapper = self._wrap(getattr(owner, attr), name, info_fn)
            self._saved += replace_everywhere(owner, attr, wrapper)
        wrapper = self._wrap_stream(network.gossip_stream)
        self._saved += replace_everywhere(network, "gossip_stream", wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def open(self, name: str, info=None) -> int:
        """Open a span from benchmark code (the op root)."""
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        assert self._stack.pop() == idx

    def dump(self, path) -> None:
        """Write every span as one JSON line [name, parent, start, end, info]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_cost_s(calls: int = 10_000, trials: int = 5) -> float:
    """Time one traced wrapper adds to a call on this machine: a wrapped
    no-op against the plain one, each at its fastest of a few trials."""
    tracer = Tracer()

    def noop():
        return None

    def fastest(fn) -> float:
        times = []
        for _ in range(trials):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    wrapped = tracer._wrap(noop, "calibration", None)
    return max(0.0, (fastest(wrapped) - fastest(noop)) / calls)


def layer_metrics(spans: list[list], first: int, last: int) -> dict:
    """Per-layer counts and times over spans[first:last], which must hold
    whole op trees (every parent index is -1 or inside the slice)."""
    sub = spans[first:last]
    n = len(sub)
    dur = np.array([s[END] - s[START] for s in sub])
    parent = np.array([s[PARENT] - first if s[PARENT] >= 0 else -1 for s in sub])
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    names = [s[NAME] for s in sub]
    # a projection is a residual probe when a residual span encloses it
    in_probe = np.zeros(n, dtype=bool)
    for i, (name, p) in enumerate(zip(names, parent)):
        if p >= 0:
            in_probe[i] = in_probe[p] or names[p] == "algorithms.residual"

    def pick(*wanted):
        return np.array([nm in wanted for nm in names], dtype=bool)

    def total(mask, values=dur):
        return float(values[mask].sum())

    def info_sum(name, key=None):
        out = 0
        for s in sub:
            if s[NAME] == name and s[INFO] is not None:
                out += s[INFO] if key is None else s[INFO][key]
        return out

    # outermost feasible spans only, so project -> project_rows counts once
    feas = pick("feasible.project", "feasible.project_rows")
    outer_feas = feas & ~np.array(
        [p >= 0 and names[p].startswith("feasible.") for p in parent], dtype=bool
    )
    rows = info_sum("feasible.project_rows")
    feas_s = total(outer_feas)
    runs = [s for s in sub if s[NAME] in ("algorithms.alg1", "algorithms.alg2", "algorithms.alg3")]
    out = {
        "feasible.project_calls": int(pick("feasible.project_rows").sum()),
        "feasible.project_rows": int(rows),
        "feasible.project_step_s": total(outer_feas & ~in_probe),
        "feasible.project_probe_s": total(outer_feas & in_probe),
        "feasible.project_us_per_row": 1e6 * feas_s / rows if rows else 0.0,
        "algorithms.residual_calls": int(pick("algorithms.residual").sum()),
        "algorithms.residual_s": total(pick("algorithms.residual")),
        "algorithms.record_calls": int(pick("algorithms.record").sum()),
        "algorithms.record_s": total(pick("algorithms.record")),
        "algorithms.trace_mem_bytes": int(sum(s[INFO]["trace_mem_bytes"] for s in runs if s[INFO])),
        "algorithms.to_csv_s": total(pick("algorithms.to_csv")),
        "algorithms.trace_rows": int(info_sum("algorithms.to_csv", "rows")),
        "algorithms.trace_csv_bytes": int(info_sum("algorithms.to_csv", "bytes")),
        "algorithms.alg1_self_s": total(pick("algorithms.alg1"), self_time),
        "algorithms.alg2_self_s": total(pick("algorithms.alg2"), self_time),
        "algorithms.alg3_self_s": total(pick("algorithms.alg3"), self_time),
        "algorithms.iterations": int(sum(s[INFO]["iterations"] for s in runs if s[INFO])),
        "algorithms.converged": int(sum(s[INFO]["converged"] for s in runs if s[INFO])),
        "model.mapping_calls": int(pick("model.mapping").sum()),
        "model.mapping_s": total(pick("model.mapping")),
        "model.price_calls": int(pick("model.price").sum()),
        "model.price_s": total(pick("model.price")),
        "network.topology_s": total(pick("network.topology")),
        "network.weights_s": total(pick("network.weights")),
        "network.events": int(info_sum(EVENT_SPAN)),
        "network.event_gen_s": total(pick(EVENT_SPAN)),
        "oracle.nash_s": total(pick("oracle.nash")),
        "oracle.best_response_calls": int(pick("oracle.best_response").sum()),
        "oracle.best_response_s": total(pick("oracle.best_response")),
        "oracle.welfare_s": total(pick("oracle.welfare")),
        "oracle.fairness_s": total(pick("oracle.fairness")),
        "scenario.generate_s": total(pick("scenario.generate")),
        "scenario.save_s": total(pick("scenario.save")),
        "scenario.load_s": total(pick("scenario.load")),
        "cli.self_s": total(pick("cli.main"), self_time),
    }
    by_layer: dict[str, float] = {}
    for name, st in zip(names, self_time):
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + float(st)
    out["self_s_by_layer"] = by_layer
    return out
