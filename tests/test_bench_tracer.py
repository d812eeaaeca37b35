"""The benchmark's traced mode (bench/tracer.py) still sees the runners:
its wrappers are installed over the package as the benchmark installs them,
and the per-layer counts it reports must match what the runs did."""

import importlib.util
from pathlib import Path

import numpy as np

import dsmgame.algorithms as algorithms
import dsmgame.network as network
from conftest import make_toy_game

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def direct_children(spans, parent_name, child_name):
    """Per span named `parent_name`, how many direct children it has
    named `child_name`."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == parent_name}
    for s in spans:
        if s[0] == child_name and s[1] in counts:
            counts[s[1]] += 1
    return list(counts.values())


def test_tracer_layer_metrics_count_every_runner(tmp_path):
    tracer_mod = load_tracer()
    scenario, init = make_toy_game(555)
    graph = network.generate_topology(
        scenario.n_consumers, 2.5, np.random.default_rng(0)
    )
    weights = network.build_weights(graph, 0.5)
    events = 300
    original = algorithms.run_algorithm1
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        r1, t1 = algorithms.run_algorithm1(scenario, init=init, tol=1e-6, max_iter=40)
        r2, _ = algorithms.run_algorithm2(
            scenario, graph, weights, init=init, tol=1e-6, max_iter=40
        )
        stream = network.gossip_stream(graph, np.random.default_rng(3), events)
        r3, _ = algorithms.run_algorithm3(
            scenario, graph, stream, init=init, tol=1e-6, max_events=events
        )
        t1.to_csv(tmp_path / "trace1.csv")
    finally:
        tracer.uninstall()
    assert algorithms.run_algorithm1 is original

    spans = tracer.spans
    metrics = tracer_mod.layer_metrics(spans, 0, len(spans))
    runs = (r1, r2, r3)
    assert metrics["algorithms.iterations"] == sum(r.iterations for r in runs)
    # one recorded state per round or event, plus the initial state
    assert metrics["algorithms.record_calls"] == sum(r.iterations + 1 for r in runs)
    assert metrics["algorithms.residual_calls"] > 0
    assert metrics["algorithms.trace_mem_bytes"] > 0
    assert metrics["algorithms.trace_rows"] == t1.iterations * scenario.n_consumers
    assert metrics["network.events"] == r3.iterations
    # the synchronous rounds nest their mapping, residual probe and record
    # spans directly under the runner's span
    for name, result in (("algorithms.alg1", r1), ("algorithms.alg2", r2)):
        n = result.iterations
        assert direct_children(spans, name, "model.mapping") == [n]
        assert direct_children(spans, name, "algorithms.residual") == [n + 1]
        assert direct_children(spans, name, "algorithms.record") == [n + 1]
