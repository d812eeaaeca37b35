"""Solver runner tests: trivial cases, oracle agreement, invariants,
error handling, and trace output."""

import numpy as np
import pytest

from dsmgame.algorithms import (
    RunTrace,
    Scenario,
    StepSchedule,
    fixed_point_residual,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
)
from dsmgame.feasible import ConsumerSpec, sample_feasible
from dsmgame.model import PriceCurve, mapping_profiles
from dsmgame.network import CommGraph, build_weights, generate_topology, gossip_stream
from dsmgame.oracle import nash_best_response_iteration
from conftest import make_toy_game
from oracles import reference_trace_csv

COMPLETE_2 = CommGraph(2, frozenset({(0, 1)}))


def singleton_scenario(n=3):
    specs = tuple(
        ConsumerSpec(np.array([0.0]), np.array([10.0]), float(1 + k))
        for k in range(n)
    )
    curve = PriceCurve(np.array([0.5]), np.array([1.2]), np.array([0.0]))
    return Scenario(specs, curve)


def toy_graph(scenario, seed=0):
    if scenario.n_consumers == 2:
        return COMPLETE_2
    return generate_topology(
        scenario.n_consumers, 2.5, np.random.default_rng(seed)
    )


# --- Scenario ----------------------------------------------------------------


def test_scenario_rejects_invalid_spec():
    bad = ConsumerSpec(np.array([0.0]), np.array([1.0]), 5.0)
    curve = PriceCurve(np.array([1.0]), np.array([1.2]), np.array([0.0]))
    with pytest.raises(ValueError, match="consumer 0"):
        Scenario((bad,), curve)


def test_scenario_rejects_horizon_mismatch():
    spec = ConsumerSpec(np.zeros(2), np.ones(2), 1.0)
    curve = PriceCurve(np.array([1.0]), np.array([1.2]), np.array([0.0]))
    with pytest.raises(ValueError, match="horizon"):
        Scenario((spec,), curve)


def test_scenario_certificate_warning_flag():
    spec = ConsumerSpec(np.zeros(1), np.full(1, 4.0), 2.0)
    steep = PriceCurve(np.array([0.5]), np.array([8.0]), np.array([0.0]))
    scenario = Scenario((spec, spec), steep)
    assert not scenario.uniqueness_verified
    # solvers still run on such scenarios
    init = np.full((2, 1), 2.0)
    result, _ = run_algorithm1(scenario, init=init, max_iter=5)
    assert not result.uniqueness_verified


# --- StepSchedule -------------------------------------------------------------


def test_power_decay_values_and_conditions():
    sched = StepSchedule.power_decay(0.51)
    assert sched(1) == 1.0
    assert sched(16) == pytest.approx(16.0 ** -0.51)
    assert sched.satisfies_diminishing_conditions
    assert not StepSchedule.power_decay(0.4).satisfies_diminishing_conditions
    assert not StepSchedule.power_decay(1.3).satisfies_diminishing_conditions


def test_constant_schedule_not_square_summable():
    sched = StepSchedule.constant(0.1)
    assert sched(7) == 0.1
    assert not sched.satisfies_diminishing_conditions


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StepSchedule.power_decay(0.0)
    with pytest.raises(ValueError):
        StepSchedule.constant(-1.0)
    with pytest.raises(ValueError):
        StepSchedule("bogus")


# --- central proximal-point ---------------------------------------------------


def test_alg1_singleton_sets_converge_immediately():
    scenario = singleton_scenario()
    init = np.array([[1.0], [2.0], [3.0]])
    result, trace = run_algorithm1(scenario, init=init, tol=1e-9)
    assert result.converged
    assert result.iterations == 1
    assert result.residual == 0.0
    np.testing.assert_array_equal(result.final_profiles, init)


def test_alg1_matches_best_response_oracle_on_toy():
    scenario, init = make_toy_game(606)
    oracle_ne = nash_best_response_iteration(scenario, tol=1e-8)
    result, _ = run_algorithm1(scenario, init=init, tol=1e-7, max_iter=5000)
    assert result.converged
    assert np.max(np.abs(result.final_profiles - oracle_ne)) <= 1e-4


def test_alg1_rejects_infeasible_init():
    scenario = singleton_scenario()
    with pytest.raises(ValueError, match="infeasible"):
        run_algorithm1(scenario, init=np.array([[5.0], [2.0], [3.0]]))


def test_alg1_rejects_bad_theta_and_schedule():
    scenario = singleton_scenario()
    init = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match="theta"):
        run_algorithm1(scenario, theta=0.0, init=init)
    with pytest.raises(ValueError, match="schedule"):
        run_algorithm1(scenario, schedule=StepSchedule.constant(0.1), init=init)


def test_alg1_trace_profiles_stay_feasible():
    scenario, init = make_toy_game(707)
    _, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=2000)
    assert trace.max_feasibility_violation(scenario) <= 1e-8


# --- synchronous agreement ----------------------------------------------------


def uniform_weights(n):
    return np.full((n, n), 1.0 / n)


def complete_graph(n):
    return CommGraph(n, frozenset((a, b) for a in range(n) for b in range(a + 1, n)))


def test_alg2_complete_graph_first_mixing_is_exact_average():
    scenario, init = make_toy_game(808)
    n = scenario.n_consumers
    graph = complete_graph(n)
    _, trace = run_algorithm2(
        scenario, graph, uniform_weights(n), init=init, tol=1e-9, max_iter=1
    )
    # estimate(2) - (q(2) - q(1)) recovers the mixed estimate, which equals
    # the true average profile exactly under uniform weights
    mixed = trace.estimates[1] - (trace.profiles[1] - trace.profiles[0])
    np.testing.assert_allclose(
        mixed, np.tile(init.mean(axis=0), (n, 1)), atol=1e-12
    )


def test_alg2_matches_alg1_on_toy():
    scenario, init = make_toy_game(909)
    graph = toy_graph(scenario)
    weights = build_weights(graph, 0.5)
    r1, _ = run_algorithm1(scenario, init=init, tol=1e-7, max_iter=5000)
    r2, _ = run_algorithm2(
        scenario, graph, weights, init=init, tol=1e-7, max_iter=5000
    )
    assert r2.converged
    assert np.max(np.abs(r2.final_profiles - r1.final_profiles)) <= 1e-3


def test_alg2_rejects_non_doubly_stochastic_weights():
    scenario, init = make_toy_game(111)
    graph = toy_graph(scenario)
    w = build_weights(graph, 0.5)
    w = w.copy()
    w[0, 0] += 0.01
    with pytest.raises(ValueError, match="doubly stochastic"):
        run_algorithm2(scenario, graph, w, init=init)


def test_alg2_rejects_weights_off_the_graph():
    scenario, init = make_toy_game(131)  # three consumers
    n = scenario.n_consumers
    graph = generate_topology(n, 1.0, np.random.default_rng(1))  # spanning tree
    non_edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (a, b) not in graph.edges
    ]
    if not non_edges:
        pytest.skip("random graph came out complete")
    w = build_weights(graph, 0.5).copy()
    a, b = non_edges[0]
    shift = 0.05
    w[a, b] += shift
    w[b, a] += shift
    w[a, a] -= shift
    w[b, b] -= shift
    with pytest.raises(ValueError, match="non-neighbors"):
        run_algorithm2(scenario, graph, w, init=init)


def test_alg2_conservation_identity():
    scenario, init = make_toy_game(131)
    graph = toy_graph(scenario)
    _, trace = run_algorithm2(
        scenario, graph, build_weights(graph, 0.5), init=init, tol=1e-8,
        max_iter=3000,
    )
    assert trace.max_conservation_gap() <= 1e-9


def test_synchronous_rounds_replay_exactly_by_hand():
    # rebuild every round of both synchronous runners from the recorded
    # states; round 1's proximal term is exactly 0 and round 3 is the first
    # to need an advanced q(t-1). This game's projections leave room in
    # rounds 1 and 3, so a nonzero first term or a stale q(t-1) shows.
    scenario, init = make_toy_game(17)
    graph = toy_graph(scenario)
    w = build_weights(graph, 0.5)
    gamma = StepSchedule.power_decay()
    curve = scenario.curve
    _, t1 = run_algorithm1(scenario, theta=0.2, init=init, tol=0.0, max_iter=3)
    _, t2 = run_algorithm2(scenario, graph, w, init=init, tol=0.0, max_iter=3)
    assert t1.iterations == t2.iterations == 4

    q = t1.profiles
    for t in (1, 2, 3):
        q_prev = q[max(t - 2, 0)]
        grad = mapping_profiles(q[t - 1], q[t - 1].sum(axis=0), curve)
        prox = 0.2 * (q[t - 1] - q_prev)
        expected = scenario.project(q[t - 1] - gamma(t) * (grad + prox))
        np.testing.assert_array_equal(q[t], expected)

    q, est = t2.profiles, t2.estimates
    for t in (1, 2, 3):
        mixed = w @ est[t - 1]
        grad = mapping_profiles(q[t - 1], scenario.n_consumers * mixed, curve)
        expected = scenario.project(q[t - 1] - gamma(t) * grad)
        np.testing.assert_array_equal(q[t], expected)
        np.testing.assert_array_equal(est[t], mixed + expected - q[t - 1])


# --- asynchronous gossip ------------------------------------------------------


def test_alg3_matches_oracle_with_invariants():
    scenario, init = make_toy_game(999)
    graph = toy_graph(scenario)
    events = gossip_stream(graph, np.random.default_rng(4), 6000)
    oracle_ne = nash_best_response_iteration(scenario, tol=1e-8)
    result, trace = run_algorithm3(
        scenario, graph, events, init=init, tol=1e-6, max_events=6000
    )
    assert np.max(np.abs(result.final_profiles - oracle_ne)) <= 1e-3
    assert trace.max_conservation_gap() <= 1e-9
    assert trace.max_feasibility_violation(scenario) <= 1e-8


def test_alg3_frequency_step_size_rule():
    # with two nodes every event updates both consumers, so at event t each
    # has made t updates and steps with 1/t; replay event 4 by hand
    scenario, init = make_toy_game(909)
    assert scenario.n_consumers == 2
    graph = COMPLETE_2
    events = list(gossip_stream(graph, np.random.default_rng(4), 4))
    _, trace = run_algorithm3(
        scenario, graph, iter(events), init=init, tol=0.0, max_events=4
    )
    q3 = trace.profiles[3]
    est3 = trace.estimates[3]
    avg = 0.5 * (est3[0] + est3[1])
    from dsmgame.feasible import project

    for n in range(2):
        grad = mapping_profiles(q3[n], 2 * avg, scenario.curve)
        expected = project(q3[n] - grad / 4.0, scenario.specs[n])
        np.testing.assert_allclose(trace.profiles[4][n], expected, atol=1e-12)


def test_alg3_rejects_non_edge_events():
    scenario, init = make_toy_game(131)  # three consumers
    n = scenario.n_consumers
    graph = generate_topology(n, 1.0, np.random.default_rng(5))  # spanning tree
    non_edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (a, b) not in graph.edges
    ]
    if not non_edges:
        pytest.skip("random graph came out complete")
    from dsmgame.network import GossipEvent

    bad = [GossipEvent(1, non_edges[0][0], non_edges[0][1])]
    with pytest.raises(ValueError, match="not an edge"):
        run_algorithm3(scenario, graph, iter(bad), init=init, max_events=1)


# --- fixed-point residual -----------------------------------------------------


def test_residual_zero_at_singleton_point():
    scenario = singleton_scenario()
    init = np.array([[1.0], [2.0], [3.0]])
    assert fixed_point_residual(init, scenario) == 0.0


def test_residual_small_at_oracle_equilibrium():
    scenario, _ = make_toy_game(232)
    ne = nash_best_response_iteration(scenario, tol=1e-7)
    assert fixed_point_residual(ne, scenario) <= 1e-6


def test_residual_positive_off_equilibrium():
    rng = np.random.default_rng(6)
    scenario, _ = make_toy_game(242)
    ne = nash_best_response_iteration(scenario, tol=1e-7)
    for _ in range(20):
        point = np.vstack([sample_feasible(s, rng) for s in scenario.specs])
        if np.max(np.abs(point - ne)) > 1e-3:
            assert fixed_point_residual(point, scenario) > 0


def test_residual_soundness_at_converged_outputs():
    tol = 1e-5
    for seed in (11, 303, 707):
        scenario, init = make_toy_game(seed)
        graph = toy_graph(scenario)
        r1, _ = run_algorithm1(scenario, init=init, tol=tol, max_iter=3000)
        r2, _ = run_algorithm2(
            scenario, graph, build_weights(graph, 0.5), init=init, tol=tol,
            max_iter=3000,
        )
        for res in (r1, r2):
            assert res.converged
            assert fixed_point_residual(res.final_profiles, scenario) <= 10 * tol


# --- determinism and trace format ----------------------------------------------


def test_identical_runs_produce_identical_trace_files(tmp_path):
    scenario, init = make_toy_game(333)
    graph = toy_graph(scenario)
    paths = []
    for k in (0, 1):
        events = gossip_stream(graph, np.random.default_rng(12), 800)
        _, trace = run_algorithm3(
            scenario, graph, events, init=init, tol=1e-6, max_events=800
        )
        path = tmp_path / f"trace{k}.csv"
        trace.to_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_csv_format(tmp_path):
    scenario, init = make_toy_game(444)
    result, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=50)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    h = scenario.horizon
    expected_header = "t,n,cost,residual," + ",".join(
        f"q{k}" for k in range(1, h + 1)
    )
    assert lines[0] == expected_header
    assert len(lines) == 1 + trace.iterations * scenario.n_consumers
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"


def _assert_same_csv_bytes(trace, tmp_path):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    trace.to_csv(ours)
    reference_trace_csv(trace, ref)
    assert ours.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("alg", [1, 2, 3])
def test_trace_csv_bytes_match_reference_writer(tmp_path, alg):
    scenario, init = make_toy_game(555)
    graph = toy_graph(scenario)
    if alg == 1:
        _, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=60)
    elif alg == 2:
        _, trace = run_algorithm2(
            scenario, graph, build_weights(graph, 0.5), init=init, tol=1e-6,
            max_iter=60,
        )
    else:
        events = gossip_stream(graph, np.random.default_rng(3), 300)
        _, trace = run_algorithm3(
            scenario, graph, events, init=init, tol=1e-6, max_events=300
        )
    assert trace.iterations > 2
    _assert_same_csv_bytes(trace, tmp_path)


def test_trace_csv_bytes_match_reference_on_edge_cases(tmp_path):
    # a repeated state, a 0.0 -> -0.0 flip (equal under ==, not in bytes),
    # a change in only the last slot, and a NaN that stays put
    q1 = np.array([[0.0, 1.5, 2.25], [3.0, np.nan, 1e-300]])
    q2 = q1.copy()
    q3 = q1.copy()
    q3[0, 0] = -0.0
    q4 = q3.copy()
    q4[1, 2] = 0.1 + 0.2
    trace = RunTrace(
        profiles=[q1, q2, q3, q4],
        bills=[np.array([1.0, -2.5]), np.array([1.0, -2.5]),
               np.array([0.3, 1e20]), np.array([-0.0, np.inf])],
        residuals=[np.float64(0.5), 0.5, float("nan"), 1e-17],
    )
    _assert_same_csv_bytes(trace, tmp_path)
    lines = (tmp_path / "ours.csv").read_bytes().split(b"\r\n")
    assert lines[5] == b"3,1,0.3,nan,-0.0,1.5,2.25"
    assert lines[8] == b"4,2,inf,1e-17,3.0,nan,0.30000000000000004"


def test_alg3_two_nodes_agrees_with_alg2():
    # with two consumers every event averages both estimates, reducing the
    # gossip run to pairwise-synchronized updates with 1/t steps
    scenario, init = make_toy_game(909)
    assert scenario.n_consumers == 2
    weights = build_weights(COMPLETE_2, 0.5)
    r2, _ = run_algorithm2(
        scenario, COMPLETE_2, weights, init=init, tol=1e-7, max_iter=4000
    )
    events = gossip_stream(COMPLETE_2, np.random.default_rng(8), 4000)
    r3, _ = run_algorithm3(
        scenario, COMPLETE_2, events, init=init, tol=1e-6, max_events=4000
    )
    assert np.max(np.abs(r3.final_profiles - r2.final_profiles)) <= 1e-3
