"""Solver runner tests: trivial cases, oracle agreement, invariants,
error handling, and trace output."""

import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dsmgame._numtext as numtext
import dsmgame.algorithms as algorithms
from dsmgame.algorithms import (
    DEFAULT_EXPONENT,
    RunTrace,
    Scenario,
    fixed_point_residual,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
)
from dsmgame._numtext import CHUNK, RowTexts, float_texts, row_texts
from dsmgame.feasible import ConsumerSpec, is_feasible, sample_feasible
from dsmgame.model import PriceCurve, mapping_profiles
from dsmgame.network import (
    CommGraph,
    GossipEvent,
    build_weights,
    generate_topology,
    gossip_stream,
    mix,
)
from dsmgame.oracle import nash_best_response_iteration
from dsmgame.scenario import generate
from conftest import AVX2_ENV, STAR_5, make_toy_game, src_env
import oracles
from oracles import (
    dense_weights,
    reference_gossip,
    reference_synchronous,
    reference_trace_csv,
    slot_weights,
)

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
    curve = PriceCurve(np.array([1.0]), np.array([1.2]), np.array([0.0]))
    # an empty set cannot be built, so it never reaches a scenario
    with pytest.raises(ValueError, match="outside feasible range"):
        Scenario((ConsumerSpec(np.array([0.0]), np.array([1.0]), 5.0),), curve)
    with pytest.raises(ValueError, match="at least one consumer"):
        Scenario((), curve)


def test_scenario_rejects_horizon_mismatch():
    spec = ConsumerSpec(np.zeros(2), np.ones(2), 1.0)
    curve = PriceCurve(np.array([1.0]), np.array([1.2]), np.array([0.0]))
    with pytest.raises(ValueError, match="horizon"):
        Scenario((spec,), curve)


@pytest.mark.parametrize(
    "a, b, q_max",
    [
        # slot 2's price
        ([1.0, 1.0], [1.0, 2.0], [[1.0, 1e200], [1.0, 1e200]]),
        # slot 2's mapping p' q_max + p, not its price or grid cost
        ([1.0, 1e305], [1.0, 8.0], [[1.0, 2.0], [1.0, 0.0]]),
        # the grid cost of slots 1 and 2, not either slot's own
        ([1e308, 1e308], [1.0, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
    ],
)
def test_scenario_refuses_a_game_whose_prices_overflow_naming_the_slot(a, b, q_max):
    # RuntimeWarnings are errors under this suite, so none is emitted
    curve = PriceCurve(np.array(a), np.array(b), np.zeros(2))
    specs = tuple(ConsumerSpec(np.zeros(2), np.array(row), 0.5) for row in q_max)
    with pytest.raises(
        ValueError,
        match=r"^slot 2: the price, the mapping or the grid cost overflows at the "
        r"largest aggregate load",
    ):
        Scenario(specs, curve)


def test_scenario_certificate_warning_flag():
    spec = ConsumerSpec(np.zeros(1), np.full(1, 4.0), 2.0)
    steep = PriceCurve(np.array([0.5]), np.array([8.0]), np.array([0.0]))
    scenario = Scenario((spec, spec), steep)
    assert not scenario.uniqueness_verified
    # solvers still run on such scenarios
    init = np.full((2, 1), 2.0)
    result, _ = run_algorithm1(scenario, init=init, max_iter=5)
    assert result.converged


# --- step exponent -----------------------------------------------------------


def synchronous_runs(scenario, init):
    """Both synchronous runners as functions of the step exponent (and of
    further keyword arguments)."""
    graph = toy_graph(scenario)
    w = build_weights(graph, 0.5)
    return (
        lambda p, **kw: run_algorithm1(
            scenario, step_exponent=p, init=init, max_iter=2, **kw
        ),
        lambda p, **kw: run_algorithm2(
            scenario, graph, w, step_exponent=p, init=init, max_iter=2, **kw
        ),
    )


def test_power_decay_values_and_conditions():
    # t^-p has a divergent sum and summable squares iff 0.5 < p <= 1
    scenario, init = make_toy_game(17)
    for run in synchronous_runs(scenario, init):
        result, _ = run(1.0)
        assert result.iterations == 2
        for p in (0.5, 1.3):
            with pytest.raises(ValueError, match=rf"step exponent .*got {p:g}"):
                run(p)
    # round 2 steps 2^-1 = 0.5, so the exponent given is the one used
    _, trace = synchronous_runs(scenario, init)[0](1.0)
    q0, q1, q2 = trace.profiles
    grad = mapping_profiles(q1, q1.sum(axis=0), scenario.curve)
    expected = scenario.project(q1 - 0.5 * (grad + 0.2 * (q1 - q0)))
    np.testing.assert_array_equal(q2, expected)


def test_constant_schedule_not_square_summable():
    # exponent 0 is the constant step 1, whose squares do not sum
    scenario, init = make_toy_game(17)
    with pytest.raises(ValueError, match="got 0"):
        run_algorithm1(scenario, step_exponent=0.0, init=init)


def test_schedule_rejects_bad_parameters():
    scenario, init = make_toy_game(17)
    for p in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="step exponent"):
            run_algorithm1(scenario, step_exponent=p, init=init)
    # a tolerance no change can meet would spend the whole budget, and an
    # infinite one would be met at the first check
    for tol in (np.nan, -1.0, np.inf):
        for run in synchronous_runs(scenario, init):
            with pytest.raises(
                ValueError, match=f"tol must be finite and nonnegative, got {tol:g}"
            ):
                run(1.0, tol=tol)


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


def box_scenario(energies):
    """Consumers on the box [0, 1]^2 with the given budgets."""
    specs = tuple(ConsumerSpec(np.zeros(2), np.ones(2), e) for e in energies)
    curve = PriceCurve(np.ones(2), np.full(2, 1.2), np.zeros(2))
    return Scenario(specs, curve)


@pytest.mark.parametrize("bad_row, detail", [
    # both bounds broken by twice the tolerance: the first slot is named
    pytest.param(
        [1.0 + 2e-9, -2e-9], "slot 1 holds 1.000000002, q_max is 1.0", id="bad_row0"
    ),
    # the budget missed by twice the tolerance
    pytest.param(
        [0.5, 0.5 + 2e-9], "its sum 1.0000000020000002 misses the budget 1.0",
        id="bad_row1",
    ),
    pytest.param(
        [-2e-9, 1.0 + 2e-9], "slot 1 holds -2e-09, q_min is 0.0", id="bad_row2"
    ),
])
def test_init_check_names_the_first_infeasible_row(bad_row, detail):
    scenario = box_scenario([1.0] * 4)
    init = np.full((4, 2), 0.5)
    init[1] = init[3] = bad_row
    assert not is_feasible(init[1], scenario.specs[1])
    with pytest.raises(ValueError) as exc:
        run_algorithm1(scenario, init=init, max_iter=1)
    assert str(exc.value) == f"initial profile of consumer 2 is infeasible: {detail}"


def test_init_check_accepts_rows_at_the_tolerance():
    # row 1 sits 1e-9 outside both bounds; row 2's sum misses its budget
    # by exactly 1e-9 (2e-9 - 1e-9 is exact in floats)
    scenario = box_scenario([1.0, 1.0, 1e-9])
    init = np.array([[0.5, 0.5], [1.0 + 1e-9, -1e-9], [1e-9, 1e-9]])
    assert abs(init[2].sum() - 1e-9) == 1e-9
    for row, spec in zip(init, scenario.specs):
        assert is_feasible(row, spec)
    result, _ = run_algorithm1(scenario, init=init, max_iter=1)
    assert result.iterations == 1


def test_init_check_rejects_non_finite_rows():
    scenario = box_scenario([1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        run_algorithm1(scenario, init=np.array([[0.5, 0.5], [np.nan, 1.0]]))


def test_alg1_rejects_bad_theta_and_schedule():
    scenario = singleton_scenario()
    init = np.array([[1.0], [2.0], [3.0]])
    # a NaN or infinite proximal weight used to run every round into NaN
    for theta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            run_algorithm1(scenario, theta=theta, init=init)
    with pytest.raises(ValueError, match="step exponent"):
        run_algorithm1(scenario, step_exponent=0.4, init=init)


def test_alg1_trace_profiles_stay_feasible():
    scenario, init = make_toy_game(707)
    _, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=2000)
    assert trace.max_feasibility_violation(scenario) <= 1e-8


# --- synchronous agreement ----------------------------------------------------


def uniform_weights(n):
    # the complete graph has n slots in each of its n rows
    return np.full(n * n, 1.0 / n)


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
    w[graph.starts[0]] += 0.01
    with pytest.raises(ValueError, match="doubly stochastic"):
        run_algorithm2(scenario, graph, w, init=init)


def test_alg2_weight_check_decisions():
    # five one-slot consumers on the star, hub node 0
    specs = tuple(ConsumerSpec(np.array([0.0]), np.array([10.0]), 1.0) for _ in range(5))
    scenario, init = Scenario(specs, singleton_scenario().curve), np.ones((5, 1))
    w = build_weights(STAR_5, 0.5)
    hub_to_leaf, leaf_to_hub = STAR_5.starts[0] + 1, STAR_5.starts[1] + 1

    def run(weights):
        return run_algorithm2(scenario, STAR_5, weights, init=init, max_iter=1)

    def moved(value):
        # edge (0, 1) set to `value` both ways, its ends' own slots keeping
        # every row and column sum at 1
        bad = w.copy()
        for slot, own in ((hub_to_leaf, 0), (leaf_to_hub, 1)):
            bad[STAR_5.starts[own]] += bad[slot] - value
            bad[slot] = value
        return bad

    run(w)
    nan = w.copy()
    nan[0] = np.nan
    for weights, message in (
        (nan, "non-finite"),
        (moved(-1e-9), "negative"),
        (np.where(np.arange(w.size) == hub_to_leaf, 0.3, w), "doubly stochastic"),
    ):
        with pytest.raises(ValueError, match=message):
            run(weights)
    # a negative entry within the tolerance passes when the sums hold
    run(moved(-1e-13))


def test_alg2_refuses_weights_of_the_wrong_length_by_name():
    scenario, init = make_toy_game(131)  # three consumers
    graph = toy_graph(scenario)
    w = build_weights(graph, 0.5)
    # an N x N matrix, as the weights once were, is refused like a short vector
    for bad in (dense_weights(graph, w), w[:-1], np.append(w, 0.0)):
        with pytest.raises(ValueError, match="weights must hold one value per graph slot"):
            run_algorithm2(scenario, graph, bad, init=init)


def test_alg2_weight_checks_allocate_no_n_by_n_temporary():
    # alg 2's weights, their checks and its mixing are O(N + E): a round's
    # peak stays far below a quarter of one N x N float64 array
    n = 400
    specs = tuple(
        ConsumerSpec(np.array([0.0]), np.array([10.0]), 1.0 + k % 5) for k in range(n)
    )
    scenario = Scenario(specs, singleton_scenario().curve)
    graph = generate_topology(n, 3.0, np.random.default_rng(0))
    w = build_weights(graph, 0.5)
    init = np.array([[spec.energy] for spec in specs])
    run_algorithm2(scenario, graph, w, init=init, max_iter=1)
    tracemalloc.start()
    try:
        run_algorithm2(scenario, graph, w, init=init, max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 // 4


def test_alg2_round_at_n20000_stays_in_o_n_memory():
    # a dense W would be 3.2 GB here; the ring is built directly, since the
    # generator's list of non-edges is O(N^2) as well
    n = 20_000
    specs = tuple(
        ConsumerSpec(np.array([0.0]), np.array([10.0]), 1.0 + k % 5) for k in range(n)
    )
    scenario = Scenario(specs, singleton_scenario().curve)
    ring = CommGraph(n, frozenset((k, k + 1) for k in range(n - 1)) | {(0, n - 1)})
    w = build_weights(ring, 0.5)
    init = np.array([[spec.energy] for spec in specs])
    tracemalloc.start()
    try:
        result, trace = run_algorithm2(scenario, ring, w, init=init, max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 1 and trace.iterations == 2
    assert peak < 32 * 2**20


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
    curve = scenario.curve
    _, t1 = run_algorithm1(scenario, theta=0.2, init=init, tol=0.0, max_iter=3)
    assert t1.iterations == 4

    q = t1.profiles
    for t in (1, 2, 3):
        q_prev = q[max(t - 2, 0)]
        grad = mapping_profiles(q[t - 1], q[t - 1].sum(axis=0), curve)
        prox = 0.2 * (q[t - 1] - q_prev)
        step = float(t) ** -DEFAULT_EXPONENT
        expected = scenario.project(q[t - 1] - step * (grad + prox))
        np.testing.assert_array_equal(q[t], expected)

    # build_weights is symmetric, so it cannot tell W from its transpose;
    # half the identity plus half the cyclic shift on the 4-cycle can
    assert scenario.n_consumers == 4
    cycle = CommGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    shift = slot_weights(cycle, 0.5 * (np.eye(4) + np.roll(np.eye(4), 1, axis=1)))
    for graph, w in ((graph, build_weights(graph, 0.5)), (cycle, shift)):
        _, t2 = run_algorithm2(scenario, graph, w, init=init, tol=0.0, max_iter=3)
        assert t2.iterations == 4
        q, est = t2.profiles, t2.estimates
        for t in (1, 2, 3):
            mixed = mix(graph, w, est[t - 1], np.empty((w.size, q[0].shape[1])))
            grad = mapping_profiles(q[t - 1], scenario.n_consumers * mixed, curve)
            step = float(t) ** -DEFAULT_EXPONENT
            expected = scenario.project(q[t - 1] - step * grad)
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
    states = list(trace.states())
    q3, est3 = states[3]
    avg = 0.5 * (est3[0] + est3[1])
    from dsmgame.feasible import project

    for n in range(2):
        grad = mapping_profiles(q3[n], 2 * avg, scenario.curve)
        expected = project(q3[n] - grad / 4.0, scenario.specs[n])
        np.testing.assert_allclose(states[4][0][n], expected, atol=1e-12)


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
    bad = [GossipEvent(1, non_edges[0][0], non_edges[0][1])]
    with pytest.raises(ValueError, match="not an edge"):
        run_algorithm3(scenario, graph, iter(bad), init=init, max_events=1)


# --- negative pricing proxy ---------------------------------------------------
#
# Under the 1/count gossip steps, and under consensus tracking at large N, an
# estimate of the average profile dips below zero for a while. The runners
# price against N * estimate clamped at zero; these runs raised "loads must
# be nonnegative" before the clamp.


def bench_small_game(game_seed: int, init_rng):
    """A small game drawn as the benchmark's small-games workload draws it;
    only the initial point comes from `init_rng`."""
    rng = np.random.default_rng(game_seed)
    n = int(rng.integers(2, 5))
    h = int(rng.integers(2, 4))
    return draw_game(rng, n, h, init_rng)


def draw_game(rng, n, h, init_rng):
    """An N x H game drawn from `rng`, its initial point from `init_rng`."""
    curve = PriceCurve(
        rng.uniform(1.0, 2.2, h), rng.choice([1.0, 1.2], h), rng.uniform(0, 0.1, h)
    )
    specs = []
    for _ in range(n):
        q_min = rng.uniform(0.3, 0.8, h)
        q_max = q_min + rng.uniform(1.0, 2.0, h)
        energy = float(q_min.sum() + rng.uniform(0.35, 0.65) * (q_max - q_min).sum())
        specs.append(ConsumerSpec(q_min, q_max, energy))
    init = np.vstack([sample_feasible(s, init_rng) for s in specs])
    return Scenario(tuple(specs), curve), init


def min_estimate(trace) -> float:
    """The smallest estimate entry the trace recorded: below zero, the
    runs priced against a clamped proxy."""
    return min(float(entry.min()) for entry in trace.estimates)


@pytest.mark.parametrize("seed, game", [(16, 4), (16, 6), (33, 10)])
def test_alg3_survives_a_negative_proxy_on_small_games(seed, game):
    scenario, init = bench_small_game(game, np.random.default_rng((seed, game)))
    graph = complete_graph(scenario.n_consumers)
    events = gossip_stream(graph, np.random.default_rng((seed, game, 3)), 2500)
    result, trace = run_algorithm3(
        scenario, graph, events, init=init, tol=1e-6, max_events=2500
    )
    oracle_ne = nash_best_response_iteration(scenario, tol=1e-7)
    assert np.max(np.abs(result.final_profiles - oracle_ne)) <= 1e-3
    assert min_estimate(trace) < 0.0
    assert trace.max_conservation_gap() <= 1e-9
    assert trace.max_feasibility_violation(scenario) <= 1e-8


def test_alg3_survives_a_negative_proxy_at_n500():
    # the CLI's draws for `run --alg 3 --topology random --degree 3 --seed 0`
    scenario, init = generate(n_consumers=500, seed=7)
    rng = np.random.default_rng(0)
    graph = generate_topology(500, 3.0, rng)
    events = gossip_stream(graph, rng, 700)
    result, trace = run_algorithm3(
        scenario, graph, events, init=init, tol=1e-4, max_events=700
    )
    assert result.iterations == 700
    assert min_estimate(trace) < 0.0
    assert trace.max_conservation_gap() <= 1e-9


def test_alg2_survives_a_negative_proxy_at_n2000():
    # the CLI's draws for `run --alg 2 --topology random --degree 3 --seed 0`
    scenario, init = generate(n_consumers=2000, seed=7)
    graph = generate_topology(2000, 3.0, np.random.default_rng(0))
    result, trace = run_algorithm2(
        scenario, graph, build_weights(graph, 0.5), init=init, tol=1e-4, max_iter=20
    )
    assert result.iterations == 20
    assert min_estimate(trace) < 0.0
    assert trace.max_conservation_gap() <= 1e-9
    assert trace.max_feasibility_violation(scenario) <= 1e-8


# --- batched gossip against the event-by-event loop ------------------------------
#
# run_algorithm3 computes the events between two residual checks level by
# level: an event's level is one more than the highest level among the
# earlier events on its nodes, and each level is one batch.
# oracles.reference_gossip is the loop it replaced, one event at a time.


class CountingStream:
    """An event stream that counts the events pulled from it."""

    def __init__(self, events):
        self.events = list(events)
        self.pulled = 0

    def __iter__(self):
        for event in self.events:
            self.pulled += 1
            yield event


def gossip_case(name):
    """(scenario, init, graph, events, tol) of a named gossip run."""
    if name.startswith("small-"):
        seed, game = map(int, name.split("-")[1:])
        scenario, init = bench_small_game(game, np.random.default_rng((seed, game)))
        graph = complete_graph(scenario.n_consumers)
        rng = np.random.default_rng((seed, game, 3))
        return scenario, init, graph, list(gossip_stream(graph, rng, 2500)), 1e-6
    if name == "n50":
        scenario, init = generate(seed=7)
        rng = np.random.default_rng(0)
        graph = generate_topology(50, 3.0, rng)
        return scenario, init, graph, list(gossip_stream(graph, rng, 600)), 1e-4
    if name == "n120":
        # levels of tens of events, several windows of them
        scenario, init = generate(n_consumers=120, seed=3)
        rng = np.random.default_rng(1)
        graph = generate_topology(120, 3.0, rng)
        return scenario, init, graph, list(gossip_stream(graph, rng, 400)), 1e-4
    if name == "star":
        # every event touches the hub, so every level holds one event
        rng = np.random.default_rng(46)
        scenario, init = draw_game(rng, 6, 3, rng)
        graph = CommGraph(6, frozenset((0, k) for k in range(1, 6)))
        events = list(gossip_stream(graph, np.random.default_rng(6), 1500))
        return scenario, init, graph, events, 1e-3
    n, h, tol = {
        "n2": (2, 3, 1e-3), "n3": (3, 2, 1e-3), "n4": (4, 3, 1e-3),
        "n7": (7, 3, 0.05), "n16": (16, 3, 1e-3),
    }[name]
    rng = np.random.default_rng(40 + n)
    scenario, init = draw_game(rng, n, h, rng)
    graph = toy_graph(scenario)
    events = list(gossip_stream(graph, np.random.default_rng(n), 1500))
    return scenario, init, graph, events, tol


def assert_same_run(run, reference):
    """Two runs with the same bits in every result field and trace entry."""
    (r1, t1), (r2, t2) = run, reference
    assert _same_bits(r1.final_profiles, r2.final_profiles)
    assert (r1.iterations, r1.converged) == (r2.iterations, r2.converged)
    assert _same_bits(r1.residual, r2.residual)
    assert _same_bits(r1.fixed_point_residual, r2.fixed_point_residual)
    assert t1.iterations == t2.iterations == r1.iterations + 1
    for name in ("profiles", "estimates", "bills", "aggregates", "residuals"):
        entries1, entries2 = getattr(t1, name), getattr(t2, name)
        assert (entries1 is None) == (entries2 is None), name
        for e1, e2 in zip(entries1 or (), entries2 or (), strict=True):
            assert _same_bits(e1, e2), name
    assert t1.changed_rows == t2.changed_rows
    assert t1.partial == t2.partial
    for (q1, e1), (q2, e2) in zip(t1.states(), t2.states(), strict=True):
        assert _same_bits(q1, q2) and _same_bits(e1, e2)


def run_both(scenario, graph, events, init, tol, max_events):
    """Both loops on one event list; returns their runs and pull counts."""
    runs, pulled = [], []
    for runner in (run_algorithm3, reference_gossip):
        stream = CountingStream(events)
        runs.append(runner(scenario, graph, stream, init=init, tol=tol,
                           max_events=max_events))
        pulled.append(stream.pulled)
    return runs, pulled


GOSSIP_CASES = ["n2", "n3", "n4", "n7", "n16", "n50", "n120", "star",
                "small-16-4", "small-16-6", "small-33-10"]


@pytest.mark.parametrize("name", GOSSIP_CASES)
def test_alg3_batches_match_the_event_by_event_loop(name):
    scenario, init, graph, events, tol = gossip_case(name)
    budgets = {len(events) + 5, len(events), len(events) // 3 + 1}
    for max_events in sorted(budgets):
        runs, pulled = run_both(scenario, graph, events, init, tol, max_events)
        assert_same_run(*runs)
        assert pulled[0] == pulled[1]


def test_alg3_batch_cases_cover_convergence_and_the_budget():
    # the runs above stop both ways, and n16 crosses the projection's
    # plain-float switch (batches of more than six rows at H = 3)
    stops = {}
    for name in ("n3", "n7", "n16", "n50"):
        scenario, init, graph, events, tol = gossip_case(name)
        result, _ = reference_gossip(
            scenario, graph, iter(events), init=init, tol=tol, max_events=len(events)
        )
        stops[name] = result.converged
    assert stops == {"n3": True, "n7": True, "n16": False, "n50": False}


@pytest.mark.parametrize("name", ["n3", "n7"])
def test_alg3_non_edge_event_raises_where_the_event_loop_raises(monkeypatch, name):
    scenario, init, graph, events, tol = gossip_case(name)
    result, _ = reference_gossip(
        scenario, graph, iter(events), init=init, tol=tol, max_events=len(events)
    )
    assert result.converged
    stop = result.iterations
    bad = GossipEvent(0, 1, 1)  # a self-loop is no edge
    # right after convergence or the budget the bad event is never pulled
    for max_events, at, pulls in (
        (len(events), stop, stop), (stop - 3, stop - 3, stop - 3)
    ):
        stream = events[:at] + [bad] + events[at:]
        runs, pulled = run_both(scenario, graph, stream, init, tol, max_events)
        assert_same_run(*runs)
        assert pulled == [pulls, pulls]
    # before convergence both raise on pulling it, with every event before
    # it applied and recorded; a call may record several entries
    recorded = []
    record = RunTrace.record

    def counted(trace, *args, **kwargs):
        before = trace.iterations
        record(trace, *args, **kwargs)
        recorded.append(trace.iterations - before)

    monkeypatch.setattr(RunTrace, "record", counted)
    for at in (stop // 2, stop // 2 + 1, scenario.n_consumers):
        stream = events[:at] + [bad] + events[at:]
        for runner in (run_algorithm3, reference_gossip):
            counting, recorded[:] = CountingStream(stream), []
            with pytest.raises(ValueError, match="not an edge"):
                runner(scenario, graph, counting, init=init, tol=tol,
                       max_events=len(stream))
            assert counting.pulled == at + 1
            assert sum(recorded) == at + 1


def dependency_depth(events):
    """The number of levels of `events`: the longest chain of events in
    which each shares a node with the one before it."""
    depth = {}
    for event in events:
        nodes = (event.initiator, event.contact)
        level = 1 + max(depth.get(node, 0) for node in nodes)
        depth.update(dict.fromkeys(nodes, level))
    return max(depth.values())


def test_alg3_projects_once_per_dependency_level(monkeypatch):
    # one projection call per level of each window of N events, plus the
    # residual probes: the initial one and one per check; the run stops at
    # a check, whose probe is the final state's
    scenario, init, graph, events, tol = gossip_case("n50")
    n = scenario.n_consumers
    calls = []

    def counting(*args, fn=algorithms.project_rows):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(algorithms, "project_rows", counting)
    result, _ = run_algorithm3(
        scenario, graph, iter(events), init=init, tol=tol, max_events=len(events)
    )
    assert result.iterations == len(events) and len(events) % n == 0
    windows = [events[start : start + n] for start in range(0, len(events), n)]
    depths = [dependency_depth(window) for window in windows]
    # over four events per level on average
    assert sum(depths) < len(events) // 4
    assert len(calls) == sum(depths) + 1 + len(windows)


@pytest.mark.parametrize("name", ["n7", "n50", "n16"])
def test_alg3_probes_its_final_state_once(monkeypatch, name):
    # a run that stops at a residual check (n7 converges; n50's full
    # budget is a multiple of N) reuses that check's probe, one projection
    # fewer than the event-by-event loop, which probes the final state
    # again; a run stopped off a check (n16, n50 one event short) probes
    # it after the loop
    scenario, init, graph, events, tol = gossip_case(name)
    n = scenario.n_consumers
    for max_events in (len(events), len(events) - 1):
        calls, results = {}, {}
        for module, runner in ((algorithms, run_algorithm3), (oracles, reference_gossip)):
            calls[runner] = 0

            def counting(*args, fn=fixed_point_residual, runner=runner):
                calls[runner] += 1
                return fn(*args)

            monkeypatch.setattr(module, "fixed_point_residual", counting)
            results[runner], _ = runner(
                scenario, graph, iter(events), init=init, tol=tol, max_events=max_events
            )
            monkeypatch.undo()
        result = results[run_algorithm3]
        at_check = result.iterations % n == 0
        assert at_check == (result.converged or max_events % n == 0)
        assert calls[run_algorithm3] == calls[reference_gossip] - at_check
        assert calls[run_algorithm3] == 1 + result.iterations // n + (not at_check)
        assert _same_bits(result.residual, results[reference_gossip].residual)
        assert _same_bits(
            result.fixed_point_residual,
            fixed_point_residual(result.final_profiles, scenario),
        )


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (4, 0), (7, 0), (0, 4)])
def test_alg3_refuses_events_on_nodes_outside_the_graph(pair):
    # on a 4-cycle, -1 would index node 3, a neighbour of 0, and 4 or 7
    # would index past the end; both loops refuse the event where it enters.
    # After (3, 2), node -1 would alias node 3 in the same window.
    rng = np.random.default_rng(44)
    scenario, init = draw_game(rng, 4, 3, rng)
    cycle = CommGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    for before in ([], [GossipEvent(1, 3, 2)]):
        stream = before + [GossipEvent(len(before) + 1, *pair), GossipEvent(9, 0, 1)]
        for runner in (run_algorithm3, reference_gossip):
            counting = CountingStream(stream)
            with pytest.raises(ValueError, match="not an edge of the graph"):
                runner(scenario, cycle, counting, init=init, tol=0.0, max_events=10)
            assert counting.pulled == len(before) + 1


@pytest.mark.parametrize("max_events", [0, -2])
def test_alg3_rejects_max_events_below_one_before_pulling(max_events):
    scenario, init = make_toy_game(909)
    stream = CountingStream(gossip_stream(COMPLETE_2, np.random.default_rng(4), 5))
    with pytest.raises(ValueError, match=f"max_events must be at least 1, got {max_events}"):
        run_algorithm3(scenario, COMPLETE_2, stream, init=init, max_events=max_events)
    assert stream.pulled == 0


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_alg3_rejects_a_tol_no_residual_can_meet_before_pulling(tol):
    scenario, init = make_toy_game(909)
    stream = CountingStream(gossip_stream(COMPLETE_2, np.random.default_rng(4), 5))
    with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {tol:g}"):
        run_algorithm3(scenario, COMPLETE_2, stream, init=init, tol=tol)
    assert stream.pulled == 0


@st.composite
def gossip_runs(draw):
    """(scenario, init, graph, events, max_events) of a random gossip run: a
    connected graph on 2 to 12 nodes, up to 4N events with the occasional
    invalid one at any position, and a budget that need not be a multiple
    of N."""
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    # a random spanning tree, then any further edges
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    graph = CommGraph(n, frozenset(edges))
    edge = st.sampled_from(sorted(edges))
    stream = draw(st.lists(st.tuples(edge, st.booleans()), max_size=4 * n))
    stream = [(a, b) if forward else (b, a) for (a, b), forward in stream]
    node = st.integers(0, n - 1)
    non_edges = [pair for pair in pairs if pair not in edges]
    invalid = st.one_of(
        node.map(lambda k: (k, k)),
        node.map(lambda k: (-1, k)), node.map(lambda k: (k, -1)),
        node.map(lambda k: (n, k)), node.map(lambda k: (k, n)),
        *([st.sampled_from(non_edges)] if non_edges else []),
    )
    for pair in draw(st.lists(invalid, max_size=2)):
        stream.insert(draw(st.integers(0, len(stream))), pair)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenario, init = draw_game(rng, n, draw(st.integers(1, 3)), rng)
    events = [GossipEvent(t, i, j) for t, (i, j) in enumerate(stream, start=1)]
    max_events = draw(st.integers(1, len(events) + n))
    return scenario, init, graph, events, max_events


@settings(max_examples=150, deadline=None)
@given(case=gossip_runs())
def test_alg3_matches_the_event_by_event_loop_on_random_streams(case):
    # at most 4N events make at most four residual checks, so no run
    # converges: an invalid event raises exactly when it is within the budget
    scenario, init, graph, events, max_events = case
    bad = [
        k for k, event in enumerate(events)
        if (min(event[1:]), max(event[1:])) not in graph.edges
    ]
    if bad and bad[0] < max_events:
        for runner in (run_algorithm3, reference_gossip):
            stream = CountingStream(events)
            with pytest.raises(ValueError, match="not an edge"):
                runner(scenario, graph, stream, init=init, tol=1e-3,
                       max_events=max_events)
            assert stream.pulled == bad[0] + 1
    else:
        runs, pulled = run_both(scenario, graph, events, init, 1e-3, max_events)
        assert_same_run(*runs)
        assert pulled[0] == pulled[1] == min(len(events), max_events)


# --- one projection call per synchronous round ----------------------------------
#
# Each round projects the residual probe of q(t) and the step toward q(t+1)
# in one call over 2N rows; oracles.reference_synchronous is the loop with a
# separate probe call per round.


def paired_synchronous_runs(scenario, init, graph, tol, max_iter):
    """[(run, reference)] for algorithms 1 and 2 on one game."""
    weights = build_weights(graph, 0.5)
    return [
        (run_algorithm1(scenario, init=init, tol=tol, max_iter=max_iter),
         reference_synchronous(scenario, init, tol, max_iter)),
        (run_algorithm2(scenario, graph, weights, init=init, tol=tol, max_iter=max_iter),
         reference_synchronous(scenario, init, tol, max_iter, graph, weights)),
    ]


def assert_residuals_probe_the_recorded_states(scenario, run):
    result, trace = run
    states = list(trace.states())
    assert len(states) == len(trace.residuals) == result.iterations + 1
    for (q, _), residual in zip(states, trace.residuals):
        assert _same_bits(residual, fixed_point_residual(q, scenario))


# toy games with N = 2, 3, 4 at H <= 3: 2N rows fall on both sides of the
# projection's six-row plain-float switch, and N = 4 crosses it (a separate
# call projects 4 rows in plain floats, the joint call 8 rows in numpy)
@pytest.mark.parametrize("game, n", [(909, 2), (131, 3), (17, 4)])
def test_synchronous_round_matches_the_separate_probe_loop(game, n):
    scenario, init = make_toy_game(game)
    assert scenario.n_consumers == n
    graph = toy_graph(scenario)
    stops = []
    for tol, max_iter in ((1e-6, 3000), (0.0, 40), (1e-6, 1)):
        for run, reference in paired_synchronous_runs(scenario, init, graph, tol, max_iter):
            assert_residuals_probe_the_recorded_states(scenario, run)
            assert_same_run(run, reference)
            stops.append((run[0].converged, run[0].iterations))
    # alg 1 and alg 2 converge, then stop at each budget
    assert stops[0][0] and stops[1][0]
    assert stops[2:] == [(False, 40)] * 2 + [(False, 1)] * 2


def test_synchronous_round_matches_the_separate_probe_loop_at_n50(canonical):
    scenario, init = canonical
    graph = generate_topology(50, 3.0, np.random.default_rng(0))
    for run, reference in paired_synchronous_runs(scenario, init, graph, 0.0, 30):
        assert run[0].iterations == 30
        assert_residuals_probe_the_recorded_states(scenario, run)
        assert_same_run(run, reference)


def test_synchronous_round_maps_and_projects_once(monkeypatch):
    # alg 1 reuses the probe's gradient for its step, so a round makes one
    # mapping call; alg 2 maps at the true aggregate and at its proxy. Each
    # round makes one projection call over 2N rows and the last state's
    # probe one more over N rows.
    calls = {"mapping_profiles": [], "project_rows": []}
    for name, rows in calls.items():
        def counting(*args, fn=getattr(algorithms, name), rows=rows, **kwargs):
            out = fn(*args, **kwargs)
            rows.append(len(out))
            return out

        monkeypatch.setattr(algorithms, name, counting)
    scenario, init = make_toy_game(17)
    graph = toy_graph(scenario)
    weights = build_weights(graph, 0.5)
    n = scenario.n_consumers
    for tol, max_iter in ((1e-6, 3000), (0.0, 40), (1e-6, 1)):
        for mappings_per_round in (1, 2):
            for rows in calls.values():
                rows.clear()
            if mappings_per_round == 1:
                result, _ = run_algorithm1(scenario, init=init, tol=tol, max_iter=max_iter)
            else:
                result, _ = run_algorithm2(
                    scenario, graph, weights, init=init, tol=tol, max_iter=max_iter
                )
            rounds = result.iterations
            assert len(calls["mapping_profiles"]) == mappings_per_round * rounds + 1
            assert calls["project_rows"] == [2 * n] * rounds + [n]


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
    rows = trace.to_csv(ours)
    reference_trace_csv(trace, ref)
    assert ours.read_bytes() == ref.read_bytes()
    # it returns the rows of its last state
    *_, (last, _) = trace.states()
    assert rows.render(last) and rows.texts == row_texts(last)
    # rows handed over for the first state give the same bytes: the
    # values whose bits differ from theirs are formatted, and non-finite
    # rows are not used
    first, _ = next(trace.states())
    other = first.copy()
    other.view(np.uint64)[0, 0] ^= 1
    for handed in (first, other):
        trace.to_csv(ours, RowTexts(handed, row_texts(handed)))
        assert ours.read_bytes() == ref.read_bytes()


def test_trace_csv_formats_only_the_first_values_its_rows_do_not_render(
    tmp_path, monkeypatch
):
    scenario, init = generate(n_consumers=8, seed=7)
    _, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=30)
    counts = []

    def counted(values):
        counts.append(np.size(values))
        return float_texts(values)

    monkeypatch.setattr(algorithms, "float_texts", counted)
    other = init.copy()
    other[2, 5] = np.nextafter(other[2, 5], 2.0)
    # rows of another shape, or holding a non-finite value, are not used
    handed = {
        "none": None, "same": init, "other": other,
        "short": init[:-1], "infinite": np.where(init > 0.5, np.inf, init),
    }
    formatted = {}
    for name, rows in handed.items():
        counts.clear()
        trace.to_csv(tmp_path / "t.csv", None if rows is None else RowTexts(rows, row_texts(rows)))
        formatted[name] = sum(counts)
    assert formatted["none"] - formatted["same"] == init.size
    assert formatted["none"] - formatted["other"] == init.size - 1
    assert formatted["short"] == formatted["infinite"] == formatted["none"]


@dataclass
class HandPricedTrace(RunTrace):
    """A trace whose bills are hand-set, one array per state, in place of
    its states priced on a curve: the writer's cost column can then hold
    any float."""

    curve: PriceCurve | None = None
    costs: list = field(default_factory=list)

    def _state_bills(self, states, start):
        return np.array(self.costs[start : start + len(states)])


@pytest.mark.parametrize("alg", [1, 2, 3])
def test_trace_csv_bytes_match_reference_writer(tmp_path, alg):
    # the toy game mostly moves whole rows; in the generated 24-slot game
    # some slots of a row sit at a bound while the others move
    for scenario, init in (
        make_toy_game(555),
        generate(n_consumers=8, seed=7),
    ):
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
    trace = HandPricedTrace(
        profiles=[q1, q2, q3, q4],
        costs=[np.array([1.0, -2.5]), np.array([1.0, -2.5]),
               np.array([0.3, 1e20]), np.array([-0.0, np.inf])],
        residuals=[np.float64(0.5), 0.5, float("nan"), 1e-17],
    )
    _assert_same_csv_bytes(trace, tmp_path)
    lines = (tmp_path / "ours.csv").read_bytes().split(b"\r\n")
    assert lines[5] == b"3,1,0.3,nan,-0.0,1.5,2.25"
    assert lines[8] == b"4,2,inf,1e-17,3.0,nan,0.30000000000000004"


# values whose reprs are easy to get wrong: signed zeros, NaNs of either
# sign, infinities, subnormals and a sum that does not round to its terms
_TRACE_FLOATS = st.sampled_from(
    [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
     5e-324, 1e-300, 0.1 + 0.2, 1.0]
) | st.floats(width=64)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4), h=st.integers(1, 5), steps=st.integers(0, 6), data=st.data()
)
def test_trace_csv_bytes_match_reference_under_value_changes(
    tmp_path_factory, n, h, steps, data
):
    # each state changes a random subset of single values of the one before:
    # none (a repeated state), part of a row, or a sign flip (0.0 -> -0.0)
    values = arrays(np.float64, (n, h), elements=_TRACE_FLOATS)
    mask = arrays(np.bool_, (n, h))
    q = data.draw(values)
    profiles = [q]
    for _ in range(steps):
        q = q.copy()
        moved = data.draw(mask)
        q[moved] = data.draw(values)[moved]
        flipped = data.draw(mask)
        q[flipped] = -q[flipped]
        profiles.append(q)
    trace = HandPricedTrace(
        profiles=profiles,
        costs=[data.draw(arrays(np.float64, (n,), elements=_TRACE_FLOATS))
               for _ in profiles],
        residuals=[data.draw(_TRACE_FLOATS) for _ in profiles],
    )
    _assert_same_csv_bytes(trace, tmp_path_factory.mktemp("trace"))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4), h=st.integers(1, 5), steps=st.integers(0, 6), data=st.data()
)
def test_trace_csv_bytes_match_reference_under_row_subset_entries(
    tmp_path_factory, n, h, steps, data
):
    # entries after the first hold either a full state or a subset of rows
    # in any order, as a gossip event stores its pair; inside the stored rows
    # single values change or flip sign (0.0 -> -0.0), or nothing moves
    values = arrays(np.float64, (n, h), elements=_TRACE_FLOATS)
    mask = arrays(np.bool_, (n, h))
    state = data.draw(values)
    states, entries = [state], [state]
    changed_rows, partial = array("q"), bytearray([0])
    for t in range(1, steps + 1):
        state = state.copy()
        rows = np.arange(n)
        partial.append(data.draw(st.booleans()))
        if partial[t]:
            rows = np.array(
                data.draw(st.lists(st.integers(0, n - 1), unique=True)), dtype=np.intp
            )
            changed_rows.extend(rows.tolist())
        stored = state[rows]
        moved = data.draw(mask)[: len(rows)]
        stored[moved] = data.draw(values)[: len(rows)][moved]
        flipped = data.draw(mask)[: len(rows)]
        stored[flipped] = -stored[flipped]
        state[rows] = stored
        states.append(state)
        entries.append(stored if partial[t] else state)
    trace = HandPricedTrace(
        profiles=entries,
        costs=[data.draw(arrays(np.float64, (n,), elements=_TRACE_FLOATS))
               for _ in entries],
        residuals=[data.draw(_TRACE_FLOATS) for _ in entries],
        changed_rows=changed_rows,
        partial=partial,
    )
    rebuilt = [q for q, _ in trace.states()]
    assert [q.tobytes() for q in rebuilt] == [q.tobytes() for q in states]
    _assert_same_csv_bytes(trace, tmp_path_factory.mktemp("trace"))


@pytest.mark.parametrize("n", [2, 50])
def test_trace_csv_bytes_match_reference_on_gossip_edge_cases(tmp_path, monkeypatch, n):
    # pair entries over several blocks of states and windows of stored
    # rows: a pair repeated at once, an event that moves nothing, a
    # 0.0 -> -0.0 flip, stored rows holding a zero (a window that goes
    # number by number), and a full entry after partial ones that moves
    # one value back, so its other values reuse texts of partial entries;
    # at CHUNK values per block and at 60, where N = 50 writes one state
    # per block, as N = 1024 and more do at CHUNK
    h = 24
    rng = np.random.default_rng(n)
    curve = PriceCurve(
        rng.uniform(0.5, 2.0, h), rng.choice([1.0, 2.0, 2.5], h), rng.uniform(0.0, 1.0, h)
    )
    q = rng.uniform(0.1, 3.0, (n, h))
    q[0, 0] = 0.0
    trace = RunTrace(curve)
    trace.record(q, 0.5)
    residual = 0.5
    pair = (0, 1)
    for k in range(1, 151):
        if k not in (10, 20):
            pair = tuple(int(i) for i in rng.choice(n, 2, replace=False))
        if k == 30:
            pair = (0, n - 1)
            q[0, 0] = -0.0
        elif k != 20:
            q[list(pair)] = rng.uniform(0.1, 3.0, (2, h))
            q[0, 0] = -0.0 if k > 30 else 0.0
        if k % 7 == 0:
            residual = float(rng.uniform(0.0, 1.0))
        trace.record(q[list(pair)], residual, rows=pair)
        if k == 100:
            q[0, 0] = 0.0
            trace.record(q, residual)
    assert trace.partial.count(0) == 2
    for chunk in (CHUNK, 60):
        monkeypatch.setattr(algorithms, "CHUNK", chunk)
        _assert_same_csv_bytes(trace, tmp_path)


def test_gossip_trace_csv_formats_a_block_of_states_per_call(canonical, tmp_path, monkeypatch):
    # the writer formats the pair entries' bills and residuals a block of
    # states at a time and their stored rows a window at a time: a few
    # calls per CHUNK values, not one or more per event
    scenario, init = canonical
    (n, h), events = init.shape, 5000
    graph = generate_topology(n, 3.0, np.random.default_rng(0))
    stream = gossip_stream(graph, np.random.default_rng(1), events)
    _, trace = run_algorithm3(scenario, graph, stream, init=init, tol=0.0, max_events=events)
    assert trace.iterations == events + 1
    sizes = []

    def counted(function):
        def call(values):
            sizes.append(np.size(values))
            return function(values)

        return call

    monkeypatch.setattr(algorithms, "float_texts", counted(algorithms.float_texts))
    monkeypatch.setattr(numtext, "float_texts", counted(numtext.float_texts))
    trace.to_csv(tmp_path / "trace.csv")
    # the first state's values and bills, each state's bills and residual,
    # and the two rows each event stores
    values = n * h + (events + 1) * (n + 1) + 2 * events * h
    assert len(sizes) <= values // CHUNK + 5
    assert max(sizes) <= CHUNK


def _three_row_trace():
    scenario = box_scenario([0.5] * 3)
    trace = RunTrace(scenario.curve)
    trace.record(np.full((3, 2), 0.25), 0.0)
    return trace


def test_record_refuses_a_partial_first_entry():
    trace = RunTrace(box_scenario([0.5] * 3).curve)
    with pytest.raises(ValueError, match="first trace entry must be a full state"):
        trace.record(np.zeros((1, 2)), 0.0, rows=(0,))
    assert (trace.profiles, trace.residuals, trace.partial) == ([], [], bytearray())


def test_record_refuses_rows_that_do_not_name_every_row_given():
    # two rows under one index would shift every later entry's rows: the
    # one-row entry after them would land on row 1, not row 2
    trace = _three_row_trace()
    with pytest.raises(ValueError, match="1 row indices for 2 rows"):
        trace.record(np.full((2, 2), 0.5), 0.0, rows=(0,))
    assert trace.iterations == 1 and not trace.changed_rows and trace.partial == bytearray([0])
    trace.record(np.array([[0.0, 0.5]]), 0.0, rows=(2,))
    *_, (last, _) = trace.states()
    assert last.tolist() == [[0.25, 0.25], [0.25, 0.25], [0.0, 0.5]]


def test_record_of_a_window_equals_its_events_recorded_one_by_one():
    # a gossip window recorded in one call keeps the bits, changed_rows,
    # partial flags and residuals of its events recorded one at a time
    rng = np.random.default_rng(5)
    n, h, m = 6, 2, 9
    q0, est0 = rng.random((n, h)), rng.random((n, h))
    rows = np.array([rng.choice(n, 2, replace=False) for _ in range(m)])
    rows[4] = rows[3]  # a pair met twice in a row
    profiles, estimates = rng.random((m, 2, h)), rng.random((m, 2, h)) - 0.5
    profiles[5, 1, 0] = -0.0
    residuals = rng.random(m).tolist()
    curve = box_scenario([0.5] * n).curve
    window, events = RunTrace(curve), RunTrace(curve)
    for trace in (window, events):
        trace.record(q0, 0.5, estimates=est0)
    window.record(profiles, residuals, estimates=estimates, rows=rows)
    for k in range(m):
        events.record(profiles[k], residuals[k], estimates=estimates[k], rows=tuple(rows[k]))
    # the traces keep copies
    profiles[...] = estimates[...] = 7.0
    assert window.changed_rows == events.changed_rows == array("q", rows.ravel().tolist())
    assert window.partial == events.partial == bytearray([0] + [1] * m)
    assert window.residuals == events.residuals == [0.5, *residuals]
    for name in ("profiles", "estimates"):
        for a, b in zip(getattr(window, name), getattr(events, name), strict=True):
            assert a.shape == b.shape and _same_bits(a, b)
    for (q1, e1), (q2, e2) in zip(window.states(), events.states(), strict=True):
        assert _same_bits(q1, q2) and _same_bits(e1, e2)


def test_record_refuses_a_window_whose_parts_differ_in_length():
    trace = _three_row_trace()
    rows = np.array([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="2 entries of row indices for 2 of rows and 1 residuals"):
        trace.record(np.zeros((2, 2, 2)), [0.0], rows=rows)
    with pytest.raises(ValueError, match="2 entries of row indices for 3 of rows and 2 residuals"):
        trace.record(np.zeros((3, 2, 2)), [0.0, 0.0], rows=rows)
    with pytest.raises(ValueError, match="2 row indices for 1 rows"):
        trace.record(np.zeros((2, 1, 2)), [0.0, 0.0], rows=rows)
    assert trace.iterations == 1 and not trace.changed_rows and trace.partial == bytearray([0])


@pytest.mark.parametrize("rows, message", [
    ((0, 3), "trace entry 2: row index 3 is outside 0..2"),
    ((-1, 0), "trace entry 2: row index -1 is outside 0..2"),
    ((1, 1), "trace entry 2: row index 1 is repeated"),
])
def test_trace_readers_refuse_a_row_index_out_of_range_or_repeated(tmp_path, rows, message):
    trace = _three_row_trace()
    trace.record(np.full((2, 2), 0.5), 0.0, rows=(0, 1))
    trace.record(np.full((2, 2), 0.5), 0.0, rows=rows)
    readers = (lambda: list(trace.states()), lambda: trace.bills,
               lambda: trace.to_csv(tmp_path / "trace.csv"))
    for read in readers:
        with pytest.raises(ValueError, match=message):
            read()


def test_trace_readers_refuse_a_layout_that_describes_no_states(tmp_path):
    # built by hand past `record`: a partial first entry, and stored rows
    # that outnumber their indices
    curve = box_scenario([0.5] * 3).curve
    rows = np.full((1, 2), 0.5)
    broken = {
        "starts with a full state": RunTrace(
            curve, profiles=[rows], residuals=[0.0], changed_rows=array("q", [0]),
            partial=bytearray([1]),
        ),
        "store 2 rows, but changed_rows holds 1 indices": RunTrace(
            curve, profiles=[np.full((3, 2), 0.25), np.full((2, 2), 0.5)],
            residuals=[0.0, 0.0], changed_rows=array("q", [0]), partial=bytearray([0, 1]),
        ),
    }
    for message, trace in broken.items():
        for read in (lambda: list(trace.states()), lambda: trace.to_csv(tmp_path / "t.csv")):
            with pytest.raises(ValueError, match=message):
                read()


def _recorded_states(monkeypatch) -> list:
    """Patch `RunTrace.record` to keep copies of every state a synchronous
    runner hands it; returns the list they are appended to."""
    received = []
    record = RunTrace.record

    def keeping(trace, profiles, residual, estimates=None, **kwargs):
        received.append(
            (profiles.copy(), None if estimates is None else estimates.copy())
        )
        return record(trace, profiles, residual, estimates=estimates, **kwargs)

    monkeypatch.setattr(RunTrace, "record", keeping)
    return received


def _gossip_live_states(scenario, graph, events, init, tol) -> list:
    """The full `(profiles, estimates)` state at each record of the event by
    event reference run over `events`, which must be a list."""
    live = []
    reference_gossip(
        scenario, graph, iter(events), init, tol, len(events), live=live
    )
    return live


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("alg", [1, 2, 3])
def test_trace_bills_are_the_bills_at_record_time(monkeypatch, canonical, alg):
    # the trace prices its states when read; its bills must have the bits
    # of the product taken on the runner's live array as each state was
    # recorded, and recording must not price anything
    scenario, init = canonical
    price_calls = []

    def watched(name, fn):
        def call(*args, **kwargs):
            price_calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name, attr in list(vars(PriceCurve).items()):
        if isinstance(attr, property):
            monkeypatch.setattr(PriceCurve, name, property(watched(name, attr.fget)))
        elif callable(attr) and name not in ("__init__", "__setattr__"):
            monkeypatch.setattr(PriceCurve, name, watched(name, attr))
    graph = generate_topology(scenario.n_consumers, 3.0, np.random.default_rng(0))
    if alg == 3:
        # the gossip runner records pair rows; its full states come from the
        # reference run, whose event loop holds the whole state
        events = list(gossip_stream(graph, np.random.default_rng(1), 300))
        live_states = _gossip_live_states(scenario, graph, events, init, 1e-9)
    else:
        live_states = _recorded_states(monkeypatch)
    record_calls = []
    record = RunTrace.record

    def watched_record(trace, *args, **kwargs):
        price_calls.clear()
        before = trace.iterations
        record(trace, *args, **kwargs)
        record_calls.append((trace.iterations - before, list(price_calls)))

    monkeypatch.setattr(RunTrace, "record", watched_record)
    if alg == 1:
        _, trace = run_algorithm1(scenario, init=init, tol=1e-9, max_iter=40)
    elif alg == 2:
        _, trace = run_algorithm2(
            scenario, graph, build_weights(graph, algorithms.DEFAULT_TAU),
            init=init, tol=1e-9, max_iter=40,
        )
    else:
        _, trace = run_algorithm3(
            scenario, graph, iter(events), init=init, tol=1e-9, max_events=300
        )
    # every call records at least one entry and prices nothing
    assert sum(entries for entries, _ in record_calls) == trace.iterations
    assert all(entries and not prices for entries, prices in record_calls)
    bills = trace.bills
    assert len(bills) == len(live_states) == trace.iterations
    for derived, (q, _) in zip(bills, live_states):
        live = q @ scenario.curve._price(q.sum(axis=0))
        assert _same_bits(derived, live)


def test_trace_bills_are_the_bills_at_record_time_on_the_avx2_kernels():
    # numpy's AVX2 loops and OpenBLAS's Haswell kernel round `power` and the
    # bill product their own way; the derived bills must still match there
    node = f"{Path(__file__).name}::test_trace_bills_are_the_bills_at_record_time"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
        cwd=Path(__file__).parent, capture_output=True, text=True,
        env={**src_env(), **AVX2_ENV},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("alg", [1, 3])
def test_trace_states_are_the_recorded_states(monkeypatch, alg):
    scenario, init = make_toy_game(999)
    assert scenario.n_consumers > 2  # so an event's pair is not every row
    if alg == 1:
        received = _recorded_states(monkeypatch)
        _, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=60)
    else:
        graph = toy_graph(scenario)
        events = list(gossip_stream(graph, np.random.default_rng(3), 300))
        received = _gossip_live_states(scenario, graph, events, init, 1e-6)
        _, trace = run_algorithm3(
            scenario, graph, iter(events), init=init, tol=1e-6, max_events=300
        )
        assert list(trace.partial) == [0] + [1] * (trace.iterations - 1)
    states = list(trace.states())
    assert len(states) == len(received) == trace.iterations
    for (q, est), (q_in, est_in) in zip(states, received):
        assert _same_bits(q, q_in) and _same_bits(est, est_in)


def test_record_keeps_a_copy_of_exactly_the_rows_given():
    scenario, _ = make_toy_game(999)
    n, h = scenario.n_consumers, scenario.horizon
    assert n > 2
    q = np.arange(n * h, dtype=float).reshape(n, h)
    est = -q
    trace = RunTrace(scenario.curve)
    trace.record(q, 0.5, estimates=est)
    # a strided view of rows 2 and 0, in that order, as a gossip runner
    # hands over a pair of its level's result
    q_rows, est_rows = q[2::-2], est[2::-2]
    trace.record(q_rows, 0.25, estimates=est_rows, rows=(2, 0))
    expected = [q.copy(), q[[2, 0]].copy()]
    est_expected = [est.copy(), est[[2, 0]].copy()]
    # later writes to the caller's arrays leave the trace as it was
    q += 100.0
    est[...] = 7.0
    for got, want in zip(trace.profiles, expected, strict=True):
        assert _same_bits(got, want)
    for got, want in zip(trace.estimates, est_expected, strict=True):
        assert _same_bits(got, want)
    assert list(trace.changed_rows) == [2, 0]
    assert list(trace.partial) == [0, 1]
    assert trace.residuals == [0.5, 0.25]
    second = expected[0].copy()
    second[[2, 0]] = expected[1]
    states = [profiles for profiles, _ in trace.states()]
    assert _same_bits(states[1], second)


def test_trace_checks_see_the_states_of_partial_entries():
    # a hand-built gossip-style trace whose bad states exist only in partial
    # entries: entry 1 moves row 0 below q_min (estimate in step); entry 2
    # shifts rows 1 and 2 against each other (sum q kept); entry 3 puts row
    # 2 back, so sum est = sum q breaks only in a state built from entries 2
    # and 3 together; entry 4 restores both
    delta = 2.0**-19  # above 1e-6, and every sum below is exact
    scenario = box_scenario([0.5] * 3)
    base = np.full((3, 2), 0.25)
    low, shift = np.array([-delta, 0.5 + delta]), np.array([delta, -delta])
    pairs = [((0, 1), [low, base[1]], [low, base[1]]),
             ((1, 2), [base[1] + shift, base[2] - shift], [base[1], base[2]]),
             ((2, 0), [base[2], low], [base[2], low]),
             ((0, 1), [base[0], base[1]], [base[0], base[1]])]
    trace = RunTrace(
        scenario.curve, profiles=[base], estimates=[base], partial=bytearray([0])
    )
    for rows, q_rows, est_rows in pairs:
        trace.changed_rows.extend(rows)
        trace.partial.append(1)
        trace.profiles.append(np.array(q_rows))
        trace.estimates.append(np.array(est_rows))
    assert trace.max_feasibility_violation(scenario) == delta
    assert trace.max_conservation_gap() == delta
    states = [q for q, _ in trace.states()]
    assert states[3][1].tolist() == (base[1] + shift).tolist()
    assert states[4].tolist() == base.tolist()


def test_alg3_trace_keeps_only_the_pairs_rows(canonical):
    scenario, init = canonical
    n, h = init.shape
    events = 400
    graph = generate_topology(n, 3.0, np.random.default_rng(0))
    stream = gossip_stream(graph, np.random.default_rng(1), events)
    result, trace = run_algorithm3(
        scenario, graph, stream, init=init, tol=1e-9, max_events=events
    )
    assert result.iterations == events == trace.iterations - 1
    assert trace.profiles[0].shape == trace.estimates[0].shape == (n, h)
    assert list(trace.partial) == [0] + [1] * events
    for entry, est in zip(trace.profiles[1:], trace.estimates[1:]):
        assert entry.shape == est.shape == (2, h)
    # the row indices take 16 bytes per event in one flat array
    assert len(trace.changed_rows) == 2 * events
    assert trace.changed_rows.itemsize == 8
    assert set(vars(trace)) == {
        "profiles", "estimates", "residuals", "changed_rows", "partial", "curve"
    }
    # the trace stores the full initial state, then 4H values and 16 bytes
    # of row indices per event: about 4% of a full copy per event here
    stored = [*trace.profiles, *trace.estimates]
    index_bytes = trace.changed_rows.itemsize * len(trace.changed_rows)
    assert sum(a.nbytes for a in stored) + index_bytes == (
        2 * n * h * 8 + events * (4 * h * 8 + 16)
    )


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


#: the conservation gap is float rounding: every round or event re-rounds
#: each row's estimate once or a few times (mixing, then the tracking step),
#: a drift of a few ulps of max|q| per row that sums over N rows with mixed
#: signs; 600 draws measured at most 5.2 N eps max|q|, and 16 leaves room
#: while a lost tracking correction still shows at O(max|q|)
CONSERVATION_ULPS = 16.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 300),
    h=st.integers(1, 30),
    b=st.sampled_from([1.0, 1.2, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_invariants_hold_at_any_n(n, h, b, seed):
    # specs built directly, about a fifth of the slots pinned at q_min
    rng = np.random.default_rng(seed)
    curve = PriceCurve(rng.uniform(0.5, 2.0, h), np.full(h, b), rng.uniform(0.0, 0.1, h))
    specs = []
    for _ in range(n):
        q_min = rng.uniform(0.1, 1.0, h)
        q_max = q_min + rng.uniform(0.0, 2.0, h) * (rng.random(h) < 0.8)
        share = rng.uniform(0.0, 1.0)
        energy = float(q_min.sum() + share * (q_max.sum() - q_min.sum()))
        specs.append(ConsumerSpec(q_min, q_max, energy))
    scenario = Scenario(tuple(specs), curve)
    init = np.vstack([sample_feasible(spec, rng) for spec in specs])
    graph = generate_topology(n, 3.0, rng)
    _, t1 = run_algorithm1(scenario, init=init, max_iter=5)
    _, t2 = run_algorithm2(
        scenario, graph, build_weights(graph, 0.5), init=init, max_iter=5
    )
    _, t3 = run_algorithm3(
        scenario, graph, gossip_stream(graph, rng, 3 * n), init=init,
        max_events=3 * n,
    )
    for trace in (t1, t2, t3):
        assert trace.max_feasibility_violation(scenario) <= 1e-8
    for trace in (t2, t3):
        max_q = max(float(np.abs(q).max()) for q, _ in trace.states())
        bound = CONSERVATION_ULPS * n * np.finfo(float).eps * max_q
        assert trace.max_conservation_gap() <= bound


# --- the convergence verdict under a change of price unit ---------------------


@pytest.fixture(scope="module")
def small_equilibrium():
    scenario, init = generate(4, seed=3)
    return scenario, init, nash_best_response_iteration(scenario, tol=1e-10)


VERDICT_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: at price scale 1e-3 every step is small, so the runs "
    "report converged far from the equilibrium",
)


@pytest.mark.parametrize("k", [pytest.param(1e-3, marks=VERDICT_XFAIL), 1.0, 1e3])
@pytest.mark.parametrize("alg", [1, 2, 3])
def test_a_converged_run_ends_near_the_equilibrium_at_any_price_scale(
    small_equilibrium, alg, k
):
    # a change of price unit scales a and c by k and leaves the equilibrium
    # where it was, so "converged" must keep meaning "near q*"
    scenario, init, q_star = small_equilibrium
    curve = scenario.curve
    scaled = Scenario(scenario.specs, PriceCurve(k * curve.a, curve.b, k * curve.c))
    graph = generate_topology(4, 3.0, np.random.default_rng(0))
    if alg == 1:
        result, _ = run_algorithm1(scaled, init=init, tol=1e-4, max_iter=500)
    elif alg == 2:
        result, _ = run_algorithm2(
            scaled, graph, build_weights(graph, 0.5), init=init, tol=1e-4, max_iter=500
        )
    else:
        result, _ = run_algorithm3(
            scaled, graph, gossip_stream(graph, np.random.default_rng(1), 5000),
            init=init, tol=1e-4, max_events=5000,
        )
    if result.converged:
        distance = float(np.abs(result.final_profiles - q_star).max())
        assert distance <= 1e-3, (
            f"alg {alg} at k = {k:g} reports converged after {result.iterations} "
            f"iterations, {distance:.2g} from q*"
        )
