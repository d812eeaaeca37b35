"""Solver runner tests: trivial cases, oracle agreement, invariants,
error handling, and trace output."""

import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from conftest import STAR_5, make_toy_game
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
    """Both synchronous runners as functions of the step exponent."""
    graph = toy_graph(scenario)
    w = build_weights(graph, 0.5)
    return (
        lambda p: run_algorithm1(scenario, step_exponent=p, init=init, max_iter=2),
        lambda p: run_algorithm2(
            scenario, graph, w, step_exponent=p, init=init, max_iter=2
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
# run_algorithm3 computes consecutive events on disjoint pairs as one batch;
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


GOSSIP_CASES = ["n2", "n3", "n4", "n7", "n16", "n50",
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
    # right after convergence the bad event is never pulled; right after the
    # budget it is pulled and dropped
    for max_events, at, pulls in (
        (len(events), stop, stop), (stop - 3, stop - 3, stop - 2)
    ):
        stream = events[:at] + [bad] + events[at:]
        runs, pulled = run_both(scenario, graph, stream, init, tol, max_events)
        assert_same_run(*runs)
        assert pulled == [pulls, pulls]
    # before convergence both raise on pulling it, with every event before
    # it applied and recorded
    recorded = []
    record = RunTrace.record

    def counted(trace, *args, **kwargs):
        recorded.append(1)
        return record(trace, *args, **kwargs)

    monkeypatch.setattr(RunTrace, "record", counted)
    for at in (stop // 2, stop // 2 + 1, scenario.n_consumers):
        stream = events[:at] + [bad] + events[at:]
        for runner in (run_algorithm3, reference_gossip):
            counting, recorded[:] = CountingStream(stream), []
            with pytest.raises(ValueError, match="not an edge"):
                runner(scenario, graph, counting, init=init, tol=tol,
                       max_events=len(stream))
            assert counting.pulled == at + 1
            assert len(recorded) == at + 1


@pytest.mark.parametrize("max_events", [0, -2])
def test_alg3_rejects_max_events_below_one_before_pulling(max_events):
    scenario, init = make_toy_game(909)
    stream = CountingStream(gossip_stream(COMPLETE_2, np.random.default_rng(4), 5))
    with pytest.raises(ValueError, match=f"max_events must be at least 1, got {max_events}"):
        run_algorithm3(scenario, COMPLETE_2, stream, init=init, max_events=max_events)
    assert stream.pulled == 0


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
    trace.to_csv(ours)
    reference_trace_csv(trace, ref)
    assert ours.read_bytes() == ref.read_bytes()


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
    trace = RunTrace(
        profiles=profiles,
        bills=[data.draw(arrays(np.float64, (n,), elements=_TRACE_FLOATS))
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
    trace = RunTrace(
        profiles=entries,
        bills=[data.draw(arrays(np.float64, (n,), elements=_TRACE_FLOATS))
               for _ in entries],
        residuals=[data.draw(_TRACE_FLOATS) for _ in entries],
        changed_rows=changed_rows,
        partial=partial,
    )
    rebuilt = [q for q, _ in trace.states()]
    assert [q.tobytes() for q in rebuilt] == [q.tobytes() for q in states]
    _assert_same_csv_bytes(trace, tmp_path_factory.mktemp("trace"))


def _recorded_states(monkeypatch) -> list:
    """Patch `RunTrace.record` to keep full copies of every state it is
    given; returns the list they are appended to."""
    received = []
    record = RunTrace.record

    def keeping(trace, profiles, curve, residual, estimates=None, **kwargs):
        received.append(
            (profiles.copy(), None if estimates is None else estimates.copy())
        )
        return record(trace, profiles, curve, residual, estimates=estimates, **kwargs)

    monkeypatch.setattr(RunTrace, "record", keeping)
    return received


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("alg", [1, 3])
def test_trace_states_are_the_recorded_states(monkeypatch, alg):
    scenario, init = make_toy_game(999)
    assert scenario.n_consumers > 2  # so an event's pair is not every row
    received = _recorded_states(monkeypatch)
    if alg == 1:
        _, trace = run_algorithm1(scenario, init=init, tol=1e-6, max_iter=60)
    else:
        graph = toy_graph(scenario)
        events = gossip_stream(graph, np.random.default_rng(3), 300)
        _, trace = run_algorithm3(
            scenario, graph, events, init=init, tol=1e-6, max_events=300
        )
        assert list(trace.partial) == [0] + [1] * (trace.iterations - 1)
    states = list(trace.states())
    assert len(states) == len(received) == trace.iterations
    for (q, est), (q_in, est_in) in zip(states, received):
        assert _same_bits(q, q_in) and _same_bits(est, est_in)


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
    trace = RunTrace(profiles=[base], estimates=[base], partial=bytearray([0]))
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
    stored = [*trace.profiles, *trace.estimates, *trace.bills, *trace.aggregates]
    index_bytes = trace.changed_rows.itemsize * len(trace.changed_rows)
    assert sum(a.nbytes for a in stored) + index_bytes < 0.1 * events * 2 * n * h * 8


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
