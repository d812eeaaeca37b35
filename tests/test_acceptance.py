"""Acceptance suite: one test per criterion, each at its stated tolerance
and runtime budget, printing one PASS line on success.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import time

import numpy as np
import pytest

from dsmgame.algorithms import (
    Scenario,
    fixed_point_residual,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
)
from dsmgame.feasible import ConsumerSpec, project
from dsmgame.model import (
    PriceCurve,
    aggregate,
    grid_cost,
    mapping_component,
    monotonicity_certificate,
    par,
    rank_two_eigenvalues,
)
from dsmgame.network import CommGraph, build_weights, generate_topology, gossip_stream
from dsmgame.oracle import (
    fairness_comparison,
    nash_best_response_iteration,
    social_welfare_optimum,
)
from dsmgame.scenario import GenerationRecipe, generate
from conftest import REVERSAL_CURVE, REVERSAL_SPECS, make_toy_game
from oracles import mapping_finite_difference, project_qp_oracle

N_TOY_GAMES = 20
TOY_EVENT_BUDGET = 2500
CANONICAL_SEED = 7
PAR_SEEDS = (1, 2, 3, 4, 5)


def report(num, name, elapsed=None, budget=None):
    timing = f"  [{elapsed:.1f}s / budget {budget:.0f}s]" if budget else ""
    print(f"\nACCEPTANCE {num:>2} {name}: PASS{timing}")


def complete_graph(n):
    return CommGraph(n, frozenset((a, b) for a in range(n) for b in range(a + 1, n)))


def run_toy_game(seed):
    scenario, init = make_toy_game(seed)
    graph = complete_graph(scenario.n_consumers)
    weights = build_weights(graph, 0.5)
    oracle_ne = nash_best_response_iteration(scenario, tol=1e-7)
    r1, t1 = run_algorithm1(scenario, init=init, tol=1e-7, max_iter=4000)
    r2, t2 = run_algorithm2(
        scenario, graph, weights, init=init, tol=1e-7, max_iter=4000
    )
    events = gossip_stream(graph, np.random.default_rng(seed), TOY_EVENT_BUDGET)
    r3, t3 = run_algorithm3(
        scenario, graph, events, init=init, tol=1e-6, max_events=TOY_EVENT_BUDGET
    )
    return {
        "scenario": scenario,
        "oracle": oracle_ne,
        "results": (r1, r2, r3),
        "traces": (t1, t2, t3),
    }


def run_canonical(seed=CANONICAL_SEED, events=5000):
    scenario, init = generate(GenerationRecipe(seed=seed))
    graph = generate_topology(scenario.n_consumers, 3.0, np.random.default_rng(0))
    weights = build_weights(graph, 0.5)
    r1, t1 = run_algorithm1(scenario, init=init, tol=1e-4, max_iter=500)
    r2, t2 = run_algorithm2(
        scenario, graph, weights, init=init, tol=1e-4, max_iter=500
    )
    stream = gossip_stream(graph, np.random.default_rng(100), events)
    r3, t3 = run_algorithm3(
        scenario, graph, stream, init=init, tol=1e-4, max_events=events
    )
    return {
        "scenario": scenario,
        "init": init,
        "results": (r1, r2, r3),
        "traces": (t1, t2, t3),
    }


def run_par_seed(seed):
    scenario, init = generate(GenerationRecipe(seed=seed))
    result, trace = run_algorithm1(scenario, init=init, tol=1e-4, max_iter=500)
    return {"scenario": scenario, "init": init, "result": result, "trace": trace}


@pytest.fixture(scope="module")
def toy_suite():
    start = time.perf_counter()
    games = [run_toy_game(seed) for seed in range(1, N_TOY_GAMES + 1)]
    return games, time.perf_counter() - start


@pytest.fixture(scope="module")
def canonical_runs():
    start = time.perf_counter()
    runs = run_canonical()
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def par_runs():
    start = time.perf_counter()
    runs = [run_par_seed(seed) for seed in PAR_SEEDS]
    return runs, time.perf_counter() - start


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        h = int(rng.integers(1, 25))
        curve = PriceCurve(
            rng.uniform(0.002, 1.0, h),
            rng.uniform(1.0, 2.8, h),
            rng.uniform(0.0, 0.3, h),
        )
        own = rng.uniform(0.05, 3.0, h)
        sigma = own + rng.uniform(0.05, 3.0 * (n - 1), h)
        analytic = mapping_component(own, sigma, curve)
        fd = mapping_finite_difference(own, sigma, curve)
        np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, "gradient vs central finite differences (100 instances)", elapsed, 5)


def test_criterion_2_projection_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(500):
        h = int(rng.integers(1, 5))
        q_min = rng.uniform(0.0, 1.0, h)
        q_max = q_min + rng.uniform(0.05, 3.0, h)
        energy = float(q_min.sum() + rng.uniform(0, 1) * (q_max - q_min).sum())
        spec = ConsumerSpec(q_min, q_max, energy)
        v = rng.uniform(-5.0, 7.0, h)
        got = project(v, spec)
        expected = project_qp_oracle(v, q_min, q_max, energy)
        assert np.max(np.abs(got - expected)) <= 1e-8
    spec = ConsumerSpec(np.full(4, 0.2), np.full(4, 4.0), 9.0)
    for _ in range(1000):
        x = rng.uniform(-10, 10, 4)
        y = rng.uniform(-10, 10, 4)
        px, py = project(x, spec), project(y, spec)
        assert np.max(np.abs(project(px, spec) - px)) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "projection vs QP oracle; idempotent, nonexpansive", elapsed, 5)


def test_criterion_3_certificate_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    for k in range(200):
        n = int(rng.integers(2, 11))
        bound = 3.0 + 4.0 / (n - 1)
        b = float(rng.uniform(1.0, np.nextafter(bound, 1.0)))
        curve = PriceCurve(
            np.array([rng.uniform(0.005, 2.0)]), np.array([b]), np.array([0.0])
        )
        loads = rng.uniform(0.02, 5.0, n)
        kappa, min_eig = monotonicity_certificate(loads, 1, curve)
        assert kappa > 0
        assert min_eig > 0
        if k < 50:
            z = loads.sum() + (b - 1.0) * loads
            outer = np.outer(z, np.ones(n)) + np.outer(np.ones(n), z)
            eigs = np.linalg.eigvalsh(outer)
            big, small = rank_two_eigenvalues(loads, 1, curve)
            scale = max(1.0, abs(eigs[-1]))
            assert abs(big - eigs[-1]) <= 1e-9 * scale
            assert abs(small - eigs[0]) <= 1e-9 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "monotonicity eigenvalues positive under uniqueness bound", elapsed, 10)


def test_criterion_4_oracle_equivalence(toy_suite):
    games, elapsed = toy_suite
    for game in games:
        oracle_ne = game["oracle"]
        assert fixed_point_residual(oracle_ne, game["scenario"]) <= 1e-6
        for result in game["results"]:
            assert np.max(np.abs(result.final_profiles - oracle_ne)) <= 1e-3
    assert elapsed < 30.0
    report(
        4,
        f"algorithms 1-3 within 1e-3 of the oracle on {len(games)} toy games",
        elapsed,
        30,
    )


def test_criterion_5_desk_scale_convergence(canonical_runs):
    runs, elapsed = canonical_runs
    r1, r2, r3 = runs["results"]
    t1, t2, t3 = runs["traces"]
    for result in (r1, r2):
        assert result.converged
        assert result.iterations <= 500
        assert result.residual <= 1e-4
    for trace in (t1, t2):
        bills = np.array(trace.bills)
        final = bills[-1]
        deviation = np.abs(bills[50:] - final) / np.abs(final)
        assert np.max(deviation) < 0.01
    assert r3.iterations <= 5000
    agg3 = aggregate(r3.final_profiles)
    for other in (r1, r2):
        ref = aggregate(other.final_profiles)
        assert np.max(np.abs(agg3 - ref)) / np.max(np.abs(ref)) <= 1e-2
    assert elapsed < 60.0
    report(5, "N=50 scenario: algs 1-2 converge, gossip agrees", elapsed, 60)


def test_criterion_6_par_reduction(canonical_runs, par_runs):
    runs, elapsed_canon = canonical_runs
    seeds, elapsed = par_runs
    checked = [(runs["init"], runs["results"][0])] + [
        (entry["init"], entry["result"]) for entry in seeds
    ]
    for init, result in checked:
        before = par(aggregate(init))
        after = par(aggregate(result.final_profiles))
        assert after <= 0.8 * before
    assert elapsed < 60.0
    report(
        6,
        f"final PAR <= 0.8 x initial PAR on {len(checked)} seeds",
        elapsed,
        60,
    )


def test_criterion_7_fairness_reversal():
    start = time.perf_counter()
    scenario = Scenario(REVERSAL_SPECS, REVERSAL_CURVE)
    ne = nash_best_response_iteration(scenario, tol=1e-8)
    assert scenario.budgets[0] > scenario.budgets[1]
    assert ne[0, 1] < ne[1, 1]  # A consumes strictly less on-peak
    table = fairness_comparison(ne, scenario)
    assert table.instantaneous_bills[0] < table.instantaneous_bills[1]
    assert table.total_load_bills[0] > table.total_load_bills[1]
    assert abs(
        table.instantaneous_bills.sum() - table.total_load_bills.sum()
    ) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, "billing order reverses on the constructed pair", elapsed, 5)


def test_criterion_8_welfare_gap(toy_suite, canonical_runs):
    games, _ = toy_suite
    runs, _ = canonical_runs
    start = time.perf_counter()
    for game in games:
        scenario = game["scenario"]
        ne_cost = grid_cost(game["oracle"].sum(axis=0), scenario.curve)
        _, opt_cost = social_welfare_optimum(scenario, tol=1e-8)
        gap = (ne_cost - opt_cost) / opt_cost
        assert gap >= -1e-9
        assert gap <= 0.05
    scenario = runs["scenario"]
    ne_cost = grid_cost(aggregate(runs["results"][0].final_profiles), scenario.curve)
    _, opt_cost = social_welfare_optimum(scenario, tol=1e-6)
    gap = (ne_cost - opt_cost) / opt_cost
    assert -1e-9 <= gap <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, "equilibrium cost within 5% of the welfare optimum", elapsed, 60)


def test_criterion_9_conservation_invariants(canonical_runs):
    runs, _ = canonical_runs
    scenario = runs["scenario"]
    t1, t2, t3 = runs["traces"]
    assert t2.max_conservation_gap() <= 1e-9
    assert t3.max_conservation_gap() <= 1e-9
    for trace in (t1, t2, t3):
        assert trace.max_budget_gap(scenario) <= 1e-8
    report(9, "estimate-sum and budget identities hold at every iterate")


def _named_traces(games, runs, par_entries):
    """Every trace of the criteria 4-6 workloads, keyed by a file tag."""
    for seed, game in enumerate(games, start=1):
        for k, trace in enumerate(game["traces"], start=1):
            yield f"toy{seed}-alg{k}", trace
    for k, trace in enumerate(runs["traces"], start=1):
        yield f"canon-alg{k}", trace
    for seed, entry in zip(PAR_SEEDS, par_entries):
        yield f"par{seed}", entry["trace"]


def _trace_digests(tmp_path, named_traces):
    """Write each trace file and hash its bytes."""
    digests = {}
    for tag, trace in named_traces:
        path = tmp_path / f"{tag}.csv"
        trace.to_csv(path)
        digests[tag] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return digests


def test_criterion_10_determinism(tmp_path, toy_suite, canonical_runs, par_runs):
    # the fixtures of criteria 4-6 are the first run; re-run them all once
    first = _trace_digests(
        tmp_path, _named_traces(toy_suite[0], canonical_runs[0], par_runs[0])
    )
    second = _trace_digests(
        tmp_path,
        _named_traces(
            [run_toy_game(seed) for seed in range(1, N_TOY_GAMES + 1)],
            run_canonical(),
            [run_par_seed(seed) for seed in PAR_SEEDS],
        ),
    )
    assert len(first) == 3 * N_TOY_GAMES + 3 + len(PAR_SEEDS)
    assert first == second
    report(10, f"byte-identical traces across re-runs ({len(first)} files)")
