"""Ground-truth solver tests: best response, equilibrium iteration, welfare
optimum, and the billing fairness comparison."""

import numpy as np
import pytest

import dsmgame.algorithms as algorithms
import dsmgame.feasible as feasible
import dsmgame.oracle as oracle
from dsmgame.algorithms import Scenario, fixed_point_residual
from dsmgame.feasible import ConsumerSpec, project, sample_feasible
from dsmgame.model import PriceCurve, bill_instantaneous, grid_cost, mapping_profiles
from dsmgame.oracle import (
    ConvergenceError,
    best_response,
    fairness_comparison,
    nash_best_response_iteration,
    social_welfare_optimum,
)
from conftest import REVERSAL_CURVE, REVERSAL_SPECS, make_toy_game
from oracles import reference_best_response


def flat_curve(h, a=1.0, b=1.2, c=0.0):
    return PriceCurve(np.full(h, a), np.full(h, b), np.full(h, c))


# --- best response ----------------------------------------------------------


def test_best_response_single_slot_is_forced():
    spec = ConsumerSpec(np.array([0.0]), np.array([9.0]), 4.0)
    got = best_response(np.array([100.0]), spec, flat_curve(1))
    np.testing.assert_allclose(got, [4.0], atol=1e-10)


def test_best_response_symmetric_split():
    spec = ConsumerSpec(np.zeros(2), np.full(2, 3.0), 2.0)
    got = best_response(np.array([5.0, 5.0]), spec, flat_curve(2))
    np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-7)


def test_best_response_matches_grid_search():
    from oracles import grid_best_response

    rng = np.random.default_rng(19)
    for _ in range(10):
        curve = PriceCurve(
            rng.uniform(0.3, 1.5, 2), rng.choice([1.0, 1.2, 1.5], 2),
            rng.uniform(0, 0.1, 2)
        )
        q_min = rng.uniform(0.0, 0.5, 2)
        q_max = q_min + rng.uniform(0.5, 2.0, 2)
        energy = float(q_min.sum() + 0.5 * (q_max.sum() - q_min.sum()))
        spec = ConsumerSpec(q_min, q_max, energy)
        others = rng.uniform(0.0, 4.0, 2)
        got = best_response(others, spec, curve)
        expected = grid_best_response(others, spec, curve)
        np.testing.assert_allclose(got, expected, atol=1e-3)


def test_best_response_first_order_optimality():
    rng = np.random.default_rng(29)
    for _ in range(10):
        scenario, init = make_toy_game(int(rng.integers(10_000)))
        spec = scenario.specs[0]
        others = init[1:].sum(axis=0) if scenario.n_consumers > 1 else np.zeros(
            scenario.horizon
        )
        q = best_response(others, spec, scenario.curve)
        probe = project(q - mapping_profiles(q, q + others, scenario.curve), spec)
        assert np.max(np.abs(q - probe)) <= 1e-8


def random_best_response_case(rng):
    """A random best-response problem: H in 1..6, exponents up to 3, and
    some zero offsets, lower bounds and others, so some marginals start at
    slope 0, some of them at price 0."""
    h = int(rng.integers(1, 7))
    curve = PriceCurve(
        rng.uniform(0.3, 2.0, h), rng.choice([1.0, 1.2, 1.5, 2.0, 3.0], h),
        rng.uniform(0.0, 0.2, h) * (rng.random(h) < 0.7),
    )
    q_min = rng.uniform(0.0, 0.8, h) * (rng.random(h) < 0.6)
    q_max = q_min + rng.uniform(0.2, 2.0, h)
    energy = float(q_min.sum() + rng.uniform(0.05, 0.95) * (q_max - q_min).sum())
    others = rng.uniform(0.0, 5.0, h) * (rng.random(h) < 0.6)
    return others, ConsumerSpec(q_min, q_max, energy), curve


def assert_kkt(x, others, spec, curve):
    """x meets the budget and the box, and its marginal bills g_h share one
    value lam on the free slots, are at least lam on slots at q_min and at
    most lam on slots at q_max."""
    assert abs(x.sum() - spec.energy) <= 1e-12 * max(1.0, spec.energy)
    assert np.all(spec.q_min <= x) and np.all(x <= spec.q_max)
    g = mapping_profiles(x, x + others, curve)
    slack = 1e-9 * g.max()
    at_min, at_max = x == spec.q_min, x == spec.q_max
    free = ~at_min & ~at_max
    if free.any():
        lam = g[free].mean()
        assert np.ptp(g[free]) <= slack
    else:  # any lam between the marginals at q_max and those at q_min
        lam = g[at_max & ~at_min].max(initial=0.0)
    assert np.all(g[at_min & ~at_max] >= lam - slack)
    assert np.all(g[at_max & ~at_min] <= lam + slack)


def test_best_response_meets_its_kkt_conditions_and_the_reference():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        others, spec, curve = random_best_response_case(rng)
        x = best_response(others, spec, curve)
        np.testing.assert_allclose(
            x, reference_best_response(others, spec, curve), rtol=0, atol=1e-7
        )
        assert_kkt(x, others, spec, curve)


@pytest.mark.parametrize("margin", [0.0, 1e-12, 1e-6])
def test_best_response_with_the_budget_at_a_bound(margin):
    # next to sum(q_min), a slot whose marginal has slope 0 at q_min = 0
    # makes S(lam) steep at its kink, and its root can lie within an ulp
    # of the kink; next to sum(q_max) the free slots are few
    rng = np.random.default_rng(31)
    for case in range(200):
        others, spec, curve = random_best_response_case(rng)
        span = spec.q_max.sum() - spec.q_min.sum()
        energy = spec.q_min.sum() + margin * span if case % 2 else spec.q_max.sum() - margin * span
        if energy <= 0.0:
            continue
        spec = ConsumerSpec(spec.q_min, spec.q_max, energy)
        assert_kkt(best_response(others, spec, curve), others, spec, curve)


def count_projections(monkeypatch) -> list:
    """Count every call of the projection kernel, through the module
    globals that `project`, `sample_feasible` and `Scenario.project` use."""
    calls = []
    for module in (feasible, algorithms):
        real = module.project_rows

        def counted(*args, _real=real):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(module, "project_rows", counted)
    return calls


def test_nash_oracle_projects_only_its_start(monkeypatch):
    scenario, init = make_toy_game(11)
    calls = count_projections(monkeypatch)
    best_response(init[1:].sum(axis=0), scenario.specs[0], scenario.curve)
    assert calls == []
    nash_best_response_iteration(scenario, tol=1e-7)
    assert len(calls) == 1
    nash_best_response_iteration(scenario, tol=1e-7, init=init)
    assert len(calls) == 1


def test_best_response_rejects_invalid_spec():
    # the set is rejected where it is built, before best_response could see it
    with pytest.raises(ValueError, match="budget"):
        best_response(
            np.zeros(1), ConsumerSpec(np.zeros(1), np.ones(1), 5.0), flat_curve(1)
        )


# --- equilibrium iteration --------------------------------------------------


def test_iteration_single_slot_converges_in_one_sweep():
    specs = tuple(
        ConsumerSpec(np.array([0.0]), np.array([10.0]), float(2 + n))
        for n in range(4)
    )
    scenario = Scenario(specs, flat_curve(1, a=0.5))
    got = nash_best_response_iteration(scenario)
    np.testing.assert_allclose(got[:, 0], [2.0, 3.0, 4.0, 5.0], atol=1e-10)


def test_iteration_reaches_small_residual():
    scenario, _ = make_toy_game(101)
    profiles = nash_best_response_iteration(scenario, tol=1e-7)
    assert fixed_point_residual(profiles, scenario) <= 1e-6


def test_iteration_fixed_point_unique_across_starts():
    scenario, _ = make_toy_game(202)
    rng = np.random.default_rng(55)
    results = []
    for _ in range(10):
        init = np.vstack([sample_feasible(s, rng) for s in scenario.specs])
        results.append(nash_best_response_iteration(scenario, tol=1e-7, init=init))
    for other in results[1:]:
        np.testing.assert_allclose(other, results[0], atol=1e-4)


@pytest.mark.parametrize("k", [1e-3, 1e3])
def test_iteration_does_not_depend_on_the_price_unit(k):
    # toy games 1..10 are the benchmark's small games, up to an ulp of
    # each budget
    for seed in (*range(1, 11), 101, 202, 303):
        scenario, _ = make_toy_game(seed)
        curve = scenario.curve
        rescaled = Scenario(scenario.specs, PriceCurve(k * curve.a, curve.b, k * curve.c))
        np.testing.assert_allclose(
            nash_best_response_iteration(rescaled, tol=1e-7),
            nash_best_response_iteration(scenario, tol=1e-7),
            rtol=0, atol=1e-9,
        )


def test_iteration_rejects_failed_certificate():
    curve = PriceCurve(np.array([0.5]), np.array([8.0]), np.zeros(1))
    specs = (
        ConsumerSpec(np.array([0.0]), np.array([4.0]), 2.0),
        ConsumerSpec(np.array([0.0]), np.array([4.0]), 2.0),
    )
    with pytest.raises(ValueError, match="uniqueness"):
        nash_best_response_iteration(Scenario(specs, curve))


def test_iteration_raises_instead_of_returning_unconverged(monkeypatch):
    scenario, init = make_toy_game(303)
    monkeypatch.setattr(oracle, "_NASH_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 sweeps"):
        nash_best_response_iteration(scenario, tol=1e-9, init=init)


# --- social welfare ---------------------------------------------------------


def test_welfare_single_slot_cost_is_forced():
    specs = tuple(
        ConsumerSpec(np.array([0.0]), np.array([10.0]), float(1 + n))
        for n in range(3)
    )
    curve = flat_curve(1, a=0.7)
    scenario = Scenario(specs, curve)
    _, cost = social_welfare_optimum(scenario)
    assert cost == pytest.approx(grid_cost(np.array([6.0]), curve))


def test_welfare_single_consumer_matches_best_response():
    spec = ConsumerSpec(np.array([0.2, 0.1]), np.array([3.0, 3.0]), 2.5)
    curve = PriceCurve(np.array([0.4, 1.1]), np.array([1.2, 1.5]), np.zeros(2))
    scenario = Scenario((spec,), curve)
    profiles, cost = social_welfare_optimum(scenario, tol=1e-8)
    br = best_response(np.zeros(2), spec, curve)
    np.testing.assert_allclose(profiles[0], br, atol=1e-6)
    assert cost == pytest.approx(bill_instantaneous(br, br, curve), rel=1e-9)


def test_welfare_cost_dominates_equilibrium_and_feasible_points():
    rng = np.random.default_rng(77)
    for seed in (11, 22, 33):
        scenario, init = make_toy_game(seed)
        opt, opt_cost = social_welfare_optimum(scenario, tol=1e-8)
        # the solver's own stop rule holds at what it returns
        sigma = opt.sum(axis=0)
        curve = scenario.curve
        joint_grad = curve.price_derivative_vector(sigma) * sigma + curve.price_vector(sigma)
        assert np.max(np.abs(opt - scenario.project(opt - joint_grad))) <= 1e-8
        assert opt_cost == grid_cost(sigma, curve)
        ne = nash_best_response_iteration(scenario, tol=1e-7)
        ne_cost = grid_cost(ne.sum(axis=0), scenario.curve)
        init_cost = grid_cost(init.sum(axis=0), scenario.curve)
        assert opt_cost <= ne_cost + 1e-9
        assert opt_cost <= init_cost + 1e-9
        random_point = np.vstack(
            [sample_feasible(s, rng) for s in scenario.specs]
        )
        assert opt_cost <= grid_cost(random_point.sum(axis=0), scenario.curve) + 1e-9


def test_solvers_raise_naming_themselves_when_out_of_iterations(monkeypatch):
    scenario, init = make_toy_game(11)
    others = init[1:].sum(axis=0)
    monkeypatch.setattr(oracle, "_BEST_RESPONSE_STEPS", 1)
    monkeypatch.setattr(oracle, "_WELFARE_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="best response not within"):
        best_response(others, scenario.specs[0], scenario.curve)
    with pytest.raises(ConvergenceError, match="welfare optimum not within"):
        social_welfare_optimum(scenario)


# --- fairness ---------------------------------------------------------------


def test_identical_consumers_identical_bills():
    spec = ConsumerSpec(np.zeros(2), np.full(2, 4.0), 3.0)
    scenario = Scenario((spec, spec), flat_curve(2))
    profiles = np.array([[1.0, 2.0], [1.0, 2.0]])
    report = fairness_comparison(profiles, scenario)
    assert report.instantaneous_bills[0] == pytest.approx(
        report.instantaneous_bills[1]
    )
    assert report.total_load_bills[0] == pytest.approx(report.total_load_bills[1])


def test_total_load_worked_example():
    # one slot, p(L) = L: grid cost p(3) * 3 = 9, split 2:1 by the budgets
    specs = (ConsumerSpec([0.0], [5.0], 2.0), ConsumerSpec([0.0], [5.0], 1.0))
    scenario = Scenario(specs, flat_curve(1, b=1.0))
    report = fairness_comparison(np.array([[2.0], [1.0]]), scenario)
    np.testing.assert_allclose(report.total_load_bills, [6.0, 3.0])


def test_constructed_instance_reverses_the_billing_order():
    scenario = Scenario(REVERSAL_SPECS, REVERSAL_CURVE)
    ne = nash_best_response_iteration(scenario, tol=1e-8)
    assert ne[0, 1] < ne[1, 1]  # A consumes strictly less on-peak
    report = fairness_comparison(ne, scenario)
    assert report.budgets[0] > report.budgets[1]
    assert report.instantaneous_bills[0] < report.instantaneous_bills[1]
    assert report.total_load_bills[0] > report.total_load_bills[1]


def test_bill_sums_agree_between_schemes():
    scenario, init = make_toy_game(404)
    report = fairness_comparison(init, scenario)
    assert report.instantaneous_bills.sum() == pytest.approx(
        report.total_load_bills.sum(), abs=1e-10
    )


def test_oracles_reject_negative_loads_where_they_enter():
    # the oracles' inner loops price through unchecked kernels or plain
    # floats, so the loads that reach them from outside are checked on
    # entry; a NaN or infinite others' load would spin to the iteration cap
    scenario, init = make_toy_game(505)
    spec, curve = scenario.specs[0], scenario.curve
    with pytest.raises(ValueError, match="nonnegative"):
        best_response(-np.ones(scenario.horizon), spec, curve)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="others_aggregate contains non-finite"):
            best_response(np.full(scenario.horizon, bad), spec, curve)
    negative_start = init.copy()
    negative_start[:, 0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        fairness_comparison(negative_start, scenario)
    nan_profiles = init.copy()
    nan_profiles[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fairness_comparison(nan_profiles, scenario)
