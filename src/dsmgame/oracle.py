"""Independent ground-truth solvers: per-consumer best response, cyclic
best-response equilibrium iteration for small instances, the social-welfare
optimum, and the billing fairness comparison.

These deliberately avoid the algorithm runners' code paths (fixed step
schedules, consensus estimates); they share only the primitive price/
projection layers, so agreement between the two routes is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import Scenario
from .feasible import ConsumerSpec, project, project_rows
from .model import PriceCurve, as_profile, mapping_profiles, par

_BACKTRACK_LIMIT = 60
_STEP_GROWTH = 1.25
# tolerance of the best responses inside the Nash sweeps, whatever the outer
# tolerance: tighter is not certifiable through the probe projection once
# bill differences hit float noise
_INNER_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """An oracle solver ran out of iterations before meeting its tolerance."""


# the oracles price loads that are sums of feasible profiles, or `others`
# that best_response checked on entry, so they call the unchecked kernels
def _bill(q: np.ndarray, others: np.ndarray, curve: PriceCurve) -> float:
    return float(curve._price(q + others) @ q)


def _grid_cost(sigma: np.ndarray, curve: PriceCurve) -> float:
    return float(curve._price(sigma) @ sigma)


def _descend(objective, gradient, proj, q, tol, max_iter, what):
    """Projected gradient with backtracking line search on a convex objective.

    Stops at the probe-step-1 first-order certificate
    max|q - proj(q - grad)| <= tol and returns (q, objective(q)); raises
    ConvergenceError naming `what` after `max_iter` iterations.
    """
    fval = objective(q)
    step = 1.0
    move = np.inf
    for it in range(max_iter):
        grad = gradient(q)
        # near the optimum the line search accepts float-noise-scale moves,
        # so once steps are small the first-order certificate is checked
        # every iteration to catch the sub-tolerance dips
        if move <= 100.0 * tol or it % 10 == 9:
            probe = proj(q - grad)
            if float(abs(q - probe).max()) <= tol:
                return q, fval
        for _ in range(_BACKTRACK_LIMIT):
            cand = proj(q - step * grad)
            delta = cand - q
            cand_val = objective(cand)
            bound = fval + np.vdot(grad, delta) + np.vdot(delta, delta) / (2.0 * step)
            if cand_val <= bound + 1e-15 * (1.0 + abs(fval)):
                break
            step *= 0.5
        move = float(abs(delta).max())
        q, fval = cand, cand_val
        step *= _STEP_GROWTH
    raise ConvergenceError(f"{what} not within {tol:g} after {max_iter} iterations")


def _start(scenario: Scenario, init) -> np.ndarray:
    """Joint starting profiles: a copy of `init`, else each consumer's box
    midpoint projected onto its set."""
    if init is None:
        return scenario.project(0.5 * (scenario.q_min_matrix + scenario.q_max_matrix))
    return np.atleast_2d(np.asarray(init, dtype=float)).copy()


def best_response(
    others_aggregate,
    spec: ConsumerSpec,
    curve: PriceCurve,
    tol: float = 1e-8,
    max_iter: int = 20_000,
    x0=None,
) -> np.ndarray:
    """Minimize the consumer's bill against a fixed aggregate of the others.

    Projected gradient with backtracking line search on the convex objective;
    stops at probe-step-1 first-order optimality ||q - proj(q - grad)|| <= tol.
    """
    # project checks the length of x0; the spec is valid by construction
    q = project(0.5 * (spec.q_min + spec.q_max) if x0 is None else x0, spec)
    others = np.asarray(others_aggregate, dtype=float)
    if others.shape != (spec.horizon,) or np.any(others < 0):
        raise ValueError("others_aggregate must be a nonnegative length-H vector")
    # the set as one row, shaped once so no projection broadcasts
    q_min, q_max, energy = spec.q_min[None, :], spec.q_max[None, :], np.array([spec.energy])
    q, _ = _descend(
        lambda v: _bill(v, others, curve),
        lambda v: mapping_profiles(v, v + others, curve),
        lambda v: project_rows(v, q_min, q_max, energy)[0],
        q, tol, max_iter, "best response",
    )
    return q


def nash_best_response_iteration(
    scenario: Scenario,
    tol: float = 1e-7,
    max_sweeps: int = 500,
    init=None,
) -> np.ndarray:
    """Cyclic best-response sweeps to the game's fixed point.

    Intended for small instances (a handful of consumers and slots); raises
    ConvergenceError instead of returning a non-converged state.
    """
    if scenario.certificate is not None and not scenario.certificate.holds:
        raise ValueError("scenario fails the uniqueness certificate")
    q = _start(scenario, init)
    for _ in range(max_sweeps):
        sweep_change = 0.0
        total = q.sum(axis=0)
        for n, spec in enumerate(scenario.specs):
            others = total - q[n]
            updated = best_response(
                others, spec, scenario.curve, tol=_INNER_TOL, x0=q[n]
            )
            sweep_change = max(sweep_change, float(abs(updated - q[n]).max()))
            total += updated - q[n]
            q[n] = updated
        if sweep_change <= tol:
            return q
    raise ConvergenceError(
        f"best-response iteration not within {tol:g} after {max_sweeps} sweeps"
    )


def social_welfare_optimum(
    scenario: Scenario,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    init=None,
) -> tuple[np.ndarray, float]:
    """Minimize the summed bills (the grid cost) over the joint feasible set.

    Projected gradient with backtracking on the joint profile; the objective
    depends on the aggregate only, so the optimal cost is unique even though
    the optimal split between consumers need not be.
    """
    curve = scenario.curve

    def joint_grad(profiles: np.ndarray) -> np.ndarray:
        sigma = profiles.sum(axis=0)
        row = curve._slope(sigma) * sigma + curve._price(sigma)
        return np.broadcast_to(row, profiles.shape)

    q = _start(scenario, init)
    # every later iterate is projected, so the start's aggregate is the one
    # load the unchecked kernels could see unvalidated
    as_profile(q.sum(axis=0), scenario.horizon)
    return _descend(
        lambda p: _grid_cost(p.sum(axis=0), curve),
        joint_grad,
        scenario.project,
        q, tol, max_iter, "welfare optimum",
    )


@dataclass(frozen=True)
class FairnessReport:
    """Per-consumer billing outcomes under both schemes, plus individual
    peak-to-average ratios; both bill columns sum to the grid cost."""

    budgets: np.ndarray
    instantaneous_bills: np.ndarray
    total_load_bills: np.ndarray
    consumer_par: np.ndarray


def fairness_comparison(profiles, scenario: Scenario) -> FairnessReport:
    """Compare instantaneous-load and total-load billing at given profiles."""
    q = np.atleast_2d(np.asarray(profiles, dtype=float))
    if q.shape != (scenario.n_consumers, scenario.horizon):
        raise ValueError(
            f"profiles must have shape ({scenario.n_consumers}, {scenario.horizon})"
        )
    # par checks every row for finite, nonnegative entries before pricing
    consumer_par = np.array([par(row) for row in q])
    sigma = q.sum(axis=0)
    prices = scenario.curve._price(sigma)
    cost = float(prices @ sigma)
    budgets = scenario.budgets
    return FairnessReport(
        budgets=budgets.copy(),
        instantaneous_bills=q @ prices,
        total_load_bills=budgets / budgets.sum() * cost,
        consumer_par=consumer_par,
    )
