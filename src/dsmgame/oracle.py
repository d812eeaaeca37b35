"""Independent ground-truth solvers: per-consumer best response, cyclic
best-response equilibrium iteration for small instances, the social-welfare
optimum, and the billing fairness comparison.

These deliberately avoid the algorithm runners' code paths (fixed step
schedules, consensus estimates). The Nash oracle shares only the price
curve with them: each best response solves its KKT conditions by
water-filling in plain floats, with no projection. The welfare optimum
shares the price and projection layers. So agreement between the two
routes is a real check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import Scenario
from .feasible import ConsumerSpec
from .model import PriceCurve, par

_BACKTRACK_LIMIT = 60
_STEP_GROWTH = 1.25
_EPS = float(np.finfo(float).eps)
# Newton on a slot's convex marginal converges quadratically, so a step this
# small relative to the slot's load leaves an error of about its square
_NEWTON_DONE = 1e-9
# cap on one marginal inversion: Newton from the right of the root is
# monotone, and each step that leaves the bracket halves it
_INVERSE_STEPS = 100
# caps on S evaluations per best response, on best-response sweeps and on
# welfare-optimum descent iterations
_BEST_RESPONSE_STEPS = 100
_NASH_SWEEPS = 500
_WELFARE_ITERATIONS = 50_000


class ConvergenceError(RuntimeError):
    """An oracle solver ran out of iterations before meeting its tolerance."""


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


def _marginal(x: float, a: float, b: float, c: float, o: float) -> tuple[float, float]:
    """One slot's marginal bill g(x) = p(x + o) + x p'(x + o), for the price
    p(L) = a L^b + c against the others' load o, and its slope g'(x): positive,
    but 0 at load 0 when b > 1."""
    if b == 1.0:
        return a * (2.0 * x + o) + c, 2.0 * a
    load = x + o
    if load == 0.0:
        return c, 0.0
    power = a * load ** (b - 1.0)
    return power * (load + b * x) + c, b * power * (2.0 * load + (b - 1.0) * x) / load


def _inverse(lam: float, slot: tuple, x: float) -> float:
    """clip(g^-1(lam), lo, hi) for one slot; `x` seeds the Newton steps."""
    a, b, c, o, lo, hi, g_lo, g_hi = slot
    if lam <= g_lo:
        return lo
    if lam >= g_hi:
        return hi
    if b == 1.0:  # g is linear
        return min(max((lam - c - a * o) / (2.0 * a), lo), hi)
    if o == 0.0:  # g(x) = a (1 + b) x^b + c
        return min(max(((lam - c) / (a * (1.0 + b))) ** (1.0 / b), lo), hi)
    # g is convex and increasing on [lo, hi]: Newton steps, with bisection
    # whenever a step leaves the bracket [x_lo, x_hi] of the root
    x_lo, x_hi = lo, hi
    x = min(max(x, lo), hi)
    for _ in range(_INVERSE_STEPS):
        g, slope = _marginal(x, a, b, c, o)
        if g > lam:
            x_hi = x
        else:
            x_lo = x
        step = (g - lam) / slope
        nxt = x - step
        if x_lo < nxt < x_hi:
            if abs(step) <= _NEWTON_DONE * (nxt + o):
                return nxt
        else:
            nxt = 0.5 * (x_lo + x_hi)
            if x_hi - x_lo <= 4.0 * _EPS * (x_hi + o):
                return nxt
        x = nxt
    return x


def best_response(others_aggregate, spec: ConsumerSpec, curve: PriceCurve) -> np.ndarray:
    """Minimize the consumer's bill against a fixed aggregate of the others.

    The bill is separable per slot with one budget constraint, so its KKT
    conditions reduce to one multiplier lam: x_h = clip(g_h^-1(lam),
    q_min_h, q_max_h) with sum_h x_h = E, where g_h(x) = p_h(x + o_h) +
    x p_h'(x + o_h) is slot h's marginal bill, strictly increasing. This
    water-filling runs in plain floats. lam stays inside the bracket
    [min_h g_h(q_min_h), max_h g_h(q_max_h)] and takes Newton steps on
    S(lam) = sum_h x_h(lam), with S'(lam) = sum over the free slots of
    1/g_h'(x_h). Where S is flat it moves to the next kink, where a Newton
    step leaves the bracket it solves a power-law fit of S instead, and it
    bisects when a step still leaves the bracket or two steps do not halve
    the budget gap. It stops when the budget gap is float noise or the
    bracket collapses to a few ulps: relative measures, so the answer does
    not depend on the price unit. The gap left is spread over the free
    slots. Raises ConvergenceError after `_BEST_RESPONSE_STEPS` evaluations
    of S.
    """
    others = np.asarray(others_aggregate, dtype=float)
    if not np.isfinite(others).all():
        raise ValueError("others_aggregate contains non-finite entries")
    if others.shape != (spec.horizon,) or (others < 0).any():
        raise ValueError("others_aggregate must be a nonnegative length-H vector")
    # per slot: the price parameters, the others' load, the box, and the
    # marginals at the box's ends, where the slot's kinks in S sit
    slots = [
        (a, b, c, o, lo, hi, _marginal(lo, a, b, c, o)[0], _marginal(hi, a, b, c, o)[0])
        for a, b, c, o, lo, hi in zip(
            curve.a.tolist(), curve.b.tolist(), curve.c.tolist(), others.tolist(),
            spec.q_min.tolist(), spec.q_max.tolist(),
        )
    ]
    energy = spec.energy
    # the bracket's ends, with the budget gaps E - S there
    lam_lo = min(slot[6] for slot in slots)
    lam_hi = max(slot[7] for slot in slots)
    gap_lo = energy - math.fsum(spec.q_min.tolist())
    gap_hi = energy - math.fsum(spec.q_max.tolist())
    if gap_lo <= 4.0 * _EPS * energy:
        return spec.q_min.copy()
    if gap_hi >= -4.0 * _EPS * energy:
        return spec.q_max.copy()
    # start from every box filled to the same fraction, at its mean marginal
    fill = gap_lo / (gap_lo - gap_hi)
    x = [lo + fill * (hi - lo) for _, _, _, _, lo, hi, _, _ in slots]
    lam = sum(_marginal(xh, *slot[:4])[0] for xh, slot in zip(x, slots)) / len(slots)
    older_gap = old_gap = math.inf
    bisected = False
    for _ in range(_BEST_RESPONSE_STEPS):
        x = [_inverse(lam, slot, xh) for slot, xh in zip(slots, x)]
        gap = energy - math.fsum(x)
        rising = gap > 0.0
        if rising:
            lam_lo, gap_lo = lam, gap
        else:
            lam_hi, gap_hi = lam, gap
        # the slope of S on the root's side of lam: slots at a kink count
        # when lam moving that way frees them; a slope-0 marginal's infinite
        # 1/g' is left out
        slope = 0.0
        for slot, xh in zip(slots, x):
            if (slot[6] <= lam < slot[7]) if rising else (slot[6] < lam <= slot[7]):
                g_slope = _marginal(xh, *slot[:4])[1]
                if g_slope > 0.0:
                    slope += 1.0 / g_slope
        # float noise of the budget sum, plus what 4 ulps of lam move S by
        if abs(gap) <= 4.0 * _EPS * (energy + lam * slope):
            break
        if lam_hi - lam_lo <= 4.0 * _EPS * lam_hi:
            break
        if slope == 0.0:
            # S is flat here: go to the next kink towards the root
            if rising:
                nxt = min((slot[6] for slot in slots if slot[6] > lam), default=lam)
            else:
                nxt = max((slot[7] for slot in slots if slot[7] < lam), default=lam)
        else:
            nxt = lam + gap / slope
            if not lam_lo < nxt < lam_hi:
                # Newton overshot the bracket: S bends hard, as next to a slot
                # whose marginal has slope 0 at its lower bound. Fit
                # S - S(end) = K |lam - end|^p through the far end of the
                # bracket, matching S and S' here, and solve it, at least
                # 2 ulps from the end so a root within rounding of the end
                # collapses the bracket
                end, gap_end = (lam_hi, gap_hi) if rising else (lam_lo, gap_lo)
                power = slope * (lam - end) / (gap_end - gap)
                if power > 0.0:
                    fraction = (gap_end / (gap_end - gap)) ** (1.0 / power)
                    nxt = end + (lam - end) * max(fraction, 2.0 * _EPS * abs(end / (lam - end)))
        # bisect when the step leaves the bracket, or when the two steps
        # since the last bisection did not halve the gap (kinks can make
        # Newton cycle)
        stalled = not bisected and abs(gap) > 0.5 * older_gap
        older_gap, old_gap = old_gap, abs(gap)
        bisected = stalled or not lam_lo < nxt < lam_hi
        lam = 0.5 * (lam_lo + lam_hi) if bisected else nxt
    else:
        raise ConvergenceError(
            "best response not within float noise of its budget after "
            f"{_BEST_RESPONSE_STEPS} iterations"
        )
    free = [h for h, slot in enumerate(slots) if slot[6] < lam < slot[7]]
    if free:
        share = gap / len(free)
        for h in free:
            x[h] = min(max(x[h] + share, slots[h][4]), slots[h][5])
    return np.array(x)


def nash_best_response_iteration(
    scenario: Scenario, tol: float = 1e-7, init=None
) -> np.ndarray:
    """Cyclic best-response sweeps to the game's fixed point.

    Intended for small instances (a handful of consumers and slots); raises
    ConvergenceError instead of returning a non-converged state.
    """
    if scenario.certificate is not None and not scenario.certificate.holds:
        raise ValueError("scenario fails the uniqueness certificate")
    q = _start(scenario, init)
    for _ in range(_NASH_SWEEPS):
        sweep_change = 0.0
        total = q.sum(axis=0)
        for n, spec in enumerate(scenario.specs):
            others = total - q[n]
            updated = best_response(others, spec, scenario.curve)
            sweep_change = max(sweep_change, float(abs(updated - q[n]).max()))
            total += updated - q[n]
            q[n] = updated
        if sweep_change <= tol:
            return q
    raise ConvergenceError(
        f"best-response iteration not within {tol:g} after {_NASH_SWEEPS} sweeps"
    )


def social_welfare_optimum(
    scenario: Scenario, tol: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Minimize the summed bills (the grid cost) over the joint feasible set.

    Projected gradient with backtracking on the joint profile, from each
    consumer's box midpoint projected onto its set; the objective
    depends on the aggregate only, so the optimal cost is unique even though
    the optimal split between consumers need not be.
    """
    curve = scenario.curve

    def joint_cost(profiles: np.ndarray) -> float:
        sigma = profiles.sum(axis=0)
        return float(curve._price(sigma) @ sigma)

    def joint_grad(profiles: np.ndarray) -> np.ndarray:
        sigma = profiles.sum(axis=0)
        row = curve._slope(sigma) * sigma + curve._price(sigma)
        return np.broadcast_to(row, profiles.shape)

    return _descend(
        joint_cost,
        joint_grad,
        scenario.project,
        _start(scenario, None), tol, _WELFARE_ITERATIONS, "welfare optimum",
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
