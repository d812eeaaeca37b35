"""Independent reference computations used only by the tests: an active-set
QP projection oracle, a grid-search and a projected-gradient best response,
finite differences, and plain reference versions of the projection's numpy
form, the topology generator, the trace writer, the synchronous loop and
the gossip loop.

These deliberately re-derive results from first principles rather than
calling the library's own solution paths; the exceptions are the two loops,
which run the library's mapping, projection and trace one round or one
event at a time, and the projection kernel, which stable-sorts every row,
so that the runners and the tie-aware sort can be held to them bit for bit;
and the projected-gradient best response, which runs the library's descent
and projection: a second route to the water-filling best response.
"""

import csv
import itertools

import numpy as np

from dsmgame.algorithms import (
    DEFAULT_EXPONENT,
    DEFAULT_THETA,
    GOSSIP_WINDOW,
    RunTrace,
    SolveResult,
    fixed_point_residual,
)
from dsmgame.feasible import project_rows
from dsmgame.model import mapping_profiles
from dsmgame.network import mix
from dsmgame.oracle import _descend


def project_qp_oracle(v, q_min, q_max, energy, tol=1e-9):
    """Exact projection onto {q : q_min <= q <= q_max, sum q = energy} by
    enumerating every lower/upper/free active-set pattern (H <= 4) and
    keeping the one whose KKT conditions hold: some multiplier lam with free
    slots at v - lam inside their box, v - lam <= q_min on lower-bound slots
    and v - lam >= q_max on upper-bound slots, and the budget met.

    The projection meets them up to rounding while every other pattern
    misses by a real margin, so the least violation wins; comparing
    distances instead cannot separate candidates closer than the rounding
    of the objective."""
    v, q_min, q_max = (np.asarray(a, dtype=float) for a in (v, q_min, q_max))
    h = v.shape[0]
    best, best_viol = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=h):
        pattern = np.array(pattern)
        lower, free, upper = pattern == -1, pattern == 0, pattern == 1
        cand = np.where(lower, q_min, 0.0) + np.where(upper, q_max, 0.0)
        if free.any():
            lam = (v[free].sum() - (energy - cand.sum())) / free.sum()
            cand = cand + np.where(free, v - lam, 0.0)
            lam_lo = lam_hi = lam
        else:
            # any lam in [max over lower of v - q_min, min over upper of
            # v - q_max] will do; the interval must not be empty
            lam_lo = np.max((v - q_min)[lower], initial=-np.inf)
            lam_hi = np.min((v - q_max)[upper], initial=np.inf)
        viol = max(
            abs(cand.sum() - energy),
            np.max(q_min - cand, initial=0.0),
            np.max(cand - q_max, initial=0.0),
            np.max((v - q_min)[lower] - lam_hi, initial=0.0),
            np.max(lam_lo - (v - q_max)[upper], initial=0.0),
        )
        if viol < best_viol:
            best, best_viol = np.clip(cand, q_min, q_max), viol
    assert best_viol <= tol, "no active-set pattern meets the KKT conditions"
    return best


def grid_best_response(others, spec, curve, points=10_000):
    """Brute-force best response for H = 2: argmin of the bill along the
    one-dimensional budget segment."""
    assert spec.horizon == 2
    lo = max(spec.q_min[0], spec.energy - spec.q_max[1])
    hi = min(spec.q_max[0], spec.energy - spec.q_min[1])
    xs = np.linspace(lo, hi, points + 1)
    qs = np.column_stack([xs, spec.energy - xs])
    bills = (curve.price_vector(qs + others) * qs).sum(axis=1)
    # the first of equal minima, as a scan with a strict `<` would keep
    return qs[np.argmin(bills)]


def reference_best_response(others, spec, curve, tol=1e-8, max_iter=20_000):
    """Best response by projected gradient with backtracking from the box
    midpoint, through the runners' projection; stops at the probe-step-1
    first-order certificate max|q - proj(q - grad)| <= tol."""
    others = np.asarray(others, dtype=float)
    q_min, q_max, energy = spec.q_min[None, :], spec.q_max[None, :], np.array([spec.energy])

    def proj(v):
        return project_rows(v, q_min, q_max, energy)[0]

    q, _ = _descend(
        lambda v: float(curve._price(v + others) @ v),
        lambda v: mapping_profiles(v, v + others, curve),
        proj,
        proj(0.5 * (spec.q_min + spec.q_max)),
        tol, max_iter, "reference best response",
    )
    return q


def mapping_finite_difference(q_n, q_sigma, curve, eps_scale=1e-6):
    """Central finite difference of the instantaneous bill, co-perturbing the
    consumer's slot and the aggregate slot (the aggregate contains the
    consumer's own consumption). The bill is a sum of per-slot terms
    p_k(sigma_k) * q_k, so slot k differences only its own term, in plain
    floats: the same derivative without the other slots' rounding."""
    out = np.empty(q_n.shape[0])
    for k in range(q_n.shape[0]):
        a, b, c = float(curve.a[k]), float(curve.b[k]), float(curve.c[k])
        own, sigma = float(q_n[k]), float(q_sigma[k])
        eps = eps_scale * max(1.0, abs(own), abs(sigma))

        def term(x):
            return (a * (sigma + x) ** b + c) * (own + x)

        out[k] = (term(eps) - term(-eps)) / (2.0 * eps)
    return out


def reference_project_rows(points, q_min, q_max, budgets):
    """The breakpoint search of `project_rows` in numpy with a stable sort of
    every row's kinks, whatever the row: the bit-for-bit reference for
    its numpy form, which stable-sorts only the rows whose kinks tie."""
    v = np.asarray(points, dtype=float)
    if v.ndim < 2:
        v = v.reshape(1, -1)
    q_min, q_max, budgets = np.asarray(q_min), np.asarray(q_max), np.asarray(budgets)
    if q_min.shape != v.shape:
        q_min = np.broadcast_to(q_min, v.shape)
    if q_max.shape != v.shape:
        q_max = np.broadcast_to(q_max, v.shape)
    if budgets.shape != v.shape[:1]:
        budgets = np.broadcast_to(budgets, v.shape[:1])
    n_slots = v.shape[1]
    kinks = np.concatenate((v - q_max, v - q_min), axis=1)
    # stable: among tied kinks a slot's upper kink precedes its lower one, so
    # the free-slot counts (how fast s falls right of each kink) never go
    # negative, the first kink opens a slot and the last one closes a slot
    order = np.argsort(kinks, axis=1, kind="stable")
    k = np.take_along_axis(kinks, order, axis=1)
    slope = np.cumsum(np.where(order < n_slots, 1, -1), axis=1)[:, :-1]
    top = q_max.sum(axis=1, keepdims=True)
    s = np.cumsum(np.concatenate((top, -slope * np.diff(k, axis=1)), axis=1), axis=1)
    # E lies between kinks p and p + 1; the last kink closes every bracket,
    # since rounding can leave its s a hair above E = sum(q_min)
    hit = s <= budgets[:, None]
    hit[:, -1] = True
    p = np.maximum(hit.argmax(axis=1) - 1, 0)
    r = np.arange(p.shape[0])
    lam = k[r, p] + (s[r, p] - budgets) / slope[r, p]
    q = np.clip(v - lam[:, None], q_min, q_max)
    # polish: spread the residual budget gap over the strictly free
    # coordinates; exact for singleton sets and keeps sums at float accuracy
    free = (q > q_min) & (q < q_max)
    n_free = free.sum(axis=1)
    adjust = np.where(n_free > 0, (budgets - q.sum(axis=1)) / np.maximum(n_free, 1), 0.0)
    return np.clip(q + adjust[:, None] * free, q_min, q_max)


def reference_topology_edges(n, target_degree, rng):
    """Edge set of the random connected graph built the direct way: a random
    attachment tree, then a shuffled list of every non-edge tuple popped
    until the mean degree reaches `target_degree`."""
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        attach = order[int(rng.integers(idx))]
        node = order[idx]
        edges.add((min(node, attach), max(node, attach)))
    non_edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges
    ]
    rng.shuffle(non_edges)
    while non_edges and 2.0 * len(edges) / n < target_degree:
        edges.add(non_edges.pop())
    return frozenset((int(a), int(b)) for a, b in edges)


def reference_trace_csv(trace, path):
    """Write a run trace field by field through `csv.writer`, every full
    state in turn: the byte format the trace CSV is pinned to."""
    horizon = trace.profiles[0].shape[1]
    header = ["t", "n", "cost", "residual"] + [f"q{h}" for h in range(1, horizon + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t_idx, ((q, _), bills, res) in enumerate(
            zip(trace.states(), trace.bills, trace.residuals), start=1
        ):
            for n in range(q.shape[0]):
                writer.writerow(
                    [t_idx, n + 1, repr(float(bills[n])), repr(float(res))]
                    + [repr(float(x)) for x in q[n]]
                )


def slot_rows(graph):
    """The row (the receiving node) of every slot of `graph`'s table."""
    sizes = np.diff(graph.starts, append=graph.cols.size)
    return np.repeat(np.arange(graph.n), sizes)


def dense_weights(graph, weights):
    """Slot weights as the N x N matrix W, W[i, j] the mass i takes from j."""
    w = np.zeros((graph.n, graph.n))
    w[slot_rows(graph), graph.cols] = weights
    return w


def slot_weights(graph, dense):
    """An N x N weight matrix read off at `graph`'s slots."""
    return np.asarray(dense, dtype=float)[slot_rows(graph), graph.cols]


def reference_synchronous(scenario, init, tol, max_iter, graph=None, weights=None):
    """Algorithm 1 (no `weights`) or algorithm 2 at the default parameters,
    with a separate residual probe per round: each round maps and projects
    its update, then `fixed_point_residual` maps and projects the new state
    again. The bit-for-bit reference for the synchronous runners, which
    project the probe and the step in one call."""
    curve = scenario.curve
    q = np.array(init, dtype=float)
    est = None if weights is None else q.copy()
    trace = RunTrace()
    trace.record(q, curve, fixed_point_residual(q, scenario), estimates=est)

    q_prev = q
    converged = False
    change = np.inf
    t = 0
    for t in range(1, max_iter + 1):
        step = float(t) ** -DEFAULT_EXPONENT
        if weights is None:
            grad = mapping_profiles(q, q.sum(axis=0), curve)
            q_next = scenario.project(q - step * (grad + DEFAULT_THETA * (q - q_prev)))
        else:
            mixed = mix(graph, weights, est, np.empty((weights.size, q.shape[1])))
            proxy = np.maximum(scenario.n_consumers * mixed, 0.0)
            q_next = scenario.project(q - step * mapping_profiles(q, proxy, curve))
            est = mixed + q_next - q
        change = float(np.max(np.abs(q_next - q)))
        q_prev, q = q, q_next
        trace.record(q, curve, fixed_point_residual(q, scenario), estimates=est)
        if change <= tol:
            converged = True
            break

    result = SolveResult(
        final_profiles=q,
        iterations=t,
        converged=converged,
        residual=change,
        fixed_point_residual=trace.residuals[-1],
    )
    return result, trace


def reference_gossip(scenario, graph, event_stream, init, tol, max_events):
    """Algorithm 3 one event at a time: pull an event, check it is an edge,
    update the pair, probe the residual every N events and record the state,
    until GOSSIP_WINDOW sub-tolerance readings in a row or the budget. The
    bit-for-bit reference for `run_algorithm3`, which batches events on
    disjoint pairs."""
    q = np.array(init, dtype=float)
    est = q.copy()
    n_consumers = scenario.n_consumers
    counters = np.zeros(n_consumers, dtype=int)
    residual = fixed_point_residual(q, scenario)
    trace = RunTrace()
    trace.record(q, scenario.curve, residual, estimates=est)

    converged = False
    streak = 0
    events_used = 0
    for event in event_stream:
        if events_used >= max_events:
            break
        i, j = event.initiator, event.contact
        if i == j or j not in graph.neighbors(i):
            raise ValueError(f"event {event} is not an edge of the graph")
        events_used += 1
        rows = np.array((i, j))
        avg = 0.5 * (est[i] + est[j])
        counters[rows] += 1
        q_pair = q.take(rows, axis=0)
        proxy = np.maximum(n_consumers * avg, 0.0)
        grads = mapping_profiles(q_pair, proxy, scenario.curve)
        q_next = project_rows(
            q_pair - grads / counters[rows, None],
            scenario.q_min_matrix.take(rows, axis=0),
            scenario.q_max_matrix.take(rows, axis=0),
            scenario.budgets[rows],
        )
        est[rows] = avg + q_next - q_pair
        q[rows] = q_next
        if events_used % n_consumers == 0:
            residual = fixed_point_residual(q, scenario)
            streak = streak + 1 if residual <= tol else 0
        trace.record(q, scenario.curve, residual, estimates=est, rows=rows)
        if streak >= GOSSIP_WINDOW:
            converged = True
            break

    final_residual = fixed_point_residual(q, scenario)
    result = SolveResult(
        final_profiles=q,
        iterations=events_used,
        converged=converged,
        residual=final_residual,
        fixed_point_residual=final_residual,
    )
    return result, trace
