"""Equilibrium-seeking algorithm runners over the model/feasible/network
layers: a central proximal-point iteration, a synchronous agreement-based
iteration, and an asynchronous gossip-based iteration, all recording
per-iteration traces.

Synchronous rounds have Jacobi semantics: every consumer's update is computed
from the round-t snapshot, never from freshly updated peers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .feasible import ConsumerSpec, project_rows
from .model import Certificate, PriceCurve, mapping_profiles, uniqueness_certificate
from .network import CommGraph, GossipEvent, mix

#: section-VII defaults for the algorithm parameters
DEFAULT_EXPONENT = 0.51
DEFAULT_THETA = 0.2
DEFAULT_TAU = 0.5
DEFAULT_TOL = 1e-6

#: consecutive sub-tolerance residual readings that declare gossip convergence
GOSSIP_WINDOW = 5


@dataclass(frozen=True)
class Scenario:
    """N consumers with a shared horizon and price curve.

    The uniqueness certificate is evaluated at construction; a failing
    certificate does not block the solvers, it only marks their results
    as unguaranteed.
    """

    specs: tuple[ConsumerSpec, ...]
    curve: PriceCurve
    certificate: Certificate | None = field(init=False, compare=False)
    q_min_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    q_max_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    budgets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        specs = tuple(self.specs)
        if not specs:
            raise ValueError("scenario needs at least one consumer")
        for idx, spec in enumerate(specs):
            if spec.horizon != self.curve.horizon:
                raise ValueError(
                    f"consumer {idx + 1}: horizon {spec.horizon} != price horizon "
                    f"{self.curve.horizon}"
                )
        object.__setattr__(self, "specs", specs)
        cert = (
            uniqueness_certificate(len(specs), self.curve) if len(specs) >= 2 else None
        )
        object.__setattr__(self, "certificate", cert)
        for name, arr in (
            ("q_min_matrix", np.vstack([s.q_min for s in specs])),
            ("q_max_matrix", np.vstack([s.q_max for s in specs])),
            ("budgets", np.array([s.energy for s in specs])),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_consumers(self) -> int:
        return len(self.specs)

    @property
    def horizon(self) -> int:
        return self.curve.horizon

    @property
    def uniqueness_verified(self) -> bool:
        return self.certificate is None or self.certificate.holds

    def project(self, points: np.ndarray) -> np.ndarray:
        """Row-wise projection of an N x H array onto the consumers' sets."""
        return project_rows(points, self.q_min_matrix, self.q_max_matrix, self.budgets)


@dataclass
class RunTrace:
    """Per-iteration snapshots of a solver run.

    Entry t of `profiles` (and of `estimates`, when the run tracks them)
    holds state t + 1; entry 0 is the initial state. An entry is the full
    N x H array, except where `partial[t]` is set: the entry then holds just
    the rows that changed since entry t - 1, and their indices, in that
    order, are the entry's stretch of the flat `changed_rows`. Every
    synchronous round is full; a gossip event keeps the two rows of its
    pair. Only `record` writes that layout and only `_walk` reads it:
    `states()`, `to_csv` and the invariant checks see full states. `bills`,
    `aggregates` and `residuals` hold one full value per state: every
    consumer's bill moves with the aggregate. `residuals`
    holds the natural-map fixed-point residual at each recorded state; the
    gossip runner refreshes it only at its periodic checks and carries the
    last reading in between.
    """

    profiles: list[np.ndarray] = field(default_factory=list)
    estimates: list[np.ndarray] | None = None
    bills: list[np.ndarray] = field(default_factory=list)
    aggregates: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    changed_rows: array = field(default_factory=lambda: array("q"))
    partial: bytearray = field(default_factory=bytearray)

    @property
    def iterations(self) -> int:
        return len(self.profiles)

    def record(
        self, profiles, curve: PriceCurve, residual: float, estimates=None, rows=None
    ):
        """Append the full state `profiles` (and `estimates`); with `rows`,
        the indices of the only rows that changed since the last entry, keep
        just those rows of each."""
        # the runners record feasible (so nonnegative) profiles only
        q_sigma = profiles.sum(axis=0)
        self.partial.append(rows is not None)
        if rows is None:
            self.profiles.append(profiles.copy())
        else:
            self.changed_rows.extend(rows)
            self.profiles.append(profiles.take(rows, axis=0))
        self.aggregates.append(q_sigma)
        self.bills.append(profiles @ curve._price(q_sigma))
        self.residuals.append(residual)
        if estimates is not None:
            if self.estimates is None:
                self.estimates = []
            self.estimates.append(
                estimates.copy() if rows is None else estimates.take(rows, axis=0)
            )

    def _walk(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield each recorded state as full float `(profiles, estimates)`
        arrays (profiles C-ordered) in one working copy: a full entry (as is
        every entry past the end of `partial`) replaces it, a partial entry
        writes its rows into it. The arrays yielded are overwritten by later
        partial entries; `estimates` is None for a run that does not track
        them."""
        index = np.array(self.changed_rows, dtype=np.intp)
        start = 0
        q = est = None
        for t, entry in enumerate(self.profiles):
            est_entry = None if self.estimates is None else self.estimates[t]
            if t < len(self.partial) and self.partial[t]:
                rows = index[start : start + len(entry)]
                start += len(entry)
                q[rows] = entry
                if est is not None:
                    est[rows] = est_entry
            else:
                q = np.array(entry, dtype=float, order="C")
                est = None if est_entry is None else np.array(est_entry, dtype=float)
            yield q, est

    def states(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield each recorded state as fresh full `(profiles, estimates)`
        arrays; `estimates` is None for a run that does not track them."""
        for q, est in self._walk():
            yield q.copy(), None if est is None else est.copy()

    def max_feasibility_violation(self, scenario: Scenario) -> float:
        """Worst bound/budget violation over every recorded profile."""
        worst = 0.0
        for q, _ in self._walk():
            below = np.max(scenario.q_min_matrix - q, initial=0.0)
            above = np.max(q - scenario.q_max_matrix, initial=0.0)
            budget = np.max(np.abs(q.sum(axis=1) - scenario.budgets))
            worst = max(worst, budget, below, above)
        return float(worst)

    def max_conservation_gap(self) -> float:
        """Worst |sum_n estimate_n - sum_n profile_n| over the run (the
        dynamic-average identity preserved by mixing plus tracking)."""
        if self.estimates is None:
            return 0.0
        return max(
            float(np.max(np.abs(est.sum(axis=0) - q.sum(axis=0))))
            for q, est in self._walk()
        )

    def to_csv(self, path) -> None:
        """Write the long-form trace: t,n,cost,residual,q1..qH (1-based ids).

        Lines end in ``\\r\\n``; `t` and `n` are integers and every float
        field is Python's shortest round-trip ``repr``. Each profile value is
        formatted once and its string reused while its bits stay unchanged,
        and a consumer's ``q1..qH`` segment is re-joined only when one of its
        values changed: each state from `_walk` is compared with the one
        before it, so slots pinned at a bound and the rows a gossip event
        leaves alone cost a comparison, not a ``repr``.
        """
        horizon = self.profiles[0].shape[1]
        header = ",".join(
            ["t", "n", "cost", "residual"] + [f"q{h}" for h in range(1, horizon + 1)]
        )
        # the previous state's bits, and per consumer: ",n," and the
        # "q1,...,qH\r\n" line tail joined from `cells`, the repr of every
        # profile value in row-major order
        bits = None
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\r\n")
            for t, ((q, _), bills, res) in enumerate(
                zip(self._walk(), self.bills, self.residuals)
            ):
                # compare bits, not values: -0.0 == 0.0 but their reprs differ
                state_bits = q.view(np.uint64)
                if bits is None:
                    n_rows = len(q)
                    bits = state_bits.copy()
                    ids = [f",{n}," for n in range(1, n_rows + 1)]
                    cells = list(map(repr, q.ravel().tolist()))
                    tails = [""] * n_rows
                    stale = range(n_rows)
                else:
                    moved = state_bits != bits
                    bits[...] = state_bits
                    flat = moved.ravel().nonzero()[0]
                    for k, value in zip(flat.tolist(), q[moved].tolist()):
                        cells[k] = repr(value)
                    stale = moved.any(axis=1).nonzero()[0].tolist()
                for n in stale:
                    tails[n] = ",".join(cells[n * horizon : (n + 1) * horizon]) + "\r\n"
                t_s, res_s = str(t + 1), f",{float(res)!r},"
                costs = np.asarray(bills, dtype=np.float64).tolist()
                fh.write("".join([
                    f"{t_s}{n_s}{cost!r}{res_s}{tail}"
                    for n_s, cost, tail in zip(ids, costs, tails)
                ]))


@dataclass(frozen=True)
class SolveResult:
    """Final state of a solver run; `converged` implies `residual` met the
    configured tolerance under the algorithm's own termination metric."""

    final_profiles: np.ndarray
    iterations: int
    converged: bool
    residual: float
    fixed_point_residual: float
    uniqueness_verified: bool


def fixed_point_residual(profiles, scenario: Scenario) -> float:
    """Natural-map residual max_n ||q_n - proj(q_n - F_n)||_inf at probe
    step 1; zero exactly at the equilibrium."""
    q = np.atleast_2d(np.asarray(profiles, dtype=float))
    grad = mapping_profiles(q, q.sum(axis=0), scenario.curve)
    probe = scenario.project(q - grad)
    return float(np.max(np.abs(q - probe)))


def _check_init(scenario: Scenario, init) -> np.ndarray:
    if init is None:
        raise ValueError("initial profiles are required")
    q = np.atleast_2d(np.asarray(init, dtype=float))
    if q.shape != (scenario.n_consumers, scenario.horizon):
        raise ValueError(
            f"initial profiles must have shape ({scenario.n_consumers}, "
            f"{scenario.horizon}), got {q.shape}"
        )
    if not np.isfinite(q).all():
        raise ValueError("profile contains non-finite entries")
    # the row-wise form of feasible.is_feasible, tolerance 1e-9
    tol = 1e-9
    below = q < scenario.q_min_matrix - tol
    out = below | (q > scenario.q_max_matrix + tol)
    sums = q.sum(axis=1)
    infeasible = out.any(axis=1) | (abs(sums - scenario.budgets) > tol)
    if infeasible.any():
        n = int(infeasible.argmax())
        if out[n].any():
            h = int(out[n].argmax())
            side, bounds = (
                ("q_min", scenario.q_min_matrix) if below[n, h]
                else ("q_max", scenario.q_max_matrix)
            )
            detail = (
                f"slot {h + 1} holds {float(q[n, h])!r}, "
                f"{side} is {float(bounds[n, h])!r}"
            )
        else:
            detail = (
                f"its sum {float(sums[n])!r} misses the budget "
                f"{float(scenario.budgets[n])!r}"
            )
        raise ValueError(f"initial profile of consumer {n + 1} is infeasible: {detail}")
    return q.copy()


def _check_graph(scenario: Scenario, graph: CommGraph) -> None:
    if graph.n != scenario.n_consumers:
        raise ValueError(
            f"graph has {graph.n} nodes for {scenario.n_consumers} consumers"
        )


def _synchronous(
    scenario: Scenario,
    init,
    step_exponent: float,
    step_point: Callable,
    tol: float,
    max_iter: int,
    estimates: bool,
) -> tuple[SolveResult, RunTrace]:
    """Projected Jacobi loop shared by the synchronous runners.

    Round t calls ``step_point(t**-p, q(t), q(t-1), est(t), grad, out)``,
    with q(0) := q(1), p = `step_exponent` and ``grad = F(q(t), sum q(t))``,
    the mapping at the true aggregate. It writes the point that projects to
    q(t+1) into `out` and returns the mixed estimates, which the tracking
    correction turns into est(t+1) = mixed + q(t+1) - q(t) (None for a run
    without estimates). `est` starts as a copy of the initial profiles when
    `estimates` is set and is None otherwise. Terminates when
    max_n ||q(t+1) - q(t)||_inf <= tol.

    Each round projects the residual probe point q(t) - grad and the step
    point in one call over 2N rows; the projection is row-independent, so
    both halves have the bits of separate calls. State t is recorded in
    round t + 1, with its residual, and the last state after the loop.
    """
    # the steps t^-p have a divergent sum and summable squares iff 0.5 < p <= 1
    if not 0.5 < step_exponent <= 1.0:
        raise ValueError(f"step exponent must lie in (0.5, 1], got {step_exponent:g}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    q = _check_init(scenario, init)
    est = q.copy() if estimates else None
    curve = scenario.curve
    n = scenario.n_consumers
    # probe rows first, then step rows; the point buffer is reused every round
    points = np.empty((2 * n, scenario.horizon))
    probe_points, step_points = points[:n], points[n:]
    q_min, q_max, budgets = (
        np.concatenate((a, a))
        for a in (scenario.q_min_matrix, scenario.q_max_matrix, scenario.budgets)
    )
    trace = RunTrace()

    q_prev = q
    converged = False
    change = np.inf
    t = 0
    for t in range(1, max_iter + 1):
        grad = mapping_profiles(q, q.sum(axis=0), curve)
        np.subtract(q, grad, out=probe_points)
        mixed = step_point(float(t) ** -step_exponent, q, q_prev, est, grad, step_points)
        projected = project_rows(points, q_min, q_max, budgets)
        residual = float(np.max(np.abs(q - projected[:n])))
        trace.record(q, curve, residual, estimates=est)
        q_next = projected[n:]
        if est is not None:
            est = mixed + q_next - q
        change = float(np.max(np.abs(q_next - q)))
        q_prev, q = q, q_next
        if change <= tol:
            converged = True
            break
    trace.record(q, curve, fixed_point_residual(q, scenario), estimates=est)

    return SolveResult(
        final_profiles=q,
        iterations=t,
        converged=converged,
        residual=change,
        fixed_point_residual=trace.residuals[-1],
        uniqueness_verified=scenario.uniqueness_verified,
    ), trace


def run_algorithm1(
    scenario: Scenario,
    theta: float = DEFAULT_THETA,
    step_exponent: float = DEFAULT_EXPONENT,
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 1000,
) -> tuple[SolveResult, RunTrace]:
    """Central iterative proximal-point run.

    Each round the aggregator broadcasts the true aggregate; every consumer
    applies the projected update with step t^-step_exponent on its mapping
    plus the proximal term theta * (q(t) - q(t-1)). The t = 1 round uses
    q(0) := q(1), so the first proximal term vanishes. Terminates when
    max_n ||q(t+1) - q(t)||_inf <= tol.
    """
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")

    def step_point(step, q, q_prev, est, grad, out):
        np.subtract(q, step * (grad + theta * (q - q_prev)), out=out)

    return _synchronous(scenario, init, step_exponent, step_point, tol, max_iter, False)


def _check_weights(scenario: Scenario, graph: CommGraph, weights) -> np.ndarray:
    """The weights as one float per slot of `graph`'s table, refused unless
    they are finite, nonnegative and doubly stochastic within 1e-12."""
    _check_graph(scenario, graph)
    w = np.asarray(weights, dtype=float)
    if w.shape != graph.cols.shape:
        raise ValueError(
            f"weights must hold one value per graph slot, N + 2|E| = "
            f"{graph.cols.size}; got shape {w.shape}"
        )
    if not np.isfinite(w).all():
        raise ValueError("weights contain non-finite entries")
    tol = 1e-12
    if w.min() < -tol:
        raise ValueError(f"weights have a negative entry below -{tol:g}")
    rows = np.add.reduceat(w, graph.starts)
    columns = np.bincount(graph.cols, weights=w, minlength=graph.n)
    if max(np.max(np.abs(rows - 1.0)), np.max(np.abs(columns - 1.0))) > tol:
        raise ValueError(f"weights are not doubly stochastic within {tol:g}")
    return w


def run_algorithm2(
    scenario: Scenario,
    graph: CommGraph,
    weights,
    step_exponent: float = DEFAULT_EXPONENT,
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 1000,
) -> tuple[SolveResult, RunTrace]:
    """Synchronous agreement-based run.

    Per round every consumer mixes neighbor estimates of the average
    profile, projects its own update against N times the mixed estimate
    (clamped at zero, a deviation from the paper: the tracked estimate can
    dip below zero for a while, where the price curve is undefined), then
    applies the dynamic-average tracking correction. Same termination rule
    as the central runner.
    """
    w = _check_weights(scenario, graph, weights)
    n_consumers = scenario.n_consumers
    buf = np.empty((w.size, scenario.horizon))

    def step_point(step, q, q_prev, est, grad, out):
        mixed = mix(graph, w, est, buf)
        # price against the proxy N * mixed clamped at zero; the estimates
        # themselves stay unclamped, so sum_n est_n = sum_n q_n holds exactly
        proxy = np.maximum(n_consumers * mixed, 0.0)
        np.subtract(q, step * mapping_profiles(q, proxy, scenario.curve), out=out)
        return mixed

    return _synchronous(scenario, init, step_exponent, step_point, tol, max_iter, True)


def _disjoint_batches(
    event_stream: Iterable[GossipEvent], graph: CommGraph, max_events: int
) -> Iterator[list[int]]:
    """Split the gossip stream into runs of consecutive events on pairwise
    disjoint pairs, each yielded as the flat row list [i1, j1, i2, j2, ...].

    A batch holds at most N // 2 pairs and ends at the budget and at every
    N-th event (a residual check), so a consumer that stops at a check has
    pulled no event past it; past the budget one more event is pulled and
    dropped. A non-edge event raises once the batch before it is consumed.
    """
    n_consumers = graph.n
    max_rows = 2 * (n_consumers // 2)
    taken = 0  # events put into batches so far
    rows: list[int] = []
    for event in event_stream:
        if taken >= max_events:
            break
        i, j = event.initiator, event.contact
        if i == j or j not in graph.neighbors(i):
            if rows:
                yield rows
            raise ValueError(f"event {event} is not an edge of the graph")
        if i in rows or j in rows:
            yield rows
            rows = []
        rows += (i, j)
        taken += 1
        if len(rows) == max_rows or taken % n_consumers == 0 or taken == max_events:
            yield rows
            rows = []
    if rows:
        yield rows


def run_algorithm3(
    scenario: Scenario,
    graph: CommGraph,
    event_stream: Iterable[GossipEvent],
    init=None,
    tol: float = DEFAULT_TOL,
    max_events: int = 10000,
) -> tuple[SolveResult, RunTrace]:
    """Asynchronous gossip-based run.

    Per event only the initiator/contact pair acts: they average their two
    estimates, step with their own frequency-based step size 1/(updates so
    far) against N times the average clamped at zero (as in
    `run_algorithm2`), project, and track. Convergence is declared after
    GOSSIP_WINDOW consecutive sub-tolerance residual readings, sampled every
    N events. Each event's trace entry keeps only the pair's two rows.

    Events on disjoint pairs commute, so consecutive ones are computed as
    one batch (one mapping and one projection call over all their rows,
    every step row-local), then applied and recorded one by one: the same
    bits as event by event. A batch ends at the budget and at each residual
    check, so the run pulls from `event_stream` just the events it uses.
    """
    if max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events}")
    _check_graph(scenario, graph)
    q = _check_init(scenario, init)
    est = q.copy()
    n_consumers, horizon = q.shape
    counters = np.zeros(n_consumers, dtype=int)
    residual = fixed_point_residual(q, scenario)
    trace = RunTrace()
    trace.record(q, scenario.curve, residual, estimates=est)

    converged = False
    streak = 0
    events_used = 0
    for rows in _disjoint_batches(event_stream, graph, max_events):
        n_pairs = len(rows) // 2
        # initiators first, then contacts: pair k's rows are k and n_pairs + k
        idx = np.array(rows[0::2] + rows[1::2])
        # the pairs' values as (2, n_pairs, H)
        pair_shape = (2, n_pairs, horizon)
        # take() copies rows at a third of the cost of q[idx]
        q_rows = q.take(idx, axis=0)
        q_pairs = q_rows.reshape(pair_shape)
        est_pairs = est.take(idx, axis=0).reshape(pair_shape)
        avg = 0.5 * (est_pairs[0] + est_pairs[1])
        counts = counters.take(idx) + 1
        counters[idx] = counts
        proxy = np.maximum(n_consumers * avg, 0.0)
        grads = mapping_profiles(q_pairs, proxy, scenario.curve)
        q_next = project_rows(
            q_rows - grads.reshape(q_rows.shape) / counts[:, None],
            scenario.q_min_matrix.take(idx, axis=0),
            scenario.q_max_matrix.take(idx, axis=0),
            scenario.budgets.take(idx),
        )
        est_next = (avg + q_next.reshape(pair_shape) - q_pairs).reshape(q_rows.shape)
        for k in range(n_pairs):
            i, j = rows[2 * k], rows[2 * k + 1]
            q[i], q[j] = q_next[k], q_next[n_pairs + k]
            est[i], est[j] = est_next[k], est_next[n_pairs + k]
            events_used += 1
            if events_used % n_consumers == 0:
                residual = fixed_point_residual(q, scenario)
                streak = streak + 1 if residual <= tol else 0
            trace.record(q, scenario.curve, residual, estimates=est, rows=(i, j))
        # only a batch's last event can be a residual check
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
        uniqueness_verified=scenario.uniqueness_verified,
    )
    return result, trace
