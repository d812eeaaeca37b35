"""Equilibrium-seeking algorithm runners over the model/feasible/network
layers: a central proximal-point iteration, a synchronous agreement-based
iteration, and an asynchronous gossip-based iteration, all recording full
per-iteration traces.

Synchronous rounds have Jacobi semantics: every consumer's update is computed
from the round-t snapshot, never from freshly updated peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .feasible import ConsumerSpec, is_feasible, project_rows, validate
from .model import Certificate, PriceCurve, mapping_profiles, uniqueness_certificate
from .network import CommGraph, GossipEvent, is_doubly_stochastic

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
                    f"consumer {idx}: horizon {spec.horizon} != price horizon "
                    f"{self.curve.horizon}"
                )
            report = validate(spec)
            if report is not None:
                raise ValueError(f"consumer {idx}: {report}")
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


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule of the synchronous runners: power-decay t^-p or a
    constant. The gossip runner derives its 1/(update count) steps from its
    own counters."""

    kind: str
    exponent: float | None = None
    value: float | None = None

    _KINDS = ("power-decay", "constant")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "power-decay":
            if self.exponent is None or self.exponent <= 0:
                raise ValueError("power-decay needs a positive exponent")
        elif self.value is None or self.value <= 0:
            raise ValueError("constant schedule needs a positive value")

    @classmethod
    def power_decay(cls, exponent: float = DEFAULT_EXPONENT) -> "StepSchedule":
        return cls("power-decay", exponent=exponent)

    @classmethod
    def constant(cls, value: float) -> "StepSchedule":
        return cls("constant", value=value)

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError("iteration index starts at 1")
        if self.kind == "power-decay":
            return float(t) ** -self.exponent
        return self.value

    @property
    def satisfies_diminishing_conditions(self) -> bool:
        """Divergent sum with summable squares: t^-p with 0.5 < p <= 1."""
        return self.kind == "power-decay" and 0.5 < self.exponent <= 1.0


@dataclass
class RunTrace:
    """Per-iteration snapshots of a solver run.

    Index 0 is the initial state (t = 1). `residuals` holds the natural-map
    fixed-point residual at each recorded state; the gossip runner refreshes
    it only at its periodic checks and carries the last reading in between.
    """

    profiles: list[np.ndarray] = field(default_factory=list)
    estimates: list[np.ndarray] | None = None
    bills: list[np.ndarray] = field(default_factory=list)
    aggregates: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.profiles)

    def record(self, profiles, curve: PriceCurve, residual: float, estimates=None):
        q_sigma = profiles.sum(axis=0)
        self.profiles.append(profiles.copy())
        self.aggregates.append(q_sigma)
        self.bills.append(profiles @ curve.price_vector(q_sigma))
        self.residuals.append(residual)
        if estimates is not None:
            if self.estimates is None:
                self.estimates = []
            self.estimates.append(estimates.copy())

    def max_feasibility_violation(self, scenario: Scenario) -> float:
        """Worst bound/budget violation over every recorded profile."""
        worst = self.max_budget_gap(scenario)
        for q in self.profiles:
            below = np.max(scenario.q_min_matrix - q, initial=0.0)
            above = np.max(q - scenario.q_max_matrix, initial=0.0)
            worst = max(worst, below, above)
        return float(worst)

    def max_budget_gap(self, scenario: Scenario) -> float:
        return max(
            float(np.max(np.abs(q.sum(axis=1) - scenario.budgets)))
            for q in self.profiles
        )

    def max_conservation_gap(self) -> float:
        """Worst |sum_n estimate_n - sum_n profile_n| over the run (the
        dynamic-average identity preserved by mixing plus tracking)."""
        if self.estimates is None:
            return 0.0
        return max(
            float(np.max(np.abs(est.sum(axis=0) - q.sum(axis=0))))
            for q, est in zip(self.profiles, self.estimates)
        )

    def to_csv(self, path) -> None:
        """Write the long-form trace: t,n,cost,residual,q1..qH (1-based ids).

        Lines end in ``\\r\\n``; `t` and `n` are integers and every float
        field is Python's shortest round-trip ``repr``. A consumer's
        ``q1..qH`` segment is formatted once and reused while its row stays
        bitwise unchanged, so a gossip trace costs what its events change.
        """
        horizon = self.profiles[0].shape[1]
        header = ",".join(
            ["t", "n", "cost", "residual"] + [f"q{h}" for h in range(1, horizon + 1)]
        )
        prev_bits = None
        # per consumer: ",n," and the cached "q1,...,qH\r\n" line tail
        ids: list[str] = []
        tails: list[str] = []
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\r\n")
            for t_idx, (q, bills, res) in enumerate(
                zip(self.profiles, self.bills, self.residuals), start=1
            ):
                q = np.ascontiguousarray(q, dtype=np.float64)
                # compare bits, not values: -0.0 == 0.0 but their reprs differ
                bits = q.view(np.uint64)
                if prev_bits is None or bits.shape != prev_bits.shape:
                    ids = [f",{n}," for n in range(1, q.shape[0] + 1)]
                    tails = [",".join(map(repr, row)) + "\r\n" for row in q.tolist()]
                else:
                    for n in np.flatnonzero((bits != prev_bits).any(axis=1)).tolist():
                        tails[n] = ",".join(map(repr, q[n].tolist())) + "\r\n"
                prev_bits = bits
                t_s, res_s = str(t_idx), f",{float(res)!r},"
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


def fixed_point_residual(profiles, scenario: Scenario, probe_step: float = 1.0) -> float:
    """Natural-map residual max_n ||q_n - proj(q_n - s F_n)||_inf; zero
    exactly at the equilibrium for any positive probe step."""
    q = np.atleast_2d(np.asarray(profiles, dtype=float))
    grad = mapping_profiles(q, q.sum(axis=0), scenario.curve)
    probe = scenario.project(q - probe_step * grad)
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
    for n, spec in enumerate(scenario.specs):
        if not is_feasible(q[n], spec, tol=1e-9):
            raise ValueError(f"initial profile of consumer {n} is infeasible")
    return q.copy()


def _check_graph(scenario: Scenario, graph: CommGraph) -> None:
    if graph.n != scenario.n_consumers:
        raise ValueError(
            f"graph has {graph.n} nodes for {scenario.n_consumers} consumers"
        )


def _synchronous(
    scenario: Scenario,
    init,
    schedule: StepSchedule | None,
    update: Callable,
    tol: float,
    max_iter: int,
    estimates: bool,
) -> tuple[SolveResult, RunTrace]:
    """Projected Jacobi loop shared by the synchronous runners.

    Round t calls ``update(gamma(t), q(t), q(t-1), est(t))`` for
    ``(q(t+1), est(t+1))``, with q(0) := q(1); `est` starts as a copy of
    the initial profiles when `estimates` is set and is None otherwise.
    Terminates when max_n ||q(t+1) - q(t)||_inf <= tol.
    """
    schedule = schedule or StepSchedule.power_decay()
    if not schedule.satisfies_diminishing_conditions:
        raise ValueError(
            "step schedule must have divergent sum and summable squares "
            "(power-decay with exponent in (0.5, 1])"
        )
    q = _check_init(scenario, init)
    est = q.copy() if estimates else None
    trace = RunTrace()
    trace.record(q, scenario.curve, fixed_point_residual(q, scenario), estimates=est)

    q_prev = q
    converged = False
    change = np.inf
    t = 0
    for t in range(1, max_iter + 1):
        q_next, est = update(schedule(t), q, q_prev, est)
        change = float(np.max(np.abs(q_next - q)))
        q_prev, q = q, q_next
        trace.record(q, scenario.curve, fixed_point_residual(q, scenario), estimates=est)
        if change <= tol:
            converged = True
            break

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
    schedule: StepSchedule | None = None,
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 1000,
) -> tuple[SolveResult, RunTrace]:
    """Central iterative proximal-point run.

    Each round the aggregator broadcasts the true aggregate; every consumer
    applies the projected update with step gamma(t) on its mapping plus the
    proximal term theta * (q(t) - q(t-1)). The t = 1 round uses
    q(0) := q(1), so the first proximal term vanishes. Terminates when
    max_n ||q(t+1) - q(t)||_inf <= tol.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")

    def update(step, q, q_prev, est):
        grad = mapping_profiles(q, q.sum(axis=0), scenario.curve)
        return scenario.project(q - step * (grad + theta * (q - q_prev))), est

    return _synchronous(scenario, init, schedule, update, tol, max_iter, False)


def _check_weights(scenario: Scenario, graph: CommGraph, weights) -> np.ndarray:
    _check_graph(scenario, graph)
    w = np.asarray(weights, dtype=float)
    if w.shape != (graph.n, graph.n):
        raise ValueError(f"weight matrix must be {graph.n} x {graph.n}")
    if not is_doubly_stochastic(w):
        raise ValueError("weights are not doubly stochastic within 1e-12")
    mask = np.zeros_like(w, dtype=bool)
    for n, k in graph.edges:
        mask[n, k] = mask[k, n] = True
    np.fill_diagonal(mask, True)
    if np.any(w[~mask] != 0):
        raise ValueError("weights assign mass to non-neighbors")
    return w


def run_algorithm2(
    scenario: Scenario,
    graph: CommGraph,
    weights,
    schedule: StepSchedule | None = None,
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 1000,
) -> tuple[SolveResult, RunTrace]:
    """Synchronous agreement-based run.

    Per round every consumer mixes neighbor estimates of the average
    profile, projects its own update against N times the mixed estimate,
    then applies the dynamic-average tracking correction. Same termination
    rule as the central runner.
    """
    w = _check_weights(scenario, graph, weights)
    n_consumers = scenario.n_consumers

    def update(step, q, q_prev, est):
        mixed = w @ est
        grad = mapping_profiles(q, n_consumers * mixed, scenario.curve)
        q_next = scenario.project(q - step * grad)
        return q_next, mixed + q_next - q

    return _synchronous(scenario, init, schedule, update, tol, max_iter, True)


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
    far), project, and track. Convergence is declared after GOSSIP_WINDOW
    consecutive sub-tolerance residual readings, sampled every N events.
    """
    _check_graph(scenario, graph)
    q = _check_init(scenario, init)
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
        q_pair = q[rows]
        grads = mapping_profiles(q_pair, n_consumers * avg, scenario.curve)
        q_next = project_rows(
            q_pair - grads / counters[rows, None],
            scenario.q_min_matrix[rows],
            scenario.q_max_matrix[rows],
            scenario.budgets[rows],
        )
        est[rows] = avg + q_next - q_pair
        q[rows] = q_next
        if events_used % n_consumers == 0:
            residual = fixed_point_residual(q, scenario)
            streak = streak + 1 if residual <= tol else 0
        trace.record(q, scenario.curve, residual, estimates=est)
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
