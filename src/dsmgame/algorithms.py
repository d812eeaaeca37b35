"""Equilibrium-seeking algorithm runners over the model/feasible/network
layers: a central proximal-point iteration, a synchronous agreement-based
iteration, and an asynchronous gossip-based iteration, all recording
per-iteration traces.

Synchronous rounds have Jacobi semantics: every consumer's update is computed
from the round-t snapshot, never from freshly updated peers.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from ._numtext import CHUNK, RowTexts, float_texts, json_rows, open_output, row_reprs
from .feasible import ConsumerSpec, first_infeasible, project_rows
from .model import Certificate, PriceCurve, bills, mapping_profiles, uniqueness_certificate
from .network import CommGraph, GossipEvent, check_weights, mix

#: section-VII defaults for the algorithm parameters
DEFAULT_EXPONENT = 0.51
DEFAULT_THETA = 0.2
DEFAULT_TAU = 0.5
DEFAULT_TOL = 1e-6

#: consecutive sub-tolerance residual readings that declare gossip convergence
GOSSIP_WINDOW = 5


_NOT_NUMBERS = {str, bool}


def number_types(values) -> set[type]:
    """The types of what `values`, a number or lists of them nested to any
    depth as a JSON reader hands them over, holds apart from its lists:
    one type pass per nesting level, which stops at the first level that
    holds a string or a boolean. `{float}` where every number is a float."""
    seen, types, level = set(), {type(values)}, iter([values])
    while True:
        seen |= types
        if list not in types or types & _NOT_NUMBERS:
            return seen - {list}
        lists = [item for item in level if type(item) is list]
        types = set(map(type, chain.from_iterable(lists)))
        level = chain.from_iterable(lists)


def quoted(value) -> str:
    """`value`, as a JSON reader hands it over, in the JSON text that a
    refusal echoes: cut to 40 characters, with "..." before its last one
    (a string's closing quote, a list's bracket) where it is longer."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:36] + "..." + text[-1]


def non_number(values, where: str, types: set[type] | None = None) -> str | None:
    """None unless a string or a boolean sits where `values`, a number or
    lists of them nested to any depth, should hold numbers, as a JSON
    reader hands them over; else a message naming the first one,
    `where[i][j]: "1.5" is not a number`, though `float()` would read it.
    The `number_types` of `values` decide (pass them as `types` where the
    caller has them); only a refusal walks to the entry."""
    if not (number_types(values) if types is None else types) & _NOT_NUMBERS:
        return None
    stack = [(where, values)]
    while stack:
        place, item = stack.pop()
        if type(item) in _NOT_NUMBERS:
            return f"{place}: {quoted(item)} is not a number"
        if type(item) is list:
            stack.extend((f"{place}[{i}]", x) for i, x in reversed(list(enumerate(item))))
    raise AssertionError("unreachable")


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
            ("q_min_matrix", np.array([s.q_min for s in specs])),
            ("q_max_matrix", np.array([s.q_max for s in specs])),
            ("budgets", np.array([s.energy for s in specs])),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # prices rise with load, so the largest aggregate L = sum_n q_max_n
        # bounds the price, the mapping p'(L) max_n q_max_n + p(L) and every
        # bill (the grid cost p(L) . L, summed over the slots so far) at
        # every feasible state
        q_max = self.q_max_matrix
        with np.errstate(over="ignore"):
            peak = q_max.sum(axis=0)
            mapping = mapping_profiles(q_max.max(axis=0), peak, self.curve)
            cost = np.cumsum(self.curve.price_vector(peak) * peak)
        # a price that overflows makes its mapping overflow too
        overflow = ~(np.isfinite(mapping) & np.isfinite(cost))
        if overflow.any():
            h = int(overflow.argmax())
            raise ValueError(
                f"slot {h + 1}: the price, the mapping or the grid cost overflows "
                f"at the largest aggregate load {peak[h]:g}"
            )

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

    def profile_array(self, values, what: str, types: set[type] | None = None) -> np.ndarray:
        """`values` as a float (N, H) array of finite loads, without a copy
        where they already are one; a ValueError naming `what` otherwise,
        and naming the entry where a list holds a string or a boolean.
        `types`, where given, are the `number_types` of the lists `values`."""
        shape = (self.n_consumers, self.horizon)
        if not isinstance(values, np.ndarray):
            refused = non_number(values, what, types)
            if refused is not None:
                raise ValueError(refused)
        try:
            q = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError):
            q = None
        if q is None or q.shape != shape:
            got = "" if q is None else f", got shape {q.shape}"
            raise ValueError(f"{what} must be an array of numbers of shape {shape}{got}")
        finite = np.isfinite(q)
        if not finite.all():
            # argmin over the flat array: the first non-finite entry, row-major
            n, h = divmod(int(finite.argmin()), self.horizon)
            raise ValueError(
                f"{what}: consumer {n + 1}, slot {h + 1}: load {q[n, h]:g} is non-finite"
            )
        return q


@dataclass
class RunTrace:
    """Per-iteration snapshots of a solver run on the price curve `curve`:
    its states and nothing derived from them.

    Entry t of `profiles` (and of `estimates`, when the run tracks them)
    holds state t + 1; entry 0 is the initial state. Every entry is a full
    N x H state, as a synchronous round records, or, in a pair trace, every
    entry after the first holds just the two rows of a gossip event's pair,
    entry t's rows being `changed_rows[2t - 2 : 2t]` in that order; a trace
    is a pair trace exactly when `changed_rows` is non-empty. Only `record`
    writes that layout, and only `_state_blocks` reads it, to rebuild the
    states for `states()`, `bills`, `aggregates`, the invariant checks and
    `to_csv`. `residuals` holds the natural-map fixed-point residual at
    each recorded state; the gossip runner refreshes it only at its
    periodic checks and carries the last reading in between. `curve`
    prices the states' bills on demand.
    """

    curve: PriceCurve
    profiles: list[np.ndarray] = field(init=False, default_factory=list)
    estimates: list[np.ndarray] | None = field(init=False, default=None)
    residuals: list[float] = field(init=False, default_factory=list)
    changed_rows: array = field(init=False, default_factory=lambda: array("q"))

    @property
    def iterations(self) -> int:
        return len(self.profiles)

    def record(self, profiles, residual, estimates=None, rows=None):
        """Append `residual` and a copy of `profiles` (and of `estimates`):
        the full state, or with `rows` a pair's two rows, row k being the
        state's row `rows[k]`.

        With `rows` of shape (m, 2), m pair entries at once: `profiles`
        (and `estimates`) are (m, 2, H), entry e's rows being `rows[e]`,
        and `residual` holds the m entries' residuals. The block is copied
        once, and each entry is a view of its copy. One entry's `rows`
        take that path as a block of one.

        A ValueError naming the entry, before anything is appended, where
        the trace would leave its two layouts or entry 0's N x H (a pair,
        its H), or where an entry has estimates and entry 0 has none, or
        the other way round. The checks take constant time; the pairs' row
        indices are checked when the trace is read."""
        t = len(self.profiles)
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim == 1:
                rows, profiles, residual = rows[None], profiles[None], [residual]
                estimates = None if estimates is None else estimates[None]
            if not t:
                raise ValueError("the first trace entry must be a full state, not rows")
            if not len(rows) == len(profiles) == len(residual):
                raise ValueError(
                    f"{len(rows)} entries of row indices for {len(profiles)} of rows "
                    f"and {len(residual)} residuals"
                )
            if rows.shape[1] != profiles.shape[1]:
                raise ValueError(f"{rows.shape[1]} row indices for {profiles.shape[1]} rows")
            if rows.shape[1] != 2:
                raise ValueError(f"trace entry {t}: {rows.shape[1]} rows, not a pair")
        if t > 1 and (rows is None) == bool(self.changed_rows):
            raise ValueError(
                f"trace entry {t}: a {'full state' if rows is None else 'pair'}; "
                "a trace is all full states, or one full state and then pairs"
            )
        tail = 2 if rows is None else 1  # a full state's N x H, a pair's H
        if t and profiles.shape[-tail:] != self.profiles[0].shape[-tail:]:
            raise ValueError(
                f"trace entry {t}: shape {profiles.shape} does not fit entry 0's "
                f"{self.profiles[0].shape}"
            )
        if t and (estimates is None) != (self.estimates is None):
            has, other = ("no estimates", "them") if estimates is None else ("estimates", "none")
            raise ValueError(f"trace entry {t}: {has}, but entry 0 has {other}")
        if estimates is not None and estimates.shape != profiles.shape:
            shapes = f"estimates {estimates.shape} for profiles {profiles.shape}"
            raise ValueError(f"trace entry {t}: {shapes}")
        if rows is None:
            self.profiles.append(profiles.copy())
            self.residuals.append(residual)
            est_entries = None if estimates is None else [estimates.copy()]
        else:
            self.changed_rows.extend(rows.ravel().tolist())
            self.profiles.extend(profiles.copy())
            self.residuals.extend(residual)
            est_entries = None if estimates is None else estimates.copy()
        if est_entries is not None:
            self.estimates = self.estimates or []
            self.estimates.extend(est_entries)

    def _state_blocks(
        self, estimates: bool = False
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray | None]]:
        """Yield the recorded states in order, a block of at most
        `CHUNK` // (N + 1) of them at a time, as `(start, states,
        estimates, pairs)`: the block's first state number, its states as
        one float (m, N, H) array, its estimates alike for a caller that
        asks and a run that tracks them (None otherwise), and for a block
        of pair entries their (m, 2) rows (None for full entries; a pair
        trace's entry 0 is a block of one). The arrays are buffers that
        the next block overwrites. A full block copies its entries. A pair
        block is gathered from the state before it in one pass: each entry
        points its pair at its stored rows, and a running maximum over
        those writers carries each consumer's latest one forward. A
        ValueError, before the first block, where a pair's row index is
        out of range or repeated."""
        if not self.profiles:
            return
        n_rows, horizon = self.profiles[0].shape
        index = np.array(self.changed_rows, dtype=np.intp).reshape(-1, 2)
        bad = (index < 0) | (index >= n_rows)
        bad[:, 1] |= index[:, 0] == index[:, 1]
        if bad.any():
            k = int(bad.argmax())
            row = index.flat[k]
            what = "repeated" if 0 <= row < n_rows else f"outside 0..{n_rows - 1}"
            raise ValueError(f"trace entry {k // 2 + 1}: row index {row} is {what}")
        total = len(self.profiles)
        full = 1 if len(index) else total  # the entries that are full states
        step = max(1, CHUNK // (n_rows + 1))
        # per kind read, the profiles and maybe the estimates: the buffer its
        # blocks are rebuilt in and, for pair blocks, its source, the state
        # before the next block (at first entry 0) and room for its rows
        tracked = estimates and self.estimates is not None
        kinds = [self.profiles, self.estimates] if tracked else [self.profiles]
        buffers = [np.empty((min(step, total), n_rows, horizon)) for _ in kinds]
        sources = [np.empty((n_rows + 2 * step, horizon)) for _ in kinds] if full < total else []
        for source, entries in zip(sources, kinds):
            source[:n_rows] = entries[0]
        bounds = [*range(0, full, step), *range(full, total, step), total]
        for t0, t1 in zip(bounds, bounds[1:]):
            blocks = [buffer[: t1 - t0] for buffer in buffers]
            pairs = None if t0 < full else index[t0 - 1 : t1 - 1]
            if pairs is None:
                for entries, block in zip(kinds, blocks):
                    np.stack(entries[t0:t1], out=block)
            else:
                m, rows = t1 - t0, pairs.ravel()
                writer = np.zeros((m, n_rows), dtype=np.intp)
                writer[0] = np.arange(n_rows)
                writer[np.arange(m).repeat(2), rows] = np.arange(n_rows, n_rows + 2 * m)
                writer = np.maximum.accumulate(writer, axis=0)
                for entries, block, source in zip(kinds, blocks, sources):
                    np.concatenate(entries[t0:t1], out=source[n_rows : n_rows + 2 * m])
                    # the writers are in range by construction; with out=,
                    # mode="raise" would copy through a temporary
                    source.take(writer, axis=0, out=block, mode="clip")
                    source[rows] = block[-1, rows]
            yield t0, blocks[0], blocks[1] if len(blocks) > 1 else None, pairs

    def _state_bills(self, states: np.ndarray, start: int) -> np.ndarray:
        """The bills (m, N) of `states`, the recorded states `start`,
        `start` + 1, ... stacked (m, N, H): every reader prices states here,
        with `model.bills` (the runners record nonnegative profiles only)."""
        return bills(states, self.curve)

    @property
    def bills(self) -> list[np.ndarray]:
        """Every consumer's bill at each recorded state, derived on access."""
        return [
            state_bills
            for start, states, *_ in self._state_blocks()
            for state_bills in self._state_bills(states, start)
        ]

    @property
    def aggregates(self) -> list[np.ndarray]:
        """The aggregate load at each recorded state, derived on access."""
        return [q.sum(axis=0) for _, states, *_ in self._state_blocks() for q in states]

    def states(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield each recorded state as fresh full `(profiles, estimates)`
        arrays; `estimates` is None for a run that does not track them."""
        for _, states, ests, _ in self._state_blocks(estimates=True):
            for k, q in enumerate(states):
                yield q.copy(), None if ests is None else ests[k].copy()

    def max_feasibility_violation(self, scenario: Scenario) -> float:
        """Worst bound/budget violation over every recorded profile."""
        worst = 0.0
        for _, states, *_ in self._state_blocks():
            below = np.max(scenario.q_min_matrix - states, initial=0.0)
            above = np.max(states - scenario.q_max_matrix, initial=0.0)
            budget = np.max(np.abs(states.sum(axis=2) - scenario.budgets))
            worst = max(worst, budget, below, above)
        return float(worst)

    def max_conservation_gap(self) -> float:
        """Worst |sum_n estimate_n - sum_n profile_n| over the run (the
        dynamic-average identity preserved by mixing plus tracking); 0.0
        for a run that does not track estimates, or records no state."""
        if self.estimates is None:
            return 0.0
        return max(
            (
                float(np.max(np.abs(ests.sum(axis=1) - states.sum(axis=1))))
                for _, states, ests, _ in self._state_blocks(estimates=True)
            ),
            default=0.0,
        )

    def to_csv(self, path, first: RowTexts | None = None) -> RowTexts:
        """Write the long-form trace: t,n,cost,residual,q1..qH (1-based ids),
        the cost being each state's bills as `bills` derives them; return
        the rows of the last state's profiles. A ValueError, before the
        file is opened, for a trace that holds no state.

        Lines end in ``\\r\\n``; `t` and `n` are integers and every float
        field is Python's shortest round-trip ``repr``: `float_texts` writes
        those bytes, for the states of a block (`_state_blocks`) at a time.
        A full block formats the profile values that moved, each state's
        against the bits of the state before it, with the bills and
        residuals, in calls of at most `CHUNK` values or one state that
        has more: each profile value's text is reused while its bits stay
        unchanged, and a consumer's ``q1..qH`` segment is re-joined only
        when one of its values changed, so slots pinned at a bound cost a
        comparison, not a format. A pair block formats its bills and
        residuals in one call, and each event swaps in the segments of its
        pair's two rows, rendered whole in windows of pairs. `first`, the
        rows of a finite float64 array of the profiles' shape (finite, so
        that their JSON texts are the `repr`s), stands for a state before
        the first: the first state then formats only the values whose bits
        differ from it, none where they render the same state, as the rows
        `load_scenario` kept render a run's initial profiles.
        """
        if not self.profiles:
            raise ValueError("the trace holds no state to write")
        n_rows, horizon = self.profiles[0].shape
        header = ",".join(
            ["t", "n", "cost", "residual"] + [f"q{h}" for h in range(1, horizon + 1)]
        )
        # the text of every profile value in row-major order, and per
        # consumer the "q1,...,qH\r\n" line tail joined from it
        cells = np.empty(n_rows * horizon, dtype=object)
        rows = cells.reshape(n_rows, horizon)
        tails = [""] * n_rows
        # the bits of the state before, None where every value is to format
        bits = None
        if (
            first is not None
            and first.values.dtype == np.float64
            and first.values.shape == (n_rows, horizon)
            and np.isfinite(first.values).all()
        ):
            bits = first.values.view(np.uint64).copy()
            cells[:] = ",".join(first.texts).split(",")
            tails = [row + "\r\n" for row in first.texts]
        # a pair trace's rows, pair after pair, rendered in windows of about
        # `CHUNK` values, apart from the blocks of states: so they take the
        # fast path of `row_reprs` where a block's rows would be too few
        window = max(1, CHUNK // (2 * horizon))
        stored = (
            row + "\r\n"
            for t in range(1, len(self.profiles), window)
            for row in row_reprs(np.concatenate(self.profiles[t : t + window]))
        )
        # one state's lines as 5N pieces, t,n,cost,residual,tail per consumer,
        # kept from state to state
        line = [""] * (5 * n_rows)
        line[1::5] = [f",{n}," for n in range(1, n_rows + 1)]
        with open_output(path, newline="") as fh:

            def write_state(t: int, costs: list[str], res: str) -> None:
                line[0::5] = [str(t + 1)] * n_rows
                line[2::5] = costs
                line[3::5] = [f",{res},"] * n_rows
                line[4::5] = tails
                fh.write("".join(line))

            def write_full(changes: list) -> None:
                values = [
                    a for _, _, moved, _, costs, res in changes for a in (moved, costs, [res])
                ]
                texts = np.array(float_texts(np.concatenate(values)), dtype=object)
                pos = 0
                for t, flat, _, stale, _, _ in changes:
                    cells[flat] = texts[pos : pos + flat.size]
                    pos += flat.size
                    for n, row in zip(stale.tolist(), rows[stale].tolist()):
                        tails[n] = ",".join(row) + "\r\n"
                    write_state(t, texts[pos : pos + n_rows].tolist(), texts[pos + n_rows])
                    pos += n_rows + 1

            fh.write(header + "\r\n")
            for start, states, _, pairs in self._state_blocks():
                costs = np.asarray(self._state_bills(states, start), dtype=np.float64)
                residuals = self.residuals[start : start + len(states)]
                if pairs is not None:
                    texts = float_texts(np.concatenate((costs.ravel(), residuals)))
                    for k, (i, j) in enumerate(pairs.tolist()):
                        tails[i], tails[j] = next(stored), next(stored)
                        res = texts[costs.size + k]
                        write_state(start + k, texts[k * n_rows : (k + 1) * n_rows], res)
                    continue
                changes, size = [], 0
                for k, q in enumerate(states):
                    # compare bits, not values: -0.0 == 0.0 but their reprs differ
                    state_bits = q.view(np.uint64)
                    if bits is None:
                        bits = state_bits.copy()
                        moved = np.ones(q.shape, dtype=bool)
                    else:
                        moved = state_bits != bits
                        bits[...] = state_bits
                    flat = moved.ravel().nonzero()[0]
                    if changes and size + flat.size + n_rows + 1 > CHUNK:
                        write_full(changes)
                        changes, size = [], 0
                    stale = moved.any(axis=1).nonzero()[0]
                    changes.append((start + k, flat, q[moved], stale, costs[k], residuals[k]))
                    size += flat.size + n_rows + 1
                write_full(changes)
        return RowTexts(states[-1].copy(), json_rows([tail[:-2] for tail in tails]))


@dataclass(frozen=True)
class SolveResult:
    """Final state of a solver run; `converged` implies `residual` met the
    configured tolerance under the algorithm's own termination metric."""

    final_profiles: np.ndarray
    iterations: int
    converged: bool
    residual: float
    fixed_point_residual: float


def fixed_point_residual(profiles, scenario: Scenario) -> float:
    """Natural-map residual max_n ||q_n - proj(q_n - F_n)||_inf at probe
    step 1; zero exactly at the equilibrium."""
    q = scenario.profile_array(profiles, "profiles")
    grad = mapping_profiles(q, q.sum(axis=0), scenario.curve)
    probe = scenario.project(q - grad)
    return float(np.max(np.abs(q - probe)))


def _check_init(scenario: Scenario, init) -> np.ndarray:
    if init is None:
        raise ValueError("initial profiles are required")
    q = scenario.profile_array(init, "initial profiles")
    found = first_infeasible(
        q, scenario.q_min_matrix, scenario.q_max_matrix, scenario.budgets
    )
    if found is not None:
        n, detail = found
        raise ValueError(f"initial profile of consumer {n + 1} is infeasible: {detail}")
    return q.copy()


def check_tol(tol: float) -> None:
    """Refuse a tolerance that no residual can meet, NaN or negative, and
    one that every residual meets at once, infinity."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol:g}")


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
    check_tol(tol)
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
    trace = RunTrace(curve)

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
        trace.record(q, residual, estimates=est)
        q_next = projected[n:]
        if est is not None:
            est = mixed + q_next - q
        change = float(np.max(np.abs(q_next - q)))
        q_prev, q = q, q_next
        if change <= tol:
            converged = True
            break
    trace.record(q, fixed_point_residual(q, scenario), estimates=est)

    return SolveResult(
        final_profiles=q,
        iterations=t,
        converged=converged,
        residual=change,
        fixed_point_residual=trace.residuals[-1],
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
    _check_graph(scenario, graph)
    w = check_weights(graph, weights)
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


#: an event of a window: (initiator, contact, level, pair number in its level)
_Event = tuple[int, int, int, int]
#: a dependency level of a window: its initiators and contacts in stream order
_Level = tuple[list[int], list[int]]
#: a window: its events in stream order and its dependency levels
_Window = tuple[list[_Event], list[_Level]]


def _windows(
    event_stream: Iterable[GossipEvent], graph: CommGraph, max_events: int
) -> Iterator[_Window]:
    """Split the gossip stream into residual-check windows, each yielded as
    its events in stream order and its dependency levels.

    Event k's level is one more than the highest level among the window's
    earlier events on its initiator or its contact, or 0 if there are none.
    So the events of a level touch pairwise disjoint nodes, and a node's
    events sit in strictly increasing levels in stream order.

    A window ends at every N-th event (a residual check) and at the budget,
    so a consumer that stops at a check has pulled no event past it, and no
    event past the budget is pulled. An event that is not an edge of `graph`
    (a self-loop, a node outside 0..N-1 or two nodes that are not
    neighbours) raises once the window before it is consumed.
    """
    n_consumers = graph.n
    neighbors = graph.neighbors
    taken = 0  # events put into windows so far
    events: list[_Event] = []
    levels: list[_Level] = []
    depth = [0] * n_consumers  # per node, one more than its latest event's level
    for event in islice(event_stream, max_events):
        i, j = event.initiator, event.contact
        # a node is not its own neighbour, nor is a node outside 0..N-1
        if not 0 <= i < n_consumers or j not in neighbors(i):
            if events:
                yield events, levels
            raise ValueError(f"event {event} is not an edge of the graph")
        a, b = depth[i], depth[j]
        level = a if a > b else b
        depth[i] = depth[j] = level + 1
        if level == len(levels):
            levels.append(([], []))
        initiators, contacts = levels[level]
        events.append((i, j, level, len(initiators)))
        initiators.append(i)
        contacts.append(j)
        taken += 1
        if taken % n_consumers == 0 or taken == max_events:
            yield events, levels
            events, levels, depth = [], [], [0] * n_consumers
    if events:
        yield events, levels


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

    Events on disjoint pairs commute. So the events between two residual
    checks (a window; it also ends at the budget) are grouped by dependency
    level, see `_windows`, and each level is computed as one batch: one
    mapping and one projection call over all its rows, every step
    row-local. A level gathers its rows from the run's state and scatters
    its new rows back. A node's events sit in strictly increasing levels,
    so each event reads the rows of the latest earlier event on its nodes,
    the rows the event-by-event loop gives it: the same bits. Each event's
    trace entry is its pair's two rows of its level's result; one gather
    stacks them in stream order, and one `record` call appends the
    window's entries. After a window's levels the state is the one after
    its last event, the only one a residual check can fall on. The run pulls
    from `event_stream` just the events it uses.
    """
    if not 1 <= max_events <= sys.maxsize:
        bound = "at least 1" if max_events < 1 else f"at most {sys.maxsize}"
        raise ValueError(f"max_events must be {bound}, got {max_events}")
    check_tol(tol)
    _check_graph(scenario, graph)
    q = _check_init(scenario, init)
    est = q.copy()
    n_consumers, horizon = q.shape
    counters = [0] * n_consumers  # updates per consumer so far
    residual = fixed_point_residual(q, scenario)
    trace = RunTrace(scenario.curve)
    trace.record(q, residual, estimates=est)

    converged = False
    streak = 0
    events_used = 0
    for events, levels in _windows(event_stream, graph, max_events):
        q_new, est_new = [], []  # per level, its new q and est rows
        for initiators, contacts in levels:
            n_pairs = len(initiators)
            rows = initiators + contacts
            idx = np.array(rows)
            # take() copies rows at a third of the cost of q[idx]
            q_rows = q.take(idx, axis=0)
            est_rows = est.take(idx, axis=0)
            # the pairs' values as (2, n_pairs, H): pair m's rows are m and
            # n_pairs + m
            pair_shape = (2, n_pairs, horizon)
            q_pairs = q_rows.reshape(pair_shape)
            est_pairs = est_rows.reshape(pair_shape)
            avg = 0.5 * (est_pairs[0] + est_pairs[1])
            for node in rows:
                counters[node] += 1
            counts = np.array([counters[node] for node in rows])
            proxy = np.maximum(n_consumers * avg, 0.0)
            grads = mapping_profiles(q_pairs, proxy, scenario.curve)
            q_next = project_rows(
                q_rows - grads.reshape(q_rows.shape) / counts[:, None],
                scenario.q_min_matrix.take(idx, axis=0),
                scenario.q_max_matrix.take(idx, axis=0),
                scenario.budgets.take(idx),
            )
            est_next = (avg + q_next.reshape(pair_shape) - q_pairs).reshape(q_rows.shape)
            q[idx], est[idx] = q_next, est_next
            q_new.append(q_next)
            est_new.append(est_next)
        # event (i, j, level, m) has the rows m and n_pairs + m of its
        # level's result: rows `first` and `first + n_pairs` of the levels'
        # results stacked
        starts, stacked = [], 0
        for initiators, _ in levels:
            starts.append(stacked)
            stacked += 2 * len(initiators)
        at, pairs = [], []
        for i, j, level, m in events:
            first = starts[level] + m
            at += (first, first + len(levels[level][0]))
            pairs.append((i, j))
        residuals = [residual] * len(events)
        events_used += len(events)
        # only a window's last event can be a residual check
        if events_used % n_consumers == 0:
            residual = residuals[-1] = fixed_point_residual(q, scenario)
            streak = streak + 1 if residual <= tol else 0
        block = (len(events), 2, horizon)
        trace.record(
            np.concatenate(q_new).take(at, axis=0).reshape(block),
            residuals,
            estimates=np.concatenate(est_new).take(at, axis=0).reshape(block),
            rows=pairs,
        )
        if streak >= GOSSIP_WINDOW:
            converged = True
            break

    # a run that stopped at a residual check (every converged run, and any
    # run whose budget is a multiple of N) has probed its final state
    if events_used % n_consumers:
        residual = fixed_point_residual(q, scenario)
    result = SolveResult(
        final_profiles=q,
        iterations=events_used,
        converged=converged,
        residual=residual,
        fixed_point_residual=residual,
    )
    return result, trace
