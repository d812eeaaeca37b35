"""Equilibrium-seeking algorithm runners over the model/feasible/network
layers: a central proximal-point iteration, a synchronous agreement-based
iteration, and an asynchronous gossip-based iteration, all recording
per-iteration traces.

Synchronous rounds have Jacobi semantics: every consumer's update is computed
from the round-t snapshot, never from freshly updated peers.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from typing import Callable, Iterable, Iterator, NamedTuple

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


class _PartialBlock(NamedTuple):
    """Consecutive partial trace entries as `to_csv` writes them: per
    entry its number of stored rows, the stored rows' indices entry after
    entry, the bills of the states (m, N), their residuals and the full
    state after the last entry, a view that the run's next block
    overwrites."""

    sizes: list[int]
    rows: list[int]
    bills: np.ndarray
    residuals: list[float]
    last: np.ndarray


@dataclass
class RunTrace:
    """Per-iteration snapshots of a solver run on the price curve `curve`:
    its states and nothing derived from them.

    Entry t of `profiles` (and of `estimates`, when the run tracks them)
    holds state t + 1; entry 0 is the initial state. An entry is the full
    N x H array, except where `partial[t]` is set: the entry then holds just
    the rows that changed since entry t - 1, and their indices, in that
    order, are the entry's stretch of the flat `changed_rows`. Every
    synchronous round is full; a gossip event keeps the two rows of its
    pair; the first entry is always full. Only `record` writes that layout,
    and `_layout` checks it for its two readers: `_walk` rebuilds one state
    after another, for `states()`, `bills`, `aggregates` and the invariant
    checks, and `to_csv` writes a run of partial entries a block of states
    at a time, each block's states gathered from its entries' rows in one
    pass, with the rows it stores rendered whole. `residuals` holds the
    natural-map fixed-point residual at each recorded state; the gossip
    runner refreshes it only at its periodic checks and carries the last
    reading in between. `curve` prices the states' bills on demand.
    """

    curve: PriceCurve
    profiles: list[np.ndarray] = field(default_factory=list)
    estimates: list[np.ndarray] | None = None
    residuals: list[float] = field(default_factory=list)
    changed_rows: array = field(default_factory=lambda: array("q"))
    partial: bytearray = field(default_factory=bytearray)

    @property
    def iterations(self) -> int:
        return len(self.profiles)

    def record(self, profiles, residual, estimates=None, rows=None):
        """Append `residual` and a copy of `profiles` (and of `estimates`):
        the full state, or with `rows` just the rows that changed since the
        last entry, row k of each being the state's row `rows[k]`.

        With `rows` of shape (m, k), m partial entries at once: `profiles`
        (and `estimates`) are (m, k, H), entry e's rows being `rows[e]`,
        and `residual` holds the m entries' residuals. The block is copied
        once, and each entry is a view of its copy. One entry's `rows`
        take that path as a block of one. The first entry must be a full
        state, and each entry's `rows` must name every row given."""
        if rows is None:
            self.partial.append(0)
            self.profiles.append(profiles.copy())
            self.residuals.append(residual)
            est_entries = None if estimates is None else [estimates.copy()]
        else:
            rows = np.asarray(rows)
            if rows.ndim == 1:
                rows, profiles, residual = rows[None], profiles[None], [residual]
                estimates = None if estimates is None else estimates[None]
            if not self.profiles:
                raise ValueError("the first trace entry must be a full state, not rows")
            if not len(rows) == len(profiles) == len(residual):
                raise ValueError(
                    f"{len(rows)} entries of row indices for {len(profiles)} of rows "
                    f"and {len(residual)} residuals"
                )
            if rows.shape[1] != profiles.shape[1]:
                raise ValueError(f"{rows.shape[1]} row indices for {profiles.shape[1]} rows")
            self.changed_rows.extend(rows.ravel().tolist())
            self.partial.extend(b"\x01" * len(rows))
            self.profiles.extend(profiles.copy())
            self.residuals.extend(residual)
            est_entries = None if estimates is None else estimates.copy()
        if est_entries is not None:
            if self.estimates is None:
                self.estimates = []
            self.estimates.extend(est_entries)

    def _flags(self) -> bytes:
        """Per entry, 1 where it is partial (0 past the end of `partial`)."""
        flags = bytes(self.partial[: len(self.profiles)])
        return flags + bytes(len(self.profiles) - len(flags))

    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """`changed_rows` as an index array, and per entry where its stretch
        of it starts: entry t's rows are `index[starts[t]:starts[t + 1]]`,
        none for a full entry. A ValueError where the layout describes no
        states: a partial first entry, more or fewer indices than stored
        rows, or a row index out of range or repeated in its entry."""
        flags = self._flags()
        if flags[:1] == b"\x01":
            raise ValueError("trace entry 0 is partial: a trace starts with a full state")
        sizes = [len(entry) if part else 0 for entry, part in zip(self.profiles, flags)]
        starts = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=starts[1:])
        index = np.array(self.changed_rows, dtype=np.intp)
        if index.size != starts[-1]:
            raise ValueError(
                f"the partial trace entries store {starts[-1]} rows, but "
                f"changed_rows holds {index.size} indices"
            )
        n_rows = len(self.profiles[0]) if self.profiles else 0
        entry = np.repeat(np.arange(len(sizes)), sizes)
        # one key per (entry, row), a distinct negative one per index out
        # of range; a key met twice is a row repeated in its entry
        outside = (index < 0) | (index >= n_rows)
        key = np.where(outside, -1 - np.arange(index.size), entry * n_rows + index)
        order = np.argsort(key, kind="stable")
        bad = outside.copy()
        bad[order[1:]] |= key[order[1:]] == key[order[:-1]]
        if bad.any():
            k = int(bad.argmax())
            what = f"outside 0..{n_rows - 1}" if outside[k] else "repeated"
            raise ValueError(f"trace entry {entry[k]}: row index {index[k]} is {what}")
        return index, starts

    def _walk(
        self, estimates: bool = True
    ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield each recorded state as full float `(profiles, estimates)`
        arrays (profiles C-ordered) in one working copy: a full entry
        replaces it, a partial entry writes its rows into it. The arrays
        yielded are overwritten by later partial entries; `estimates` is
        None for a run that does not track them, and for a caller that
        passes `estimates=False`."""
        index, starts = self._layout()
        est_entries = self.estimates if estimates else None
        q = est = None
        for t, (entry, part) in enumerate(zip(self.profiles, self._flags())):
            est_entry = None if est_entries is None else est_entries[t]
            if part:
                rows = index[starts[t] : starts[t + 1]]
                q[rows] = entry
                if est is not None:
                    est[rows] = est_entry
            else:
                q = np.array(entry, dtype=float, order="C")
                est = None if est_entry is None else np.array(est_entry, dtype=float)
            yield q, est

    def _state_bills(self, states: np.ndarray, start: int) -> np.ndarray:
        """The bills (m, N) of `states`, the recorded states `start`,
        `start` + 1, ... stacked (m, N, H): every reader prices states here,
        with `model.bills` (the runners record nonnegative profiles only)."""
        return bills(states, self.curve)

    @property
    def bills(self) -> list[np.ndarray]:
        """Every consumer's bill at each recorded state, derived on access."""
        return [
            self._state_bills(q[None], t)[0]
            for t, (q, _) in enumerate(self._walk(estimates=False))
        ]

    @property
    def aggregates(self) -> list[np.ndarray]:
        """The aggregate load at each recorded state, derived on access."""
        return [q.sum(axis=0) for q, _ in self._walk(estimates=False)]

    def states(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield each recorded state as fresh full `(profiles, estimates)`
        arrays; `estimates` is None for a run that does not track them."""
        for q, est in self._walk():
            yield q.copy(), None if est is None else est.copy()

    def max_feasibility_violation(self, scenario: Scenario) -> float:
        """Worst bound/budget violation over every recorded profile."""
        worst = 0.0
        for q, _ in self._walk(estimates=False):
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

    def _changes(
        self, start: int, stop: int, before: np.ndarray | None
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]]:
        """Yield, per state of the full entries `start` .. `stop` - 1: the
        flat row-major indices of its profile values whose bits differ
        from the state before (from `before`, or all of them where it is
        None), those values, the consumers they belong to, the state's
        bills, its residual and its profiles."""
        bits = None if before is None else before.view(np.uint64).copy()
        for t in range(start, stop):
            q = np.array(self.profiles[t], dtype=float, order="C")
            # compare bits, not values: -0.0 == 0.0 but their reprs differ
            state_bits = q.view(np.uint64)
            if bits is None:
                bits = state_bits.copy()
                moved = np.ones(q.shape, dtype=bool)
            else:
                moved = state_bits != bits
                bits[...] = state_bits
            yield (
                moved.ravel().nonzero()[0],
                q[moved],
                moved.any(axis=1).nonzero()[0],
                np.asarray(self._state_bills(q[None], t)[0], dtype=np.float64),
                self.residuals[t],
                q,
            )

    def _partial_block(
        self, source: np.ndarray, states: np.ndarray, start: int, stop: int, rows: np.ndarray
    ) -> _PartialBlock:
        """The partial entries `start` .. `stop` - 1 after the state held in
        the first N rows of `source`, whose stored rows are the consumers
        `rows`, their states priced in one stacked call. `source` has room
        for the entries' rows after the state, `states` for their states;
        on return `source` holds the state after the block, which `last`
        views."""
        entries = self.profiles[start:stop]
        sizes = [len(entry) for entry in entries]
        n_rows = states.shape[1]
        # the states as rows of `source`, the state before then the stored
        # rows: each entry points its consumers at its rows, and a running
        # maximum carries each consumer's latest writer to the states after
        stored = n_rows + len(rows)
        np.concatenate(entries, out=source[n_rows:stored])
        writer = np.zeros((stop - start, n_rows), dtype=np.intp)
        writer[0] = np.arange(n_rows)
        writer[np.repeat(np.arange(stop - start), sizes), rows] = np.arange(n_rows, stored)
        block = states[: stop - start]
        # the writers are in range by construction; with out=, mode="raise"
        # would copy through a temporary first
        source.take(np.maximum.accumulate(writer, axis=0), axis=0, out=block, mode="clip")
        source[rows] = block[-1, rows]
        return _PartialBlock(
            sizes, rows.tolist(), self._state_bills(block, start),
            self.residuals[start:stop], source[:n_rows],
        )

    def _blocks(self, before: np.ndarray | None = None) -> Iterator[list | _PartialBlock]:
        """The states `to_csv` formats together, in order. A run of full
        entries gives `_changes` in lists of states whose values to format
        number at most `CHUNK`, or of one state that has more; a run of
        partial entries gives `_PartialBlock`s of states whose bills and
        residuals number at most about `CHUNK`, gathered into buffers that
        the blocks of a run share."""
        index, starts = self._layout()
        q = before
        t = 0
        for part, run in groupby(self._flags()):
            stop = t + len(list(run))
            if part:
                n_rows, horizon = q.shape
                step = max(1, CHUNK // (n_rows + 1))
                bounds = [*range(t, stop, step), stop]
                room = int(np.diff(starts[bounds]).max())
                source = np.empty((n_rows + room, horizon))
                source[:n_rows] = q
                states = np.empty((min(step, stop - t), n_rows, horizon))
                for t0, t1 in zip(bounds, bounds[1:]):
                    block = self._partial_block(
                        source, states, t0, t1, index[starts[t0] : starts[t1]]
                    )
                    q = block.last
                    yield block
            else:
                block, size = [], 0
                for change in self._changes(t, stop, q):
                    _, moved, _, bills, _, q = change
                    n_values = moved.size + bills.size + 1
                    if block and size + n_values > CHUNK:
                        yield block
                        block, size = [], 0
                    block.append(change)
                    size += n_values
                yield block
            t = stop

    def _stored_rows(self, horizon: int) -> Iterator[str]:
        """The rows the partial entries store, entry after entry, as
        `row_reprs` renders them, about `CHUNK` values at a time: a window
        sized apart from the blocks of states, so that it takes the fast
        path where a block of a few states' rows would be too small."""
        step = max(1, CHUNK // horizon)
        pending, size = [], 0
        for entry, part in zip(self.profiles, self._flags()):
            if part:
                pending.append(entry)
                size += len(entry)
            if size >= step:
                rows = np.concatenate(pending)
                cut = size - size % step
                yield from row_reprs(rows[:cut])
                pending, size = [rows[cut:]], size - cut
        if size:
            yield from row_reprs(np.concatenate(pending))

    def to_csv(self, path, first: RowTexts | None = None) -> RowTexts:
        """Write the long-form trace: t,n,cost,residual,q1..qH (1-based ids),
        the cost being each state's bills as `bills` derives them; return
        the rows of the last state's profiles.

        Lines end in ``\\r\\n``; `t` and `n` are integers and every float
        field is Python's shortest round-trip ``repr``: `float_texts` writes
        those bytes, for a block of states at a time (`_blocks`). A block
        of full entries formats its moved profile values, bills and
        residuals in one call: each profile value's text is reused while
        its bits stay unchanged, and a consumer's ``q1..qH`` segment is
        re-joined only when one of its values changed, so slots pinned at
        a bound cost a comparison, not a format. A block of partial
        entries formats its bills and residuals in one call, and each
        event swaps in just the segments of the rows it stores, rendered
        whole by `_stored_rows`. `first`, the rows of a finite array of
        the profiles' shape (finite, so that their JSON texts are the
        `repr`s), stands for a state before the first: the first state
        then formats only the values whose bits differ from its array,
        none where they render the same state, as the rows `load_scenario`
        kept render a run's initial profiles.
        """
        n_rows, horizon = self.profiles[0].shape
        header = ",".join(
            ["t", "n", "cost", "residual"] + [f"q{h}" for h in range(1, horizon + 1)]
        )
        # the text of every profile value in row-major order, and per
        # consumer the "q1,...,qH\r\n" line tail joined from it
        cells = np.empty(n_rows * horizon, dtype=object)
        rows = cells.reshape(n_rows, horizon)
        tails = [""] * n_rows
        before = None
        if (
            first is not None
            and first.values.shape == (n_rows, horizon)
            and np.isfinite(first.values).all()
        ):
            before = first.values
            cells[:] = ",".join(first.texts).split(",")
            tails = [row + "\r\n" for row in first.texts]
        stored = self._stored_rows(horizon)
        # whether partial entries have swapped tails since `cells` was read
        cells_behind = False
        # one state's lines as 5N pieces, t,n,cost,residual,tail per consumer,
        # kept from state to state
        line = [""] * (5 * n_rows)
        line[1::5] = [f",{n}," for n in range(1, n_rows + 1)]
        t = 0
        with open_output(path, newline="") as fh:

            def write_state(costs: list[str], res: str) -> None:
                nonlocal t
                t += 1
                line[0::5] = [str(t)] * n_rows
                line[2::5] = costs
                line[3::5] = [f",{res},"] * n_rows
                line[4::5] = tails
                fh.write("".join(line))

            fh.write(header + "\r\n")
            for block in self._blocks(before):
                if isinstance(block, _PartialBlock):
                    n_costs = block.bills.size
                    texts = float_texts(np.concatenate((block.bills.ravel(), block.residuals)))
                    consumers = iter(block.rows)
                    for k, size in enumerate(block.sizes):
                        for n in islice(consumers, size):
                            tails[n] = next(stored) + "\r\n"
                        write_state(texts[k * n_rows : (k + 1) * n_rows], texts[n_costs + k])
                    last, cells_behind = block.last, True
                    continue
                if cells_behind:
                    cells[:] = ",".join(tail[:-2] for tail in tails).split(",")
                    cells_behind = False
                values = [a for _, moved, _, bills, res, _ in block for a in (moved, bills, [res])]
                texts = np.array(float_texts(np.concatenate(values)), dtype=object)
                pos = 0
                for flat, _, stale, _, _, last in block:
                    cells[flat] = texts[pos : pos + flat.size]
                    pos += flat.size
                    for n, row in zip(stale.tolist(), rows[stale].tolist()):
                        tails[n] = ",".join(row) + "\r\n"
                    write_state(texts[pos : pos + n_rows].tolist(), texts[pos + n_rows])
                    pos += n_rows + 1
        return RowTexts(last, json_rows([tail[:-2] for tail in tails]))


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
    if max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events}")
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
