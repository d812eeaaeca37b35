"""Per-consumer feasible sets (box bounds plus a total-energy budget) and
exact Euclidean projection onto them.

Projecting v onto {q : q_min <= q <= q_max, sum q = E} means solving the
scalar dual equation
    s(lam) = sum_h clip(v_h - lam, q_min_h, q_max_h) = E.
s is nonincreasing and piecewise linear with 2H kinks: slot h leaves its upper
bound at lam = v_h - q_max_h and reaches its lower bound at v_h - q_min_h.
Sorting the kinks and accumulating the number of free slots between them
gives s at every kink; the kink interval that brackets E fixes lam by linear
interpolation. This breakpoint search for the continuous quadratic knapsack
problem (Brucker 1984; Kiwiel 2008) is exact in O(H log H) per row, with no
tolerance and no iteration cap.

The numpy form sorts the kinks with numpy's default sort, which is not
stable. Tied kinks need a stable order: a slot's upper kink before its
lower one. So a row whose sorted kinks are not strictly increasing (a tie,
a -0.0/0.0 pair or a NaN) is sorted again with a stable sort. A row of
distinct kinks has one sorted order, so every sort gives it the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _as_1d


class InvalidSetError(ValueError):
    """A consumer set that is empty or ill-formed; `row` is its 0-based row
    among the sets checked together."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def first_failure(failing) -> tuple[int, int] | None:
    """(row, check) of the first row where one of the (N,) boolean arrays
    `failing` is set, and the first of them set there; None if none is."""
    rows = np.flatnonzero(np.logical_or.reduce(failing))
    if rows.size == 0:
        return None
    row = int(rows[0])
    return row, next(k for k, fails in enumerate(failing) if fails[row])


def check_sets(q_min: np.ndarray, q_max: np.ndarray, energy: np.ndarray) -> None:
    """Refuse the first empty or ill-formed set among the rows of the (N, H)
    float arrays q_min and q_max and the (N,) budgets `energy`.

    Raises InvalidSetError naming that row's first failure, in this order:
    a non-finite bound, bounds of unequal length, a crossed slot, a negative
    lower bound, a budget that is not positive and finite, and a budget
    outside [sum q_min, sum q_max]. Bound sums that overflow are infinite,
    with no numpy warning.
    """
    # sums of non-finite bounds are refused below, so no warning either
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = q_min.sum(axis=1), q_max.sum(axis=1)
    # one pass accepts the valid sets: a finite sum of q_max makes
    # 0 <= q_min <= q_max and E <= sum q_max finite. Only a set whose sum
    # overflows needs the search below to accept it
    if (
        q_min.shape == q_max.shape
        and np.isfinite(hi).all()
        and ((0 <= q_min) & (q_min <= q_max)).all()
        and ((0 < energy) & (lo <= energy) & (energy <= hi)).all()
    ):
        return
    finite = (np.isfinite(q_min).all(axis=1), np.isfinite(q_max).all(axis=1))
    if q_min.shape != q_max.shape:
        # every row fails the length check, so the first row fails first
        for ok, name in zip(finite, ("q_min", "q_max")):
            if not ok[0]:
                raise InvalidSetError(f"{name} contains non-finite entries", 0)
        raise InvalidSetError("q_min and q_max must have equal length", 0)
    crossed, negative = q_min > q_max, q_min < 0
    found = first_failure((
        ~finite[0],
        ~finite[1],
        crossed.any(axis=1),
        negative.any(axis=1),
        ~((0 < energy) & (energy < np.inf)),
        ~((lo <= energy) & (energy <= hi)),
    ))
    if found is None:
        return
    n, check = found
    low, high, budget = q_min[n], q_max[n], energy[n]
    if check < 2:
        name = ("q_min", "q_max")[check]
        message = f"{name} contains non-finite entries"
    elif check == 2:
        h = int(crossed[n].argmax())
        message = f"slot {h + 1}: q_min={low[h]:g} exceeds q_max={high[h]:g}"
    elif check == 3:
        h = int(negative[n].argmax())
        message = f"slot {h + 1}: q_min={low[h]:g} is negative"
    elif check == 4:
        message = f"energy budget E={budget:g} must be positive and finite"
    else:
        message = (
            f"energy budget E={budget:g} outside feasible range [{lo[n]:g}, {hi[n]:g}]"
        )
    raise InvalidSetError(message, n)


@dataclass(frozen=True)
class ConsumerSpec:
    """Box bounds and total energy budget defining one consumer's set Q_n.

    Construction rejects an empty set through `check_sets`, naming the first
    crossed slot, negative lower bound, non-finite budget or budget
    mismatch, so every spec is valid.
    """

    q_min: np.ndarray
    q_max: np.ndarray
    energy: float

    def __post_init__(self):
        # own copies: the caller's arrays stay writable, and a view of them
        # cannot change the spec after its checks ran
        q_min = np.array(self.q_min, dtype=float)
        q_max = np.array(self.q_max, dtype=float)
        for arr, name in ((q_min, "q_min"), (q_max, "q_max")):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
        energy = float(self.energy)
        check_sets(q_min[None], q_max[None], np.array([energy]))
        for arr, name in ((q_min, "q_min"), (q_max, "q_max")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "energy", energy)

    @classmethod
    def from_rows(cls, q_min, q_max, energy) -> tuple[ConsumerSpec, ...]:
        """One spec per row of the (N, H) bounds and (N,) budgets, checked
        in one `check_sets` pass; each spec holds read-only views of one
        private copy of the bounds."""
        q_min = np.array(q_min, dtype=float)
        q_max = np.array(q_max, dtype=float)
        energy = np.array(energy, dtype=float)
        check_sets(q_min, q_max, energy)
        q_min.setflags(write=False)
        q_max.setflags(write=False)
        specs = []
        for low, high, budget in zip(q_min, q_max, energy.tolist()):
            spec = object.__new__(cls)  # checked above: no __post_init__
            spec.__dict__.update(q_min=low, q_max=high, energy=budget)
            specs.append(spec)
        return tuple(specs)

    @property
    def horizon(self) -> int:
        return self.q_min.shape[0]

    def _as_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The set as the (1, H) bounds and (1,) budget of one row."""
        return self.q_min[None], self.q_max[None], np.array([self.energy])


def first_infeasible(q, q_min, q_max, budgets, tol: float = 1e-9):
    """(row, detail) of the first of the (N, H) profiles `q` that leaves its
    set, a row of the (N, H) bounds and (N,) budgets, by more than `tol`: a
    slot below q_min - tol or above q_max + tol, or a sum not within tol of
    the budget. The detail names that slot, else the sum; None if no row
    leaves its set."""
    below = q < q_min - tol
    out = below | (q > q_max + tol)
    sums = q.sum(axis=1)
    found = first_failure((out.any(axis=1), ~(abs(sums - budgets) <= tol)))
    if found is None:
        return None
    n, check = found
    if check == 0:
        h = int(out[n].argmax())
        side, bounds = ("q_min", q_min) if below[n, h] else ("q_max", q_max)
        bound = float(bounds[n, h])
        return n, f"slot {h + 1} holds {float(q[n, h])!r}, {side} is {bound!r}"
    return n, f"its sum {float(sums[n])!r} misses the budget {float(budgets[n])!r}"


def is_feasible(q, spec: ConsumerSpec, tol: float = 1e-9) -> bool:
    """True iff q respects the box bounds and budget within tolerance."""
    q = _as_1d(q, "profile")
    if q.shape[0] != spec.horizon:
        raise ValueError(f"profile has length {q.shape[0]}, expected {spec.horizon}")
    return first_infeasible(q[None], *spec._as_rows(), tol) is None


def _project_rows_small(v, q_min, q_max, budgets) -> np.ndarray:
    # the breakpoint search of project_rows in plain floats, step for step.
    # Its calls are small-games gossip batches, synchronous rounds at N <= 3
    # (2N rows) and sample_feasible/project at H <= 6, where numpy dispatch
    # dominates: with the numpy path for them, small-games alg3_ms_per_event
    # went from 0.138 to 0.227 ms and setup_s rose 53% (4 bench runs per
    # side, 2-CPU host)
    out = []
    n_slots = v.shape[1]
    for vr, lo_b, hi_b, target in zip(
        v.tolist(), q_min.tolist(), q_max.tolist(), budgets.tolist()
    ):
        kinks = [x - b for x, b in zip(vr, hi_b)] + [x - a for x, a in zip(vr, lo_b)]
        order = sorted(range(2 * n_slots), key=kinks.__getitem__)
        lam, s, slope = kinks[order[0]], sum(hi_b), 1
        for i in order[1:-1]:  # the last kink closes every bracket
            s_next = s - slope * (kinks[i] - lam)
            if s_next <= target:
                break
            lam, s, slope = kinks[i], s_next, slope + (1 if i < n_slots else -1)
        lam += (s - target) / slope
        q = [min(max(x - lam, a), b) for x, a, b in zip(vr, lo_b, hi_b)]
        free = [k for k, (y, a, b) in enumerate(zip(q, lo_b, hi_b)) if a < y < b]
        if free:
            adjust = (target - sum(q)) / len(free)
            for k in free:
                q[k] = min(max(q[k] + adjust, lo_b[k]), hi_b[k])
        out.append(q)
    return np.array(out, dtype=float).reshape(v.shape)


def project_rows(points, q_min, q_max, budgets) -> np.ndarray:
    """Project each row of the (N, H) `points` onto its own box-plus-budget
    set, the same row of the (N, H) q_min and q_max and (N,) budgets.

    Each row's kinks are sorted on their own and every step works along the
    row, so a row's result does not depend on the other rows in the call.
    The inputs are trusted: ConsumerSpec and Scenario check the sets.
    """
    v = np.asarray(points, dtype=float)
    if v.shape[0] <= 6 and v.shape[1] <= 6:
        return _project_rows_small(v, q_min, q_max, budgets)
    n_rows, n_slots = v.shape
    width = 2 * n_slots
    kinks = np.empty((n_rows, width))
    np.subtract(v, q_max, out=kinks[:, :n_slots])
    np.subtract(v, q_min, out=kinks[:, n_slots:])
    order = kinks.argsort(axis=1)
    k = kinks.take(order + np.arange(0, n_rows * width, width)[:, None])
    # s starts at sum(q_max) and falls by (free slots) * (kink gap) past
    # each kink; the gaps go straight into its buffer
    s = np.empty_like(kinks)
    gaps = s[:, 1:]
    np.subtract(k[:, 1:], k[:, :-1], out=gaps)
    # a gap that is not positive marks a tie (or a NaN); only a stable sort
    # then puts a slot's upper kink before its lower one, so that the
    # free-slot counts never go negative, the first kink opens a slot and
    # the last one closes a slot
    if not gaps.min(initial=np.inf) > 0:
        tied = np.flatnonzero(~(gaps > 0).all(axis=1))
        order[tied] = kinks[tied].argsort(axis=1, kind="stable")
        k[tied] = np.take_along_axis(kinks[tied], order[tied], axis=1)
        gaps[tied] = np.diff(k[tied], axis=1)
    # minus the free-slot counts: float counts are exact, and the negated
    # form gives each product the bits (and the signed zeros) of -count * gap
    sign = np.concatenate((np.full(n_slots, -1.0), np.ones(n_slots)))
    neg_slope = np.cumsum(sign.take(order), axis=1)
    np.multiply(neg_slope[:, :-1], gaps, out=gaps)
    s[:, 0] = q_max.sum(axis=1)
    np.cumsum(s, axis=1, out=s)
    # E lies between kinks p and p + 1; the last kink closes every bracket,
    # since rounding can leave its s a hair above E = sum(q_min)
    hit = s <= budgets[:, None]
    hit[:, -1] = True
    p = np.maximum(hit.argmax(axis=1) - 1, 0)
    r = np.arange(n_rows)
    # 0.0 - x, not -x: the count of a segment with no free slot is +0.0
    lam = k[r, p] + (s[r, p] - budgets) / (0.0 - neg_slope[r, p])
    q = np.clip(v - lam[:, None], q_min, q_max)
    # polish: spread the residual budget gap over the strictly free
    # coordinates; exact for singleton sets and keeps sums at float accuracy
    free = (q > q_min) & (q < q_max)
    n_free = free.sum(axis=1)
    adjust = np.where(n_free > 0, (budgets - q.sum(axis=1)) / np.maximum(n_free, 1), 0.0)
    return np.clip(q + adjust[:, None] * free, q_min, q_max)


def project(v, spec: ConsumerSpec) -> np.ndarray:
    """Euclidean projection of v onto Q_n; idempotent and nonexpansive."""
    v = _as_1d(v, "point")
    if v.shape[0] != spec.horizon:
        raise ValueError(f"point has length {v.shape[0]}, expected {spec.horizon}")
    return project_rows(v[None], *spec._as_rows())[0]


def sample_feasible(spec: ConsumerSpec, rng: np.random.Generator) -> np.ndarray:
    """Random point of Q_n: uniform draw inside the box, then projected."""
    draw = rng.uniform(spec.q_min, spec.q_max)
    return project_rows(draw[None], *spec._as_rows())[0]
