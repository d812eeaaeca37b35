"""Feasible-set validation, projection, and sampling tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmgame.algorithms import Scenario, _check_init
from dsmgame.feasible import (
    ConsumerSpec,
    InvalidSetError,
    check_sets,
    is_feasible,
    project,
    project_rows,
    sample_feasible,
)
from dsmgame.model import PriceCurve
from oracles import project_qp_oracle, reference_project_rows, reference_set_error


def spec_2d(e=6.0):
    return ConsumerSpec(np.zeros(2), np.full(2, 5.0), e)


# --- construction -----------------------------------------------------------


def test_spec_accepts_nonempty_set():
    spec = spec_2d(6.0)
    assert spec.horizon == 2 and spec.energy == 6.0
    # the budget may sit on either end of [sum q_min, sum q_max]
    ConsumerSpec(np.array([1.0, 2.0]), np.array([4.0, 4.0]), 3.0)
    ConsumerSpec(np.array([1.0, 2.0]), np.array([4.0, 4.0]), 8.0)


def test_spec_rejects_budget_outside_box():
    with pytest.raises(ValueError, match=r"E=6 outside feasible range \[0, 4\]"):
        ConsumerSpec(np.zeros(2), np.full(2, 2.0), 6.0)
    with pytest.raises(ValueError, match=r"E=1 outside feasible range \[2, 5\]"):
        ConsumerSpec(np.array([1.0, 1.0]), np.array([2.0, 3.0]), 1.0)


def test_spec_rejects_crossed_bounds_naming_slot():
    with pytest.raises(ValueError, match="slot 2: q_min=3 exceeds q_max=2"):
        ConsumerSpec(np.array([0.0, 3.0, 5.0]), np.array([1.0, 2.0, 4.0]), 2.0)


def test_spec_rejects_negative_lower_bound_naming_slot():
    with pytest.raises(ValueError, match="slot 3: q_min=-0.5 is negative"):
        ConsumerSpec(np.array([0.0, 1.0, -0.5]), np.full(3, 2.0), 2.0)


def test_spec_rejects_nonpositive_budget():
    # and a non-finite one: an infinite budget passed the range check when
    # the sum of the upper bounds overflowed too
    for energy in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"E={energy:g} must be positive and finite"):
            ConsumerSpec(np.zeros(2), np.full(2, 1e308), energy)


def test_spec_owns_its_bounds():
    # a view taken before construction cannot empty the set afterwards, and
    # the caller's arrays stay writable
    lo, hi = np.zeros(2), np.ones(2)
    view = hi[:]
    spec = ConsumerSpec(lo, hi, 1.5)
    view[:] = 0.0
    lo[:] = 9.0
    assert spec.q_max.tolist() == [1.0, 1.0] and spec.q_min.tolist() == [0.0, 0.0]
    assert not spec.q_min.flags.writeable and not spec.q_max.flags.writeable


#: bound and budget values that break a set, or sit on an edge of float64
SPOILERS = [np.nan, np.inf, -np.inf, -0.0, -1.0, 0.0, 1e308, 5e-324]


@st.composite
def set_rows(draw):
    """(N, H) bounds and (N,) budgets: mostly valid sets, some with spoiled
    entries, with budgets on, inside and outside [sum q_min, sum q_max]."""
    n = draw(st.integers(1, 6))
    h = draw(st.integers(1, 30))
    q_min = draw(arrays(float, (n, h), elements=st.floats(0.0, 3.0)))
    q_max = q_min + draw(arrays(float, (n, h), elements=st.floats(0.0, 3.0)))
    for _ in range(draw(st.integers(0, 3))):
        bound = draw(st.sampled_from([q_min, q_max]))
        bound[draw(st.integers(0, n - 1)), draw(st.integers(0, h - 1))] = draw(
            st.sampled_from(SPOILERS)
        )
    energy = np.empty(n)
    for r in range(n):
        with np.errstate(all="ignore"):
            lo, hi = q_min[r].sum(), q_max[r].sum()
            picks = [lo, hi, 0.5 * (lo + hi), hi + 1.0, lo - 0.5, *SPOILERS]
        energy[r] = draw(st.sampled_from(picks))
    return q_min, q_max, energy


@settings(max_examples=300, deadline=None)
@given(rows=set_rows())
def test_check_sets_refuses_the_first_bad_row_as_one_spec_would(rows):
    # one pass over N rows gives the verdict and the message of checking
    # the sets one by one, condition by condition; so does each single spec
    q_min, q_max, energy = rows
    expected = [
        reference_set_error(q_min[r], q_max[r], float(energy[r]))
        for r in range(len(energy))
    ]
    for r, message in enumerate(expected):
        if message is None:
            ConsumerSpec(q_min[r], q_max[r], energy[r])
        else:
            with pytest.raises(InvalidSetError) as info:
                ConsumerSpec(q_min[r], q_max[r], energy[r])
            assert (info.value.row, str(info.value)) == (0, message)
    bad = [r for r, message in enumerate(expected) if message is not None]
    if not bad:
        check_sets(q_min, q_max, energy)
        return
    with pytest.raises(InvalidSetError) as info:
        check_sets(q_min, q_max, energy)
    assert (info.value.row, str(info.value)) == (bad[0], expected[bad[0]])


def test_check_sets_overflow_and_infinities_raise_no_warning():
    # RuntimeWarnings are errors in this suite: bound sums that overflow,
    # or mix inf with -inf, warn nothing
    huge = np.full((1, 2), 1e308)
    check_sets(np.zeros((1, 2)), huge, np.array([1.0]))  # sum q_max is inf
    with pytest.raises(InvalidSetError, match=r"outside feasible range \[inf, inf\]"):
        check_sets(huge, huge, np.array([1.0]))
    with pytest.raises(InvalidSetError, match="q_max contains non-finite entries"):
        check_sets(np.zeros((1, 2)), np.array([[np.inf, -np.inf]]), np.array([1.0]))


def test_spec_refuses_bounds_of_unequal_length():
    with pytest.raises(ValueError, match="^q_min and q_max must have equal length$"):
        ConsumerSpec(np.zeros(2), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="^q_max contains non-finite entries$"):
        ConsumerSpec(np.zeros(2), np.array([1.0, np.nan, 1.0]), 1.0)
    with pytest.raises(ValueError, match=r"^q_max must be one-dimensional, got shape \(1, 2\)$"):
        ConsumerSpec(np.zeros(2), np.ones((1, 2)), 1.0)


def test_specs_from_rows_share_one_read_only_copy():
    q_min, q_max = np.zeros((3, 2)), np.ones((3, 2))
    energy = np.array([0.5, 1.0, 1.5])
    specs = ConsumerSpec.from_rows(q_min, q_max, energy)
    q_min[:] = 9.0
    energy[:] = -1.0
    assert [s.energy for s in specs] == [0.5, 1.0, 1.5]
    assert all(type(s.energy) is float for s in specs)
    for spec in specs:
        assert spec.q_min.tolist() == [0.0, 0.0] and spec.q_max.tolist() == [1.0, 1.0]
        assert not spec.q_min.flags.writeable and not spec.q_max.flags.writeable
    assert specs[0].q_min.base is specs[2].q_min.base
    assert q_min.flags.writeable
    with pytest.raises(InvalidSetError) as info:
        ConsumerSpec.from_rows(np.zeros((3, 2)), np.ones((3, 2)), [1.0, 3.0, 4.0])
    assert info.value.row == 1
    assert str(info.value) == "energy budget E=3 outside feasible range [0, 2]"


# --- is_feasible ------------------------------------------------------------


def test_projected_point_is_feasible():
    spec = spec_2d()
    assert is_feasible(project(np.array([17.0, -4.0]), spec), spec, tol=1e-9)


def test_vertex_of_degenerate_budget():
    spec = ConsumerSpec(np.array([1.0, 2.0]), np.array([4.0, 4.0]), 3.0)
    assert is_feasible(np.array([1.0, 2.0]), spec, tol=1e-9)


def test_bound_violation_beyond_tolerance():
    spec = spec_2d(6.0)
    tol = 1e-6
    q = np.array([3.0 + 2 * tol, 3.0])
    assert not is_feasible(q, spec, tol=tol)


# --- project ----------------------------------------------------------------


def test_project_interior_point_unchanged():
    spec = spec_2d(6.0)
    v = np.array([2.5, 3.5])
    np.testing.assert_allclose(project(v, spec), v, atol=1e-12)


def test_project_symmetric_overload():
    np.testing.assert_allclose(
        project(np.array([10.0, 10.0]), spec_2d(6.0)), [3.0, 3.0], atol=1e-10
    )


def test_project_worked_dual_example():
    spec = spec_2d(5.0)
    np.testing.assert_allclose(
        project(np.array([4.0, 0.0]), spec), [4.5, 0.5], atol=1e-10
    )


def test_project_rejects_invalid_spec():
    # the set is rejected where it is built, before project could see it
    with pytest.raises(ValueError, match="budget"):
        project(np.ones(2), ConsumerSpec(np.zeros(2), np.ones(2), 9.0))


def test_project_matches_qp_oracle():
    rng = np.random.default_rng(71)
    for _ in range(300):
        h = int(rng.integers(1, 5))
        q_min = rng.uniform(0.0, 1.0, h)
        q_max = q_min + rng.uniform(0.1, 3.0, h)
        frac = rng.uniform(0.0, 1.0)
        energy = float(q_min.sum() + frac * (q_max.sum() - q_min.sum()))
        spec = ConsumerSpec(q_min, q_max, energy)
        v = rng.uniform(-4.0, 6.0, h)
        got = project(v, spec)
        expected = project_qp_oracle(v, q_min, q_max, energy)
        np.testing.assert_allclose(got, expected, atol=1e-8)


@settings(max_examples=300, deadline=None)
@given(
    v=arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
    w=arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
)
def test_project_idempotent_and_nonexpansive(v, w):
    spec = ConsumerSpec(np.zeros(3), np.array([2.0, 3.0, 4.0]), 5.0)
    pv, pw = project(v, spec), project(w, spec)
    np.testing.assert_allclose(project(pv, spec), pv, atol=1e-12)
    assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-9


@settings(max_examples=200, deadline=None)
@given(v=arrays(np.float64, 4, elements=st.floats(-100.0, 100.0)))
def test_project_budget_conservation(v):
    spec = ConsumerSpec(np.full(4, 0.25), np.full(4, 3.0), 7.0)
    assert abs(project(v, spec).sum() - 7.0) <= 1e-10


@st.composite
def projection_batches(draw):
    # 1-3 rows take the plain-float form of project_rows, 8+ rows its numpy
    # form. Values sit on a grid of 1 or 1/8, so kinks tie and zero widths
    # give q_min == q_max
    h = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3) | st.integers(8, 10))
    step = draw(st.sampled_from([1.0, 0.125]))

    def grid(lo, hi, shape):
        cells = st.integers(int(lo / step), int(hi / step))
        return step * draw(arrays(np.int64, shape, elements=cells))

    q_min = grid(0.0, 5.0, (n, h))
    q_max = q_min + grid(0.0, 5.0, (n, h))
    v = grid(-10.0, 10.0, (n, h))
    # eighths of the way from sum(q_min) (k = 0) to sum(q_max) (k = 8)
    k = draw(arrays(np.int64, n, elements=st.integers(0, 8)))
    lo, hi = q_min.sum(axis=1), q_max.sum(axis=1)
    return v, q_min, q_max, lo + k / 8 * (hi - lo)


@settings(max_examples=400, deadline=None)
@given(batch=projection_batches())
def test_project_rows_matches_qp_oracle_row_by_row(batch):
    v, q_min, q_max, budgets = batch
    got = project_rows(v, q_min, q_max, budgets)
    for r in range(v.shape[0]):
        expected = project_qp_oracle(v[r], q_min[r], q_max[r], budgets[r])
        np.testing.assert_allclose(got[r], expected, rtol=0.0, atol=1e-12)
        assert np.all(got[r] >= q_min[r]) and np.all(got[r] <= q_max[r])
        assert abs(got[r].sum() - budgets[r]) <= 1e-12 * max(1.0, abs(budgets[r]))
    # both forms run the same steps in the same order (numpy sums fewer
    # than 8 values left to right, as Python's sum does), so a small batch
    # comes out bit for bit as it does inside a batch big enough for numpy
    n = v.shape[0]
    if n <= 3:
        big = project_rows(*(np.concatenate([a] * 8) for a in batch))
        np.testing.assert_array_equal(big[:n], got)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3) | st.integers(8, 10), h=st.integers(1, 4), data=st.data())
def test_project_rows_matches_qp_oracle_on_raw_floats(n, h, data):
    def draw(lo, hi, shape):
        return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

    q_min = draw(0.0, 5.0, (n, h))
    q_max = q_min + draw(0.0, 5.0, (n, h))
    v = draw(-10.0, 10.0, (n, h))
    lo, hi = q_min.sum(axis=1), q_max.sum(axis=1)
    budgets = lo + draw(0.0, 1.0, n) * (hi - lo)
    got = project_rows(v, q_min, q_max, budgets)
    for r in range(n):
        expected = project_qp_oracle(v[r], q_min[r], q_max[r], budgets[r])
        np.testing.assert_allclose(got[r], expected, rtol=0.0, atol=1e-12)
        assert np.all(got[r] >= q_min[r]) and np.all(got[r] <= q_max[r])


def test_qp_oracle_separates_active_sets_closer_than_rounding():
    # [0, 1e-8] is feasible and only 5e-17 farther from v in squared
    # distance than the projection, so a distance comparison cannot tell
    # them apart; its multiplier signs are wrong, which rules it out
    args = (np.ones(2), np.zeros(2), np.full(2, 1e-8), 1e-8)
    np.testing.assert_allclose(project_qp_oracle(*args), [5e-9, 5e-9], rtol=1e-6)
    v, q_min, q_max, energy = args
    got = project_rows(v[None], q_min[None], q_max[None], np.array([energy]))[0]
    np.testing.assert_allclose(got, [5e-9, 5e-9], rtol=1e-6)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3) | st.integers(8, 10), h=st.integers(1, 24), data=st.data())
def test_project_rows_pins_edge_budgets_off_the_grid(n, h, data):
    # off the grid the sums of kink steps round, so s at the last kink can
    # end a hair above E = sum(q_min); that budget must still give q_min
    def draw(lo, hi):
        return data.draw(arrays(np.float64, (n, h), elements=st.floats(lo, hi)))

    q_min = draw(0.0, 5.0)
    q_max = q_min + draw(0.0, 5.0)
    v = draw(-10.0, 10.0)
    for bound in (q_min, q_max):
        got = project_rows(v, q_min, q_max, bound.sum(axis=1))
        np.testing.assert_allclose(got, bound, rtol=0.0, atol=1e-12)


def test_project_rows_row_does_not_depend_on_its_batch():
    # the gossip runner projects a batch of pairs in one call and needs each
    # row's bits as if projected alone: batches of up to six rows at H <= 6
    # take the plain-float path, larger ones the numpy path
    n = 40
    for h in (2, 3, 4, 5, 6, 7, 8, 24):
        rng = np.random.default_rng(5 + h)
        q_min = rng.uniform(0.0, 1.0, (n, h))
        q_max = q_min + rng.uniform(0.0, 3.0, (n, h))
        budgets = q_min.sum(axis=1) + rng.uniform(0.0, 1.0, n) * (
            q_max.sum(axis=1) - q_min.sum(axis=1)
        )
        v = rng.uniform(-4.0, 6.0, (n, h)) * rng.choice([1.0, 1e3], (n, 1))
        one_rows = [slice(r, r + 1) for r in range(n)]
        alone = [project_rows(v[r], q_min[r], q_max[r], budgets[r])[0] for r in one_rows]
        for size in (2, 5, 6, 7, 12, n):
            for start in range(0, n - size + 1, size):
                rows = slice(start, start + size)
                batch = project_rows(v[rows], q_min[rows], q_max[rows], budgets[rows])
                for r, got in enumerate(batch, start):
                    assert got.tobytes() == alone[r].tobytes(), (h, size, r)


@pytest.mark.parametrize("n, h", [(3, 4), (12, 24)])  # plain-float, numpy form
def test_project_rows_shared_bounds_match_explicit_rows_bit_for_bit(n, h):
    # consumers that share one spec: the (N, H) batch of its tiled bounds
    # gives each row the bits that project gives that row alone
    rng = np.random.default_rng(n * h)
    q_min = rng.uniform(0.0, 1.0, h)
    q_max = q_min + rng.uniform(0.5, 2.0, h)
    energy = float(q_min.sum() + 0.4 * (q_max - q_min).sum())
    v = rng.uniform(-3.0, 5.0, (n, h))
    explicit = project_rows(
        v, np.tile(q_min, (n, 1)), np.tile(q_max, (n, 1)), np.full(n, energy)
    )
    spec = ConsumerSpec(q_min, q_max, energy)
    shared = np.array([project(row, spec) for row in v])
    np.testing.assert_array_equal(shared, explicit)
    np.testing.assert_array_equal(
        project_rows(v[:1], q_min[None], q_max[None], np.array([energy])), explicit[:1]
    )


def ulps_from(x: float, k: int) -> float:
    """The float k representable steps above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


@st.composite
def one_consumer_cases(draw):
    """(tol, rows) of 1 to 4 consumers of one horizon of 1 to 24 slots: rows
    of (q_min, q_max, energy, profile, point, seed). Each profile lies a few
    ulps either side of one tolerance edge: a slot at q_min - tol or
    q_max + tol, or its sum at its budget - tol or + tol."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 0.0]))
    h = draw(st.integers(1, 24))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q_min = rng.uniform(0.1, 1.0, h)
        q_max = q_min + rng.uniform(0.5, 2.0, h)
        q = rng.uniform(q_min, q_max)
        edge = draw(st.sampled_from(["q_min", "q_max", "budget"]))
        ulps = draw(st.integers(-3, 3))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if edge == "budget":
            energy = ulps_from(q.sum() + sign * tol, ulps)
        else:
            k = draw(st.integers(0, h - 1))
            bound = q_min[k] - tol if edge == "q_min" else q_max[k] + tol
            q[k] = ulps_from(bound, ulps)
            energy = float(q.sum())
        # a one-slot set admits no budget off its box
        energy = min(max(energy, q_min.sum()), q_max.sum())
        point = rng.uniform(-4.0, 6.0, h) * rng.choice([1.0, 1e3])
        rows.append((q_min, q_max, energy, q, point, draw(st.integers(0, 2**32 - 1))))
    return tol, rows


@settings(max_examples=300, deadline=None)
@given(case=one_consumer_cases())
def test_one_consumer_functions_are_one_row_calls_of_the_row_wise_rules(case):
    # project and sample_feasible give project_rows' bits on one-row arrays;
    # is_feasible and the runners' initial-profile check accept and refuse
    # the points that the box and budget formulas do, at the tolerance edges
    tol, rows = case
    first_refused = None
    for n, (q_min, q_max, energy, q, point, seed) in enumerate(rows):
        spec = ConsumerSpec(q_min, q_max, energy)
        one_row = (q_min[None], q_max[None], np.array([energy]))
        projected = project_rows(point[None], *one_row)[0]
        assert project(point, spec).tobytes() == projected.tobytes()
        draw = np.random.default_rng(seed).uniform(q_min, q_max)
        sample = sample_feasible(spec, np.random.default_rng(seed))
        assert sample.tobytes() == project_rows(draw[None], *one_row)[0].tobytes()
        inside = not (np.any(q < q_min - tol) or np.any(q > q_max + tol))
        assert is_feasible(q, spec, tol) == (inside and abs(q.sum() - energy) <= tol)
        refused = (
            np.any(q < q_min - 1e-9) or np.any(q > q_max + 1e-9)
            or abs(q.sum() - energy) > 1e-9
        )
        if refused and first_refused is None:
            first_refused = n
    horizon = rows[0][0].shape[0]
    curve = PriceCurve(np.ones(horizon), np.ones(horizon), np.zeros(horizon))
    scenario = Scenario(tuple(ConsumerSpec(*row[:3]) for row in rows), curve)
    profiles = np.array([row[3] for row in rows])
    if first_refused is None:
        np.testing.assert_array_equal(_check_init(scenario, profiles), profiles)
    else:
        with pytest.raises(ValueError, match=f"consumer {first_refused + 1} is infeasible"):
            _check_init(scenario, profiles)


@st.composite
def kernel_batches(draw):
    # batches for the numpy form (7+ rows). "raw" rows have distinct kinks.
    # "grid" rows sit on a coarse grid with zero-width slots (q_min ==
    # q_max), so kinks tie; a step of 0.1 also makes the sums round.
    # "zeros" rows add -0.0 next to 0.0, so their kinks hold +-0.0 pairs.
    # "ends" rows tie their largest kink with a zero-width slot's two kinks
    # and ask for E = sum(q_min), the bracket where the order of tied kinks
    # can decide the slope once the sums round
    n = draw(st.integers(7, 300))
    h = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["raw", "grid", "zeros", "ends"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "raw":
        q_min = rng.uniform(0.0, 1.0, (n, h))
        q_max = q_min + rng.uniform(0.0, 3.0, (n, h))
        v = rng.uniform(-4.0, 6.0, (n, h))
    else:
        step = 0.1 if kind == "ends" else draw(st.sampled_from([1.0, 0.125, 0.1]))
        q_min = step * rng.integers(0, 4, (n, h))
        q_max = q_min + step * rng.integers(0, 3, (n, h))
        v = step * rng.integers(-6, 8, (n, h))
    if kind == "zeros":
        v[rng.random((n, h)) < 0.3] = -0.0
        q_min[rng.random((n, h)) < 0.3] = 0.0
    lo, hi = q_min.sum(axis=1), q_max.sum(axis=1)
    budgets = lo + rng.integers(0, 9, n) / 8 * (hi - lo)
    if kind == "ends" and h > 1:
        rows = np.arange(n)
        top = (v - q_min).argmax(axis=1)
        twin = (top + rng.integers(1, h, n)) % h
        v[rows, twin] = v[rows, top]
        q_min[rows, twin] = q_max[rows, twin] = q_min[rows, top]
        budgets = q_min.sum(axis=1)
    return v, q_min, q_max, budgets


@settings(max_examples=300, deadline=None)
@given(batch=kernel_batches(), bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_project_rows_matches_the_stable_sort_kernel_bit_for_bit(batch, bad):
    # the numpy form stable-sorts only rows whose kinks tie; every other row
    # has one sorted order, so the whole batch keeps the bits of a kernel
    # that stable-sorts every row, non-finite rows included
    v, q_min, q_max, budgets = batch
    if bad is not None:
        v = v.copy()
        v[v.shape[0] // 2, 0] = bad
    with np.errstate(all="ignore"):
        got = project_rows(v, q_min, q_max, budgets)
        expected = reference_project_rows(v, q_min, q_max, budgets)
    assert got.tobytes() == expected.tobytes()


def test_project_rows_keeps_upper_before_lower_among_tied_last_kinks():
    # the largest kink, 0.4, is slot 1's upper and lower kink (zero width)
    # and slot 4's lower kink. At E = sum(q_min) the sums of kink steps
    # round a hair above E, so the bracket ends at the last kink, and its
    # slope is +1 only if a lower kink comes last: the stable order. Any
    # other order of the tie gives slot 4 a value off q_min
    step = 0.1
    v = step * np.tile([6, -1, 2, 4, 4], (8, 1))
    q_min = step * np.tile([2, 3, 0, 0, 2], (8, 1))
    q_max = step * np.tile([2, 3, 0, 1, 3], (8, 1))
    budgets = q_min.sum(axis=1)
    got = project_rows(v, q_min, q_max, budgets)
    assert got.tobytes() == reference_project_rows(v, q_min, q_max, budgets).tobytes()
    np.testing.assert_array_equal(got, q_min)

# --- sample_feasible --------------------------------------------------------


def test_sample_degenerate_budget_returns_minimum():
    q_min = np.array([1.0, 2.0])
    spec = ConsumerSpec(q_min, np.array([3.0, 3.0]), 3.0)
    got = sample_feasible(spec, np.random.default_rng(0))
    np.testing.assert_allclose(got, q_min, atol=1e-10)


def test_sample_single_slot_pins_budget():
    spec = ConsumerSpec(np.array([0.0]), np.array([9.0]), 4.5)
    got = sample_feasible(spec, np.random.default_rng(1))
    np.testing.assert_allclose(got, [4.5], atol=1e-12)


def test_sample_always_feasible():
    q_min = np.array([0.1, 0.4, 0.0])
    q_max = np.array([2.0, 1.0, 3.5])
    spec = ConsumerSpec(q_min, q_max, 3.0)
    for seed in range(1000):
        q = sample_feasible(spec, np.random.default_rng(seed))
        assert is_feasible(q, spec, tol=1e-9)


def test_sample_deterministic_per_seed():
    spec = spec_2d(6.0)
    a = sample_feasible(spec, np.random.default_rng(42))
    b = sample_feasible(spec, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
