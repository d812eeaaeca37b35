"""Price curve, billing, game mapping, and certificate tests."""

import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmgame.algorithms import Scenario
from dsmgame.feasible import ConsumerSpec
from dsmgame.model import (
    PriceCurve,
    aggregate,
    bills,
    grid_cost,
    jacobian_slot_matrix,
    kappa_margin,
    mapping_profiles,
    monotonicity_certificate,
    par,
    rank_two_eigenvalues,
    uniqueness_certificate,
)
from dsmgame.oracle import fairness_comparison
from conftest import AVX2_ENV, src_env
from oracles import mapping_finite_difference


def curve1(a, b, c=0.0):
    return PriceCurve(np.array([a]), np.array([b]), np.array([c]))


def price1(curve, load):
    """p(load) of a one-slot curve through the vector method."""
    return float(curve.price_vector([load])[0])


def slope1(curve, load):
    """p'(load) of a one-slot curve through the vector method."""
    return float(curve.price_derivative_vector([load])[0])


def hp_power(base, exp):
    """High-precision scalar reference for a * L**b terms."""
    return float(mpmath.power(mpmath.mpf(base), mpmath.mpf(exp)))


# --- price ------------------------------------------------------------------


def test_price_zero_load_zero_offset():
    assert price1(curve1(0.003, 1.2), 0.0) == 0.0


def test_price_linear_case():
    assert price1(curve1(0.003, 1.0, 0.1), 10.0) == pytest.approx(0.13, abs=1e-15)


def test_price_high_precision_reference():
    expected = 0.005 * hp_power(50.0, 1.2)
    assert price1(curve1(0.005, 1.2), 50.0) == pytest.approx(expected, rel=1e-14)


def test_price_argument_errors():
    c = curve1(0.003, 1.2)
    with pytest.raises(ValueError, match="nonnegative"):
        c.price_vector([-1.0])
    # slot indices of the scalar helpers are 1-based: 0 and H + 1 are out
    for h in (0, 2):
        with pytest.raises(ValueError, match=f"slot index {h} outside 1..1"):
            monotonicity_certificate(np.array([1.0, 2.0]), h, c)


def test_price_curve_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PriceCurve(np.array([0.0]), np.array([1.2]), np.array([0.0]))
    with pytest.raises(ValueError):
        PriceCurve(np.array([0.003]), np.array([0.9]), np.array([0.0]))
    with pytest.raises(ValueError):
        PriceCurve(np.array([0.003]), np.array([1.2]), np.array([-0.1]))
    with pytest.raises(ValueError):
        PriceCurve(np.array([0.003, 0.004]), np.array([1.2]), np.array([0.0]))
    # the slope's coefficient a_h * b_h overflows, with no numpy warning
    with pytest.raises(ValueError, match="^price slopes a_h \\* b_h overflow$"):
        PriceCurve(np.array([1.0, 1e308]), np.array([1.0, 8.0]), np.zeros(2))


def test_price_curve_owns_its_parameters():
    a, b, c = np.array([0.003]), np.array([1.2]), np.array([0.0])
    view = a[:]
    curve = PriceCurve(a, b, c)
    view[:] = -1.0  # would make the price coefficient nonpositive
    b[:] = 0.5
    assert curve.a.tolist() == [0.003] and curve.b.tolist() == [1.2]
    assert not curve.a.flags.writeable


@settings(max_examples=100)
@given(
    a=st.floats(1e-4, 10.0),
    b=st.floats(1.0, 3.0),
    c=st.floats(0.0, 1.0),
    l1=st.floats(0.0, 1e4),
    l2=st.floats(0.0, 1e4),
)
def test_price_monotone_in_load(a, b, c, l1, l2):
    lo, hi = sorted((l1, l2))
    curve = curve1(a, b, c)
    assert price1(curve, hi) >= price1(curve, lo)


@pytest.mark.parametrize("a,b,c", [(0.003, 1.2, 0.0), (1.0, 1.0, 0.5), (0.5, 2.0, 0.0)])
def test_price_strictly_increasing_for_positive_loads(a, b, c):
    curve = curve1(a, b, c)
    values = curve.price_vector([[0.5], [1.0], [2.0], [4.0], [8.0]])[:, 0]
    assert np.all(np.diff(values) > 0)


# --- price derivative -------------------------------------------------------


def test_derivative_linear_slope():
    assert slope1(curve1(1.0, 1.0), 5.0) == 1.0


def test_derivative_reference_value():
    expected = 0.003 * 1.2 * hp_power(100.0, 0.2)
    assert slope1(curve1(0.003, 1.2), 100.0) == pytest.approx(expected, rel=1e-14)


def test_derivative_vanishes_at_zero_for_superlinear():
    assert slope1(curve1(0.003, 1.2), 0.0) == 0.0


def test_derivative_linear_at_zero_load():
    # b = 1 branch returns the coefficient even at L = 0 (no 0**0)
    assert slope1(curve1(0.25, 1.0), 0.0) == 0.25


def test_derivative_rejects_negative_load():
    with pytest.raises(ValueError):
        curve1(1.0, 1.2).price_derivative_vector([-0.5])


# --- billing ----------------------------------------------------------------


def test_bill_zero_consumption():
    curve = PriceCurve(np.full(3, 0.01), np.full(3, 1.2), np.zeros(3))
    assert curve.price_vector(np.array([1.0, 2.0, 3.0])) @ np.zeros(3) == 0.0


def test_bill_single_slot_example():
    # p(5) = 5, cost = 5 * 2
    bill = curve1(1.0, 1.0).price_vector(np.array([5.0])) @ np.array([2.0])
    assert bill == pytest.approx(10.0)


def test_bill_matches_plain_summation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = int(rng.integers(1, 8))
        curve = PriceCurve(
            rng.uniform(0.01, 2.0, h), rng.uniform(1.0, 2.0, h), rng.uniform(0, 0.5, h)
        )
        q = rng.uniform(0, 3.0, h)
        sigma = q + rng.uniform(0, 5.0, h)
        by_hand = sum(
            (curve.a[k] * sigma[k] ** curve.b[k] + curve.c[k]) * q[k] for k in range(h)
        )
        assert curve.price_vector(sigma) @ q == pytest.approx(by_hand, abs=1e-12)


def total_load_bills(profiles, curve):
    """fairness_comparison's total-load column, budgets = the rows' sums."""
    profiles = np.atleast_2d(profiles)
    h = profiles.shape[1]
    specs = tuple(ConsumerSpec(np.zeros(h), np.full(h, e), e) for e in profiles.sum(1))
    return fairness_comparison(profiles, Scenario(specs, curve)).total_load_bills


def test_total_load_single_consumer_equals_instantaneous():
    curve = PriceCurve(np.array([0.5, 0.2]), np.array([1.2, 1.0]), np.zeros(2))
    q = np.array([[1.0, 2.0]])
    assert total_load_bills(q, curve)[0] == pytest.approx(
        curve.price_vector(q[0]) @ q[0]
    )


def test_total_load_symmetric_split():
    curve = curve1(1.0, 1.2)
    profiles = np.array([[2.0], [2.0]])
    total = grid_cost(profiles.sum(axis=0), curve)
    np.testing.assert_allclose(total_load_bills(profiles, curve), [total / 2] * 2)


def test_billing_schemes_allocate_the_same_total():
    rng = np.random.default_rng(5)
    profiles = rng.uniform(0.1, 2.0, size=(6, 4))
    curve = PriceCurve(
        rng.uniform(0.01, 1.0, 4), rng.uniform(1.0, 2.0, 4), rng.uniform(0, 0.2, 4)
    )
    sigma = profiles.sum(axis=0)
    inst = sum(curve.price_vector(sigma) @ profiles[n] for n in range(6))
    tlb = total_load_bills(profiles, curve).sum()
    total = grid_cost(sigma, curve)
    assert inst == pytest.approx(total, rel=1e-12)
    assert tlb == pytest.approx(total, rel=1e-12)


# --- game mapping -----------------------------------------------------------


def test_mapping_zero_loads_zero_offset():
    curve = PriceCurve(np.full(3, 0.01), np.full(3, 1.2), np.zeros(3))
    np.testing.assert_array_equal(
        mapping_profiles(np.zeros(3), np.zeros(3), curve), np.zeros(3)
    )


def test_mapping_single_slot_example():
    # p'(5) * 2 + p(5) = 1 * 2 + 5
    np.testing.assert_allclose(
        mapping_profiles(np.array([2.0]), np.array([5.0]), curve1(1.0, 1.0)), [7.0]
    )


def test_mapping_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(25):
        h = int(rng.integers(1, 25))
        curve = PriceCurve(
            rng.uniform(0.002, 1.0, h),
            rng.choice([1.0, 1.2, 1.7, 2.3], h),
            rng.uniform(0.0, 0.3, h),
        )
        q = rng.uniform(0.2, 3.0, h)
        sigma = q + rng.uniform(0.3, 20.0, h)
        analytic = mapping_profiles(q, sigma, curve)
        fd = mapping_finite_difference(q, sigma, curve)
        np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-9)


def test_mapping_rejects_negative_per_row_proxy():
    # the consensus solvers price against per-row proxies that can go
    # negative; the mapping's one load check turns that into a typed error
    curve = PriceCurve(np.ones(3), np.full(3, 1.2), np.zeros(3))
    proxies = np.ones((4, 3))
    proxies[2, 1] = -1e-12
    with pytest.raises(ValueError, match="loads must be nonnegative"):
        mapping_profiles(np.ones((4, 3)), proxies, curve)


def test_public_price_methods_reject_negative_and_misshaped_loads():
    curve = PriceCurve(np.ones(3), np.array([1.0, 1.2, 2.0]), np.zeros(3))
    for method in (curve.price_vector, curve.price_derivative_vector):
        with pytest.raises(ValueError, match="loads must be nonnegative"):
            method(np.array([1.0, -0.5, 1.0]))
        with pytest.raises(ValueError, match="loads must be nonnegative"):
            method(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1e-300]]))
        for shape in ((2,), (2, 4), (0,)):
            with pytest.raises(ValueError, match="last dimension"):
                method(np.ones(shape))
    with pytest.raises(ValueError, match="last dimension"):
        mapping_profiles(np.ones(3), np.ones(4), curve)


@pytest.mark.parametrize("seed", range(6))
def test_price_kernels_match_the_formulas_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 30))
    a = rng.uniform(1e-3, 3.0, h)
    b = np.where(rng.random(h) < 0.4, 1.0, rng.uniform(1.0, 4.0, h))
    b[0] = 1.0
    c = rng.uniform(0.0, 1.0, h)
    curve = PriceCurve(a, b, c)
    for shape in ((h,), (7, h)):
        x = rng.uniform(0.0, 100.0, shape) * (rng.random(shape) < 0.7)
        x[..., -1] = 0.0
        price_ref = a * x**b + c
        slope_ref = np.where(b == 1, a, a * b * x ** (b - 1))
        np.testing.assert_array_equal(curve._price(x), price_ref)
        np.testing.assert_array_equal(curve._slope(x), slope_ref)
        np.testing.assert_array_equal(curve.price_vector(x), price_ref)
        np.testing.assert_array_equal(curve.price_derivative_vector(x), slope_ref)
        own = rng.uniform(0.0, 5.0, shape)
        np.testing.assert_array_equal(
            mapping_profiles(own, x, curve), own * slope_ref + price_ref
        )
        if x.ndim == 1:
            assert grid_cost(x, curve) == float(price_ref @ x)
        else:
            # the rows' aggregate keeps the zero last slot
            sigma = x.sum(axis=0)
            np.testing.assert_array_equal(bills(x, curve), x @ (a * sigma**b + c))


@pytest.mark.parametrize("h", [1, 3, 24])
@pytest.mark.parametrize("n", [1, 2, 50, 500])
def test_stacked_bills_are_each_states_bills_bit_for_bit(n, h):
    # a trace writer prices a block of states in one call: each state's
    # aggregate and bills must keep the bits of a call on that state alone.
    # An exponent of 2.0 is one numpy's power squares where it meets it as
    # a scalar, which stacked one-slot loads would make it
    rng = np.random.default_rng(100 * n + h)
    b = rng.choice([1.0, 1.5, 2.0, 2.7], h)
    b[0] = 2.0
    curve = PriceCurve(rng.uniform(0.5, 2.0, h), b, rng.uniform(0.0, 1.0, h))
    for m in (1, 2, 40):
        states = rng.uniform(0.0, 3.0, (m, n, h)) * (rng.random((m, n, h)) < 0.8)
        stacked = bills(states, curve)
        assert stacked.shape == (m, n)
        for q, got, load in zip(states, stacked, states.sum(axis=-2), strict=True):
            assert load.tobytes() == q.sum(axis=0).tobytes()
            assert got.tobytes() == (q @ curve._price(q.sum(axis=0))).tobytes()
            assert bills(q, curve).tobytes() == got.tobytes()


def test_stacked_bills_are_each_states_bills_on_the_avx2_kernels():
    # numpy's AVX2 loops and OpenBLAS's Haswell kernel round `power` and
    # the bill product their own way; a stack must still match there
    node = f"{Path(__file__).name}::test_stacked_bills_are_each_states_bills_bit_for_bit"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
        cwd=Path(__file__).parent, capture_output=True, text=True,
        env={**src_env(), **AVX2_ENV},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# --- convexity ------------------------------------------------------------


def test_hessian_nonnegative_on_random_positive_instances():
    # the paper's per-consumer convexity lemma: the bill is separable per
    # slot, so its Hessian diagonal is nonnegative iff raising q_n^h (and
    # with it the aggregate) never lowers the mapping's slot-h entry
    rng = np.random.default_rng(31)
    for _ in range(1000):
        h = int(rng.integers(1, 6))
        curve = PriceCurve(
            rng.uniform(0.001, 2.0, h), rng.uniform(1.0, 3.0, h), rng.uniform(0, 1, h)
        )
        q = rng.uniform(0.01, 4.0, h)
        sigma = q + rng.uniform(0.01, 10.0, h)
        base = mapping_profiles(q, sigma, curve)
        for slot in range(h):
            bump = np.zeros(h)
            bump[slot] = 10.0 ** rng.uniform(-6, 1)
            moved = mapping_profiles(q + bump, sigma + bump, curve)
            assert moved[slot] >= base[slot]


# --- certificates -----------------------------------------------------------


def test_uniqueness_bound_two_consumers():
    cert = uniqueness_certificate(2, curve1(0.003, 1.2))
    assert cert.uniqueness_bound == pytest.approx(7.0)
    assert cert.holds


def test_uniqueness_holds_for_canonical_exponent():
    curve = PriceCurve(np.full(24, 0.004), np.full(24, 1.2), np.zeros(24))
    assert uniqueness_certificate(50, curve).holds


def test_uniqueness_fails_for_steep_exponent():
    curve = curve1(0.004, 3.5)
    cert = uniqueness_certificate(50, curve)
    assert not cert.holds
    assert 3.5 > cert.uniqueness_bound


def test_uniqueness_requires_two_consumers():
    with pytest.raises(ValueError):
        uniqueness_certificate(1, curve1(1.0, 1.2))


def test_kappa_two_consumers_linear_price():
    # (N + 1 + b) - sqrt(N (N - 1 + b^2)) = 4 - sqrt(4) = 2 for N = 2, b = 1
    assert kappa_margin(2, 1.0) == pytest.approx(2.0)
    kappa, min_eig = monotonicity_certificate(
        np.array([1.0, 2.0]), 1, curve1(1.0, 1.0)
    )
    assert kappa == pytest.approx(2.0)
    assert min_eig > 0


def test_monotonicity_positive_under_uniqueness_condition():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        bound = 3.0 + 4.0 / (n - 1)
        b = rng.uniform(1.0, bound * 0.98)
        curve = curve1(rng.uniform(0.01, 2.0), b)
        loads = rng.uniform(0.05, 5.0, n)
        kappa, min_eig = monotonicity_certificate(loads, 1, curve)
        assert kappa > 0
        assert min_eig > 0


def test_rank_two_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        b = rng.uniform(1.0, 3.0)
        curve = curve1(rng.uniform(0.01, 2.0), b)
        loads = rng.uniform(0.05, 5.0, n)
        z = loads.sum() + (b - 1.0) * loads
        outer = np.outer(z, np.ones(n)) + np.outer(np.ones(n), z)
        eigs = np.linalg.eigvalsh(outer)
        big, small = rank_two_eigenvalues(loads, 1, curve)
        assert big == pytest.approx(eigs[-1], abs=1e-9 * max(1, abs(eigs[-1])))
        assert small == pytest.approx(eigs[0], abs=1e-9 * max(1, abs(eigs[0])))


def test_jacobian_matrix_entries():
    curve = curve1(0.5, 1.5)
    loads = np.array([1.0, 2.0, 3.0])
    g = jacobian_slot_matrix(loads, 1, curve)
    sigma = 0.5 * 1.5 * 6.0 ** (-0.5)
    for n in range(3):
        for m in range(3):
            expected = sigma * (6.0 + 0.5 * loads[n])
            if n == m:
                expected += sigma * 6.0
            assert g[n, m] == pytest.approx(expected)


def test_monotonicity_rejects_nonpositive_loads():
    with pytest.raises(ValueError):
        monotonicity_certificate(np.array([1.0, 0.0]), 1, curve1(1.0, 1.2))


# --- aggregation and PAR ----------------------------------------------------


def test_aggregate_sums_rows():
    q = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(aggregate(q), [4.0, 6.0])


def test_par_flat_profile():
    assert par(np.full(6, 2.5)) == pytest.approx(1.0)


def test_par_two_slot_example():
    assert par(np.array([1.0, 3.0])) == pytest.approx(1.5)


def test_par_zero_total_rejected():
    with pytest.raises(ValueError):
        par(np.zeros(4))


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=24).filter(
        lambda xs: sum(xs) > 0
    )
)
def test_par_at_least_one(loads):
    value = par(np.array(loads))
    assert value >= 1.0 - 1e-12
    if max(loads) - min(loads) == 0:
        assert value == pytest.approx(1.0, abs=1e-12)
