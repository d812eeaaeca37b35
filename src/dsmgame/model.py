"""Economic primitives: polynomial price curve, billing schemes, game mapping,
and the analytic uniqueness/monotonicity certificates.

Slot indices in the scalar helpers (`monotonicity_certificate`,
`jacobian_slot_matrix`, `rank_two_eigenvalues`) are 1-based, matching the
on-disk file formats; array positions are the usual 0-based numpy convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_1d(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_profile(q, horizon: int | None = None) -> np.ndarray:
    """Validate a consumption profile: 1-D, finite, nonnegative, optional length."""
    arr = _as_1d(q, "profile")
    if np.any(arr < 0):
        raise ValueError("profile entries must be nonnegative")
    if horizon is not None and arr.shape[0] != horizon:
        raise ValueError(f"profile has length {arr.shape[0]}, expected {horizon}")
    return arr


def aggregate(profiles) -> np.ndarray:
    """Elementwise sum of consumer profiles (rows of an N x H array)."""
    mat = np.atleast_2d(np.asarray(profiles, dtype=float))
    return mat.sum(axis=0)


@dataclass(frozen=True)
class PriceCurve:
    """Per-slot polynomial price p_h(L) = a_h * L^b_h + c_h.

    a_h > 0, b_h >= 1, c_h >= 0 for every slot; construction rejects violations.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        # own copies, so no view of the caller's arrays can change the curve
        a = _as_1d(self.a, "a").copy()
        b = _as_1d(self.b, "b").copy()
        c = _as_1d(self.c, "c").copy()
        if not (a.shape == b.shape == c.shape):
            raise ValueError("price parameters a, b, c must have equal length")
        if a.shape[0] == 0:
            raise ValueError("price curve needs at least one slot")
        if np.any(a <= 0):
            raise ValueError("price coefficients a_h must be positive")
        if np.any(b < 1):
            raise ValueError("price exponents b_h must be >= 1")
        if np.any(c < 0):
            raise ValueError("price offsets c_h must be nonnegative")
        with np.errstate(over="ignore"):
            ab = a * b
        if not np.isfinite(ab).all():
            raise ValueError("price slopes a_h * b_h overflow")
        # derived constants of the kernels; the b_h = 1 slots use exponent 0
        # so the derivative never evaluates 0**0 on its discarded branch
        linear = b == 1.0
        for arr, name in (
            (a, "a"), (b, "b"), (c, "c"), (linear, "_linear"),
            (np.where(linear, 0.0, b - 1.0), "_powers"), (ab, "_ab"),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return self.a.shape[0]

    def price_vector(self, loads) -> np.ndarray:
        """p_h(L_h) for an array of loads; last axis must have length H."""
        loads = np.asarray(loads, dtype=float)
        self._check_loads(loads)
        return self._price(loads)

    def price_derivative_vector(self, loads) -> np.ndarray:
        """p_h'(L_h) = a_h b_h L^(b_h - 1); the b_h = 1 branch avoids 0**0."""
        loads = np.asarray(loads, dtype=float)
        self._check_loads(loads)
        return self._slope(loads)

    # unchecked kernels for float arrays whose last axis has length H and
    # whose entries are nonnegative; callers check loads where they enter
    def _price(self, loads: np.ndarray) -> np.ndarray:
        return self.a * loads**self.b + self.c

    def _slope(self, loads: np.ndarray) -> np.ndarray:
        return np.where(self._linear, self.a, self._ab * loads**self._powers)

    def _check_loads(self, loads: np.ndarray) -> None:
        if loads.shape[-1:] != (self.horizon,):
            raise ValueError(
                f"load array has last dimension {loads.shape[-1:]}, expected {self.horizon}"
            )
        if (loads < 0).any():
            raise ValueError("loads must be nonnegative")

    def _slot(self, h: int) -> int:
        if not 1 <= h <= self.horizon:
            raise ValueError(f"slot index {h} outside 1..{self.horizon}")
        return h - 1


def bill_instantaneous(q_n, q_sigma, curve: PriceCurve) -> float:
    """Instantaneous-load bill: sum_h p_h(aggregate_h) * own_h."""
    q_n = as_profile(q_n, curve.horizon)
    q_sigma = as_profile(q_sigma, curve.horizon)
    return float(curve.price_vector(q_sigma) @ q_n)


def grid_cost(q_sigma, curve: PriceCurve) -> float:
    """Total grid cost sum_h p_h(aggregate_h) * aggregate_h."""
    q_sigma = as_profile(q_sigma, curve.horizon)
    return float(curve.price_vector(q_sigma) @ q_sigma)


def mapping_profiles(profiles, aggregates, curve: PriceCurve) -> np.ndarray:
    """Game mapping rows f_n^h = p_h'(agg) * own_h + p_h(agg), broadcasting.

    `aggregates` is one shared aggregate (H,), one per row (N, H), which is
    how the consensus solvers feed per-consumer estimates through, or any
    shape that broadcasts against `profiles`: the gossip runner passes its
    pairs' rows as (2, K, H) against one aggregate per pair, (K, H).
    The aggregates are checked once, here, for public callers; the
    consensus solvers clamp their pricing proxies at zero before the call.
    """
    profiles = np.asarray(profiles, dtype=float)
    aggregates = np.asarray(aggregates, dtype=float)
    curve._check_loads(aggregates)
    return profiles * curve._slope(aggregates) + curve._price(aggregates)


def mapping_component(q_n, q_sigma, curve: PriceCurve) -> np.ndarray:
    """Consumer n's mapping F_n(q_n, q_sigma), the bill gradient in q_n."""
    q_n = as_profile(q_n, curve.horizon)
    q_sigma = as_profile(q_sigma, curve.horizon)
    return mapping_profiles(q_n, q_sigma, curve)


@dataclass(frozen=True)
class Certificate:
    """Numeric uniqueness certificate for the equilibrium: `holds` is true
    iff every price exponent stays below `uniqueness_bound` = 3 + 4/(N-1)."""

    uniqueness_bound: float
    holds: bool


def kappa_margin(n_consumers: int, b) -> np.ndarray:
    """Monotonicity margin kappa = (N + 1 + b) - sqrt(N (N - 1 + b^2))."""
    b = np.asarray(b, dtype=float)
    n = float(n_consumers)
    return (n + 1.0 + b) - np.sqrt(n * (n - 1.0 + b**2))


def uniqueness_certificate(n_consumers: int, curve: PriceCurve) -> Certificate:
    """Evaluate the sufficient uniqueness condition max_h b_h < 3 + 4/(N-1)."""
    if n_consumers < 2:
        raise ValueError("uniqueness bound requires at least two consumers")
    bound = 3.0 + 4.0 / (n_consumers - 1.0)
    return Certificate(uniqueness_bound=bound, holds=bool(np.max(curve.b) < bound))


def jacobian_slot_matrix(slot_loads, h: int, curve: PriceCurve) -> np.ndarray:
    """N x N slot-load Jacobian G_h of the per-slot mapping.

    Entry (n, m) is sigma_h * [q_sum + (b_h - 1) * load_n], plus an extra
    sigma_h * q_sum on the diagonal, with sigma_h = a_h b_h q_sum^(b_h - 2).
    """
    loads = _as_1d(slot_loads, "slot_loads")
    if np.any(loads <= 0):
        raise ValueError("slot loads must be strictly positive")
    i = curve._slot(h)
    q_sum = loads.sum()
    sigma = curve.a[i] * curve.b[i] * q_sum ** (curve.b[i] - 2.0)
    z = q_sum + (curve.b[i] - 1.0) * loads
    g = np.tile(z[:, None], (1, loads.shape[0]))
    np.fill_diagonal(g, z + q_sum)
    return sigma * g


def rank_two_eigenvalues(slot_loads, h: int, curve: PriceCurve) -> tuple[float, float]:
    """Closed-form nonzero eigenvalues of the rank-two part z 1^T + 1 z^T,
    where z = q_sum * 1 + (b_h - 1) * loads."""
    loads = _as_1d(slot_loads, "slot_loads")
    i = curve._slot(h)
    n = loads.shape[0]
    q_sum = loads.sum()
    z = q_sum + (curve.b[i] - 1.0) * loads
    root = np.sqrt(n * (z @ z))
    base = (n + 1.0 + curve.b[i]) * q_sum - 2.0 * q_sum
    return float(base + root), float(base - root)


def monotonicity_certificate(
    slot_loads, h: int, curve: PriceCurve
) -> tuple[float, float]:
    """Per-slot monotonicity check at the given positive loads.

    Returns (kappa_h, min eigenvalue of G_h + G_h^T); the eigenvalue is
    computed with a dense symmetric eigensolver, and is positive whenever
    kappa_h is.
    """
    loads = _as_1d(slot_loads, "slot_loads")
    if np.any(loads <= 0):
        raise ValueError("slot loads must be strictly positive")
    g = jacobian_slot_matrix(loads, h, curve)
    min_eig = float(np.linalg.eigvalsh(g + g.T)[0])
    kappa = float(kappa_margin(loads.shape[0], curve.b[curve._slot(h)]))
    return kappa, min_eig


def par(q_sigma) -> float:
    """Peak-to-average ratio H * max_h(load) / sum_h(load); >= 1 always."""
    q_sigma = as_profile(q_sigma)
    total = q_sigma.sum()
    if total <= 0:
        raise ValueError("total load must be positive")
    return float(q_sigma.shape[0] * q_sigma.max() / total)
