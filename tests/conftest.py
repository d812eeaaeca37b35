"""Shared fixtures: deterministic toy games and the canonical desk-scale
scenario, built once per session where they are expensive."""

import os
from pathlib import Path

import numpy as np
import pytest

from dsmgame.algorithms import Scenario
from dsmgame.feasible import ConsumerSpec, sample_feasible
from dsmgame.model import PriceCurve
from dsmgame.network import CommGraph
from dsmgame.scenario import generate


REPO = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """Environment for a child Python process that imports dsmgame from this
    checkout's `src`, installed or not."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


#: per-process switches to numpy's AVX2 loops and OpenBLAS's Haswell kernel,
#: which stand in for an x86-64 host without AVX-512
AVX2_ENV = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Haswell",
}


STAR_5 = CommGraph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}))


def make_toy_game(seed: int) -> tuple[Scenario, np.ndarray]:
    """Small well-conditioned game (N in 2..4, H in 2..3) with feasible
    initial profiles, deterministic per seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    h = int(rng.integers(2, 4))
    a = rng.uniform(1.0, 2.2, h)
    b = rng.choice([1.0, 1.2], h)
    c = rng.uniform(0.0, 0.1, h)
    curve = PriceCurve(a, b, c)
    specs = []
    for _ in range(n):
        q_min = rng.uniform(0.3, 0.8, h)
        q_max = q_min + rng.uniform(1.0, 2.0, h)
        frac = rng.uniform(0.35, 0.65)
        energy = float(q_min.sum() + frac * (q_max.sum() - q_min.sum()))
        specs.append(ConsumerSpec(q_min, q_max, energy))
    scenario = Scenario(tuple(specs), curve)
    init = np.vstack([sample_feasible(spec, rng) for spec in scenario.specs])
    return scenario, init


# Two-consumer instance built so the billing schemes order the consumers
# oppositely: A has the larger budget but can shift almost everything into
# the cheap slot, while B is pinned to the expensive one.
REVERSAL_CURVE = PriceCurve(np.array([0.2, 1.0]), np.ones(2), np.zeros(2))
REVERSAL_SPECS = (
    ConsumerSpec(np.array([0.1, 0.1]), np.array([2.9, 2.9]), 3.0),  # A
    ConsumerSpec(np.array([0.1, 2.0]), np.array([2.7, 2.7]), 2.8),  # B
)


@pytest.fixture(scope="session")
def canonical():
    """Seeded section-VII style scenario (N=50, H=24) plus initial profiles."""
    scenario, init = generate(seed=7)
    return scenario, init
