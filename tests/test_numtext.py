"""The trace writer's float formatter against its oracle, Python's `repr`."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmgame._numtext as numtext
import dsmgame.algorithms as algorithms
from dsmgame._numtext import CHUNK, REPR_BELOW, float_texts, row_reprs, row_texts
from dsmgame.algorithms import run_algorithm1
from dsmgame.scenario import generate
from conftest import AVX2_ENV, src_env


def reprs(x: np.ndarray) -> list[str]:
    return list(map(repr, x.tolist()))


def bits_of(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


#: array sizes from a single value to a few chunks, on both sides of the
#: switch from `repr` to the fast path and of a chunk's end, a few
#: thousand values at most
assert REPR_BELOW < CHUNK <= 8192
SIZES = (1, 2, 17, REPR_BELOW - 1, REPR_BELOW, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)

#: any 64-bit pattern, and one of a value the fast path takes, either sign
RAW = st.integers(0, 2**64 - 1)
FIXED = st.tuples(st.integers(bits_of(1e-4), bits_of(1e16) - 1), st.booleans()).map(
    lambda pair: pair[0] | (pair[1] << 63)
)


@settings(max_examples=150, deadline=None)
@given(
    patterns=st.lists(st.one_of(RAW, FIXED), min_size=1, max_size=40),
    size=st.sampled_from(SIZES),
    background=st.sampled_from(["fixed", "bits"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_texts_is_repr_on_bit_patterns(patterns, size, background, seed):
    # the drawn patterns sit among values that keep the fast path running
    # ("fixed") or among any bit patterns, most of which it leaves to repr
    rng = np.random.default_rng(seed)
    if background == "fixed":
        x = rng.uniform(0.0, 50.0, size) * rng.choice([-1.0, 1.0], size)
    else:
        x = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)
    drawn = np.array(patterns, dtype=np.uint64).view(np.float64)[:size]
    x[rng.choice(size, drawn.size, replace=False)] = drawn
    assert float_texts(x) == reprs(x)


def special_values() -> np.ndarray:
    """±0, subnormals, every power of two and of ten, and 1e-5, 1e-4 and
    1e16 with their neighbours one ulp away, both signs."""
    powers = np.concatenate((
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{e}") for e in range(-323, 309)],
    ))
    edges = np.array([1e-5, 1e-4, 1e16])
    near = np.concatenate((
        powers, edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, np.inf, np.nan],
    ))
    return np.concatenate((near, -near))


def test_float_texts_is_repr_on_special_values():
    specials = special_values()
    # among fixed-notation values, so each chunk takes the fast path
    rng = np.random.default_rng(0)
    x = np.concatenate((specials, rng.uniform(0.1, 10.0, specials.size)))
    rng.shuffle(x)
    assert float_texts(x) == reprs(x)
    for size in SIZES:
        assert float_texts(x[:size]) == reprs(x[:size])
    assert float_texts(specials) == reprs(specials)


def test_float_texts_is_repr_on_the_avx2_code_path():
    # the kernel is integer arithmetic and table lookups, so numpy's
    # dispatch to other SIMD loops must not change a byte
    node = (
        f"{Path(__file__).name}::test_float_texts_is_repr_on_special_values "
        f"{Path(__file__).name}::test_float_texts_is_repr_on_bit_patterns "
        f"{Path(__file__).name}::test_row_texts_are_the_rows_json_writes_on_bit_patterns"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node.split()],
        cwd=Path(__file__).parent, capture_output=True, text=True,
        env={**src_env(), **AVX2_ENV},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_float_texts_takes_any_shape_and_list():
    x = np.arange(1.0, 1 + 2 * CHUNK).reshape(2, -1) / 7
    assert float_texts(x) == reprs(x.ravel())
    assert float_texts([0.1, 2.5, -0.0]) == ["0.1", "2.5", "-0.0"]
    assert float_texts([0.0, 1e-20, np.nan]) == ["0.0", "1e-20", "nan"]
    assert float_texts(np.empty(0)) == []


def test_the_fast_path_formats_every_value_of_the_n50_alg1_trace(monkeypatch, tmp_path):
    # the paper's N = 50 run at tol 1e-4 (scripts/trace_digests.py): its
    # loads, bills and residuals all print in fixed notation, so not one
    # of them should reach repr; and the writer's calls stay within a chunk
    counts = {"written": 0, "fast": 0, "repr": 0}
    calls = []

    def counted(name, function):
        def wrapper(x, *args):
            counts[name] += np.size(x)
            if name == "written":
                calls.append(np.size(x))
            return function(x, *args)
        return wrapper

    monkeypatch.setattr(algorithms, "float_texts", counted("written", float_texts))
    monkeypatch.setattr(numtext, "_fixed_texts", counted("fast", numtext._fixed_texts))
    monkeypatch.setattr(numtext, "_repr_texts", counted("repr", numtext._repr_texts))
    scenario, init = generate(50, seed=7)
    _, trace = run_algorithm1(scenario, init=init, tol=1e-4, max_iter=500)
    trace.to_csv(tmp_path / "trace.csv")
    assert counts["repr"] == 0
    assert counts["fast"] == counts["written"] > 50 * 24 * trace.iterations // 2
    assert max(calls) <= CHUNK


def test_the_fast_path_writes_every_power_of_two_it_takes():
    # the kernel gives a power of two the full interval below it, though
    # its next value down is nearer; that leaves these 67 values exact,
    # so each one is checked
    powers = np.ldexp(1.0, np.arange(-14, 55))
    powers = powers[(powers >= 1e-4) & (powers < 1e16)]
    assert powers.size == 67
    x = np.concatenate((powers, -powers))
    assert numtext._fixed_texts(x) == reprs(x)


def test_arrays_below_the_switch_go_to_repr(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x.size)
        return fixed_texts(x)

    fixed_texts = numtext._fixed_texts
    monkeypatch.setattr(numtext, "_fixed_texts", counted)
    x = np.linspace(0.1, 9.9, CHUNK + REPR_BELOW - 1)
    for size in SIZES:
        assert float_texts(x[:size]) == reprs(x[:size])
    # a chunk's tail below the switch goes to repr too
    assert float_texts(x) == reprs(x)
    assert sorted(set(calls)) == [REPR_BELOW, CHUNK - 1, CHUNK]


#: what JSON writes for the texts `repr` gives the non-finite values
JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_rows(x: np.ndarray) -> list[str]:
    return [",".join(JSON_NON_FINITE.get(t, t) for t in reprs(row)) for row in x]


@settings(max_examples=150, deadline=None)
@given(
    patterns=st.lists(st.one_of(RAW, FIXED), max_size=40),
    specials=st.lists(st.sampled_from(special_values().tolist()), max_size=8),
    width=st.sampled_from([1, 3, 24, CHUNK + 1]),
    n_rows=st.sampled_from([1, 2, 11, 100, 400]),
    background=st.sampled_from(["fixed", "bits"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_texts_are_the_rows_json_writes_on_bit_patterns(
    patterns, specials, width, n_rows, background, seed
):
    # blocks below the switch to repr, blocks the fast path takes whole
    # (their rows laid out in one text matrix) and blocks holding a value
    # on the repr path: -0.0, subnormals, the 1e-4 and 1e16 edges, nan
    # and the infinities as JSON writes them
    rng = np.random.default_rng(seed)
    n_rows = min(n_rows, max(1, 2 * CHUNK // width))
    size = n_rows * width
    if background == "fixed":
        x = rng.uniform(0.0, 50.0, size) * rng.choice([-1.0, 1.0], size)
    else:
        x = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)
    drawn = np.concatenate((np.array(patterns, dtype=np.uint64).view(np.float64), specials))
    drawn = drawn[:size]
    x[rng.choice(size, drawn.size, replace=False)] = drawn
    x = x.reshape(n_rows, width)
    assert row_texts(x) == json_rows(x)
    assert row_reprs(x) == [",".join(reprs(row)) for row in x]


def test_row_texts_lay_out_whole_fast_blocks_and_take_any_shape(monkeypatch):
    # an all-fixed-notation block of rows never goes number by number
    monkeypatch.setattr(numtext, "float_texts", None)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 20.0, (3, 150, 24)) * rng.choice([-1.0, 1.0], (3, 150, 24))
    assert row_texts(x) == json_rows(x.reshape(-1, 24))
    monkeypatch.undo()
    x[1, 7, 3] = 0.0
    assert row_texts(x) == json_rows(x.reshape(-1, 24))
    assert row_texts(np.empty((4, 0))) == [""] * 4
    assert row_texts(np.empty((0, 3))) == []
    assert row_texts([[0.5, -0.0], [np.inf, 1e22]]) == ["0.5,-0.0", "Infinity,1e+22"]
    assert row_reprs([[0.5, -0.0], [np.inf, np.nan]]) == ["0.5,-0.0", "inf,nan"]
