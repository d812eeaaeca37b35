"""Residential scenario generation (base consumption interval, randomized
per-consumer bounds, peak-segmented prices) and versioned persistence.

The generator draws on one fixed day, held in module constants: `SEGMENTS`
labels 24 hourly slots starting at 8 AM (off-peak 12 AM-7 AM, mid-peak
7 AM-4 PM and 10 PM-12 AM, on-peak 4 PM-10 PM); `BASE_LOW` and `BASE_HIGH`
are its low and upper consumption limits per slot; `PRICE_CURVE` prices them
with the `SEGMENT_PRICES` coefficients 0.003/0.004/0.005, exponent
`CANONICAL_EXPONENT` 1.2 and offset 0; `OFFPEAK_QMAX_RANGE` bounds the
off-peak upper limits. Only the number of consumers, the seed and the jitter
are settable.

Initial consumption is drawn between each consumer's jittered low and upper
limit curves, and the energy budget is the sum of that initial draw, so every
generated spec is feasible by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._numtext import RowTexts, open_output, row_texts
from .algorithms import Scenario, non_number, number_types
from .feasible import ConsumerSpec, InvalidSetError
from .model import PriceCurve
from .network import parse_int

OFF_PEAK = "off-peak"
MID_PEAK = "mid-peak"
ON_PEAK = "on-peak"

#: the canonical day, one label per hourly slot; slot 1 is 8-9 AM
SEGMENTS = (
    (MID_PEAK,) * 8      # 8 AM-4 PM
    + (ON_PEAK,) * 6     # 4 PM-10 PM
    + (MID_PEAK,) * 2    # 10 PM-12 AM
    + (OFF_PEAK,) * 7    # 12 AM-7 AM
    + (MID_PEAK,)        # 7 AM-8 AM
)


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


#: representative residential low and upper consumption limits per slot
#: (hand-digitized); the generator jitters them per consumer
BASE_LOW = _read_only([
    0.36, 0.35, 0.34, 0.34, 0.35, 0.34, 0.35, 0.36,  # 8 AM-4 PM
    0.56, 0.70, 0.84, 0.91, 0.84, 0.70,              # 4 PM-10 PM
    0.35, 0.34,                                      # 10 PM-12 AM
    0.14, 0.11, 0.10, 0.10, 0.10, 0.11, 0.14,        # 12 AM-7 AM
    0.36,                                            # 7 AM-8 AM
])
BASE_HIGH = _read_only([
    0.72, 0.70, 0.68, 0.69, 0.71, 0.70, 0.69, 0.71,
    1.12, 1.40, 1.68, 1.82, 1.68, 1.40,
    0.72, 0.68,
    0.21, 0.20, 0.18, 0.17, 0.18, 0.19, 0.21,
    0.70,
])
#: canonical per-segment price coefficients a_h
SEGMENT_PRICES = {OFF_PEAK: 0.003, MID_PEAK: 0.004, ON_PEAK: 0.005}
CANONICAL_EXPONENT = 1.2
#: p_h(L) = a_h * L^1.2 with a_h by segment and no offset
PRICE_CURVE = PriceCurve(
    np.array([SEGMENT_PRICES[label] for label in SEGMENTS]),
    np.full(len(SEGMENTS), CANONICAL_EXPONENT),
    np.zeros(len(SEGMENTS)),
)
#: off-peak upper limits are drawn uniformly from this range
OFFPEAK_QMAX_RANGE = (0.4, 0.6)

SCHEMA_VERSION = 1


class ScenarioFormatError(ValueError):
    """A scenario file failed to parse or validate."""


def _uniform(low, high, u):
    """Uniform draws on [low, high) from the unit draws `u`, by the
    expression `Generator.uniform` evaluates, so with its bits."""
    return low + (high - low) * u


def generate(
    n_consumers: int = 50,
    seed: int = 7,
    jitter: float = 0.1,
) -> tuple[Scenario, np.ndarray]:
    """Draw a scenario on the canonical day plus its initial profiles,
    deterministically per seed.

    Per consumer: a uniform [0, jitter] offset is added independently to the
    low and upper limit curves; q_min is the jittered low curve; q_max is the
    maximum of the jittered upper curve on mid/on-peak slots and a uniform
    `OFFPEAK_QMAX_RANGE` draw elsewhere; the initial point is drawn between the
    jittered limit curves (clipped into the bounds), and its sum becomes the
    budget. The price curve is `PRICE_CURVE`.
    """
    if n_consumers < 1:
        raise ValueError("need at least one consumer")
    if not 0 <= jitter < np.inf:
        raise ValueError(f"jitter must be finite and nonnegative, got {jitter}")
    horizon = len(SEGMENTS)
    off_mask = np.array(SEGMENTS) == OFF_PEAK
    n_off = int(off_mask.sum())
    # one draw holds every consumer's uniforms, each row in the order of the
    # per-consumer draws it replaces: low jitter, upper jitter, off-peak
    # limits, start point; `_uniform` maps them as `Generator.uniform` does
    u = np.random.default_rng(seed).random((n_consumers, 3 * horizon + n_off))
    u_low, u_high, u_off, u_init = np.split(
        u, [horizon, 2 * horizon, 2 * horizon + n_off], axis=1
    )
    low = BASE_LOW + _uniform(0.0, jitter, u_low)
    high = np.maximum(BASE_HIGH + _uniform(0.0, jitter, u_high), low)
    q_max = np.repeat(high.max(axis=1, keepdims=True), horizon, axis=1)
    q_max[:, off_mask] = _uniform(*OFFPEAK_QMAX_RANGE, u_off)
    q_min = np.minimum(low, q_max)
    initials = np.clip(_uniform(low, high, u_init), q_min, q_max)
    # a huge jitter overflows a budget sum or the prices: the specs or the
    # scenario refuse it, and the refusal names the jitter
    try:
        with np.errstate(over="ignore"):
            budgets = initials.sum(axis=1)
        specs = ConsumerSpec.from_rows(q_min, q_max, budgets)
        return Scenario(specs, PRICE_CURVE), initials
    except ValueError as exc:
        raise ValueError(f"jitter {jitter:g} is too large: {exc}") from None


# --- persistence -----------------------------------------------------------

_TOP_FIELDS = {"schema_version", "horizon", "price", "consumers", "initial_profiles"}
_PRICE_FIELDS = {"a", "b", "c"}
_CONSUMER_FIELDS = {"q_min", "q_max", "energy"}


class LoadedScenario(NamedTuple):
    scenario: Scenario
    initial_profiles: np.ndarray | None
    content_hash: str
    #: the rows of `initial_profiles` that the content hash was composed
    #: from, where its list held only floats
    initial_rows: RowTexts | None = None


def _json_scalar(item) -> str | None:
    """None, a bool, an int or a float as json writes it; None for any
    other object."""
    if item is None:
        return "null"
    if item is True:
        return "true"
    if item is False:
        return "false"
    if isinstance(item, int):
        return int.__repr__(item)
    if isinstance(item, float):
        if item != item:
            return "NaN"
        if item == math.inf:
            return "Infinity"
        if item == -math.inf:
            return "-Infinity"
        return float.__repr__(item)
    return None


def _enclose(texts: Iterable[str], nl: str, inner: str, brackets: str) -> Iterator[str]:
    """A JSON list or object, `brackets` "[]" or "{}", of the item texts
    `texts`, in parts of one item each, laid out as `json.dumps` lays it
    out: each item after the line break and indent `inner`, the closing
    bracket after `nl`; both are "" in the compact layout."""
    sep = brackets[0] + inner
    for text in texts:
        yield sep + text
        sep = "," + inner
    yield brackets if sep[0] == brackets[0] else nl + brackets[1]


def _number_list(row: str, nl: str, inner: str) -> str:
    """The JSON list of a `row_texts` row, laid out as `_enclose` lays
    out a list."""
    if not row:
        return "[]"
    return "[" + inner + (row.replace(",", "," + inner) if inner else row) + nl + "]"


def _json_text(obj, indent: int | None = None, sort_keys: bool = False) -> str:
    """`obj` as JSON text, byte for byte `json.dumps(obj, indent=indent,
    sort_keys=sort_keys)`; with `indent` None, the compact
    `json.dumps(obj, sort_keys=sort_keys, separators=(",", ":"))`.

    An ndarray is written as its `.tolist()` would be; a float64 one's
    numbers are formatted by `row_texts`, not by one `repr` each. A
    `RowTexts` is written as its array, from its rows.
    """
    pad = "" if indent is None else " " * indent
    colon = ":" if indent is None else ": "

    def key_text(key) -> str:
        text = key if isinstance(key, str) else _json_scalar(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        return encode_basestring_ascii(text)

    def array(shape: tuple, rows: Iterator[str], nl: str) -> str:
        inner = nl + pad
        if len(shape) == 1:
            return _number_list(next(rows), nl, inner)
        items = (array(shape[1:], rows, inner) for _ in range(shape[0]))
        return "".join(_enclose(items, nl, inner, "[]"))

    def encode(item, nl: str) -> str:
        if isinstance(item, str):
            return encode_basestring_ascii(item)
        scalar = _json_scalar(item)
        if scalar is not None:
            return scalar
        inner = nl + pad
        if isinstance(item, RowTexts):
            return array(item.values.shape, iter(item.texts), nl)
        if isinstance(item, np.ndarray):
            if item.dtype != np.float64 or not item.ndim:
                return encode(item.tolist(), nl)
            return array(item.shape, iter(row_texts(item)), nl)
        if isinstance(item, (list, tuple)):
            return "".join(_enclose((encode(x, inner) for x in item), nl, inner, "[]"))
        if isinstance(item, dict):
            pairs = sorted(item.items()) if sort_keys else item.items()
            texts = (key_text(k) + colon + encode(v, inner) for k, v in pairs)
            return "".join(_enclose(texts, nl, inner, "{}"))
        raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")

    return encode(obj, "" if indent is None else "\n")


class _Texts(NamedTuple):
    """A scenario's numbers as JSON texts; a list's texts are joined by
    commas, and the bounds and start hold one such row per consumer."""

    schema_version: str
    horizon: str
    price: tuple[str, str, str]  # a, b, c
    q_min: list[str]
    q_max: list[str]
    energy: list[str]
    initial: list[str] | None


def _scenario_parts(texts: _Texts, canonical: bool) -> Iterator[str]:
    """The scenario JSON from its number texts, byte for byte `json.dumps`
    of the payload: as `save_scenario` writes it (`indent=2`, keys in the
    schema's order) or, `canonical`, as the content hash reads it (compact,
    keys sorted). It comes in parts of at most one consumer or one row of
    `initial_profiles` each, so the whole text is never held at once."""
    nl = [""] * 5 if canonical else ["\n" + "  " * depth for depth in range(5)]
    colon = ":" if canonical else ": "

    def items(texts: Iterable[str], depth: int, brackets: str) -> Iterator[str]:
        return _enclose(texts, nl[depth], nl[depth + 1], brackets)

    def numbers(row: str, depth: int) -> str:
        return _number_list(row, nl[depth], nl[depth + 1])

    def fields(pairs: dict, depth: int) -> Iterator[str]:
        keys = sorted(pairs) if canonical else pairs
        return items((f'"{key}"{colon}{pairs[key]}' for key in keys), depth, "{}")

    price = "".join(fields({key: numbers(row, 2) for key, row in zip("abc", texts.price)}, 1))
    consumers = (
        "".join(fields({"q_min": numbers(low, 3), "q_max": numbers(high, 3), "energy": energy}, 2))
        for low, high, energy in zip(texts.q_min, texts.q_max, texts.energy)
    )
    # each key's value as parts; the two lists stream one item at a time
    top = {
        "schema_version": [texts.schema_version],
        "horizon": [texts.horizon],
        "price": [price],
        "consumers": items(consumers, 1, "[]"),
    }
    if texts.initial is not None:
        rows = (numbers(row, 2) for row in texts.initial)
        top["initial_profiles"] = items(rows, 1, "[]")
    sep = "{" + nl[1]
    for key in sorted(top) if canonical else top:
        yield f'{sep}"{key}"{colon}'
        yield from top[key]
        sep = "," + nl[1]
    yield nl[0] + "}"


def _content_hash(texts: _Texts) -> str:
    """SHA-256 of the compact, sorted-key JSON of the payload."""
    digest = hashlib.sha256()
    for part in _scenario_parts(texts, canonical=True):
        digest.update(part.encode("ascii"))
    return digest.hexdigest()


def save_scenario(path, scenario: Scenario, initial_profiles=None) -> str:
    """Write the scenario JSON, with the optional initial profiles (refused
    unless they form a finite (N, H) array, as `load_scenario` refuses
    them); returns its content hash.

    `row_texts` formats the numbers from the scenario's arrays, a block
    of rows at a time, and `_scenario_parts` writes the file and the
    content hash's text from those same texts. The file holds the bytes of
    `json.dumps(payload, indent=2)`, and a newline.
    """
    initials = None
    if initial_profiles is not None:
        initials = row_texts(scenario.profile_array(initial_profiles, "initial_profiles"))
    curve = scenario.curve
    texts = _Texts(
        str(SCHEMA_VERSION),
        str(scenario.horizon),
        tuple(row_texts(np.stack([curve.a, curve.b, curve.c]))),
        row_texts(scenario.q_min_matrix),
        row_texts(scenario.q_max_matrix),
        row_texts(scenario.budgets[:, None]),
        initials,
    )
    with open_output(path) as fh:
        fh.writelines(_scenario_parts(texts, canonical=False))
        fh.write("\n")
    return _content_hash(texts)


def _number_texts(rows: list, array: np.ndarray, types: set[type] | None) -> list[str]:
    """The JSON texts of the parsed `rows`, each a list of numbers or one
    number, that hold the rows of the 2-D `array`, a row's texts joined by
    commas: from the array where `types`, the `number_types` of `rows`,
    say that every number is a float; else item by item, so that an int
    keeps its text."""
    if types == {float}:
        return row_texts(array)
    return [
        ",".join(map(_json_scalar, row)) if type(row) is list else _json_scalar(row)
        for row in rows
    ]


def _check_numbers(values, where: str) -> set[type]:
    """The `number_types` of `values`; a ScenarioFormatError naming the
    first string or boolean among them."""
    types = number_types(values)
    message = non_number(values, where, types)
    if message is not None:
        raise ScenarioFormatError(message)
    return types


def _reject_unknown(fields: dict, allowed: set, where: str) -> None:
    unknown = set(fields) - allowed
    if unknown:
        raise ScenarioFormatError(
            f"{where}: unknown field(s) {sorted(unknown)} (strict schema)"
        )


def _consumer_specs(path, consumers: list) -> tuple[tuple[ConsumerSpec, ...], dict]:
    """The specs of the `consumers` entries, checked in one pass over their
    (N, H) bounds, and the `number_types` of each field's column of values.
    Entries that do not form such arrays are read one at a time instead, so
    the error names the first bad entry as that pass would; their types are
    then not known (an empty dict)."""
    batch = all(type(entry) is dict and entry.keys() == _CONSUMER_FIELDS for entry in consumers)
    if batch:
        columns = {name: [entry[name] for entry in consumers] for name in _CONSUMER_FIELDS}
        types = {name: number_types(column) for name, column in columns.items()}
        # the one-at-a-time pass names a string or a boolean
        batch = not any(non_number(columns[name], "", types[name]) for name in columns)
    if batch:
        try:
            q_min = np.array(columns["q_min"], dtype=float)
            q_max = np.array(columns["q_max"], dtype=float)
            energy = [float(e) for e in columns["energy"]]
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if q_min.ndim == q_max.ndim == 2:
                try:
                    return ConsumerSpec.from_rows(q_min, q_max, energy), types
                except InvalidSetError as exc:
                    raise ScenarioFormatError(
                        f"{path}: consumers[{exc.row}]: {exc}"
                    ) from exc
    specs = []
    for idx, entry in enumerate(consumers):
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{path}: consumers[{idx}] must be an object")
        _reject_unknown(entry, _CONSUMER_FIELDS, f"{path}: consumers[{idx}]")
        for name in ("q_min", "q_max", "energy"):
            _check_numbers(entry.get(name), f"{path}: consumers[{idx}]: {name}")
        try:
            specs.append(
                ConsumerSpec(
                    np.array(entry["q_min"], dtype=float),
                    np.array(entry["q_max"], dtype=float),
                    float(entry["energy"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioFormatError(f"{path}: consumers[{idx}]: {exc}") from exc
    return tuple(specs), {}


def load_scenario(path) -> LoadedScenario:
    """Read a scenario JSON file; strict schema, round-trip exact.

    The content hash is the SHA-256 of the payload's compact, sorted-key
    JSON, `json.dumps(payload, sort_keys=True, separators=(",", ":"))`,
    as `save_scenario` returns it. `_scenario_parts` composes that text
    from the arrays the file was read into, with `row_texts`, where the
    type pass that refuses a string or a boolean found only floats in a
    list; a list holding an int (`"c": [0, 0]`) keeps its int texts, item
    by item, and `"schema_version": 1.0` keeps its float text. The rows
    of an all-float `initial_profiles` come back as `initial_rows`, for
    the trace of a run that starts from them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # not UTF-8, or an integer of too many digits
            raise ScenarioFormatError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    _reject_unknown(payload, _TOP_FIELDS, f"{path}")
    for name in ("schema_version", "horizon", "price", "consumers"):
        if name not in payload:
            raise ScenarioFormatError(f"{path}: missing field {name!r}")
    if type(payload["schema_version"]) is bool or payload["schema_version"] != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"{path}: unsupported schema_version {payload['schema_version']!r}"
        )
    price, consumers = payload["price"], payload["consumers"]
    if not isinstance(price, dict):
        raise ScenarioFormatError(f"{path}: price must be an object")
    if not isinstance(consumers, list):
        raise ScenarioFormatError(f"{path}: consumers must be a list")
    _reject_unknown(price, _PRICE_FIELDS, f"{path}: price")
    price_types = [_check_numbers(price.get(name), f"{path}: price: {name}") for name in "abc"]
    try:
        curve = PriceCurve(
            np.array(price["a"], dtype=float),
            np.array(price["b"], dtype=float),
            np.array(price["c"], dtype=float),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"{path}: price: {exc}") from exc
    horizon = payload["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ScenarioFormatError(
            f"{path}: horizon must be an integer, got {json.dumps(horizon)}"
        )
    if curve.horizon != horizon:
        raise ScenarioFormatError(
            f"{path}: price arrays have length {curve.horizon}, horizon says {horizon}"
        )
    specs, types = _consumer_specs(path, consumers)
    try:
        scenario = Scenario(specs, curve)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    initials = initial_texts = initial_rows = None
    if "initial_profiles" in payload:
        rows = payload["initial_profiles"]
        row_types = number_types(rows)
        try:
            initials = scenario.profile_array(rows, f"{path}: initial_profiles", row_types)
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from exc
        initial_texts = _number_texts(rows, initials, row_types)
        # an int's text ("1") is not its float's ("1.0")
        if row_types == {float}:
            initial_rows = RowTexts(initials, initial_texts)
    texts = _Texts(
        _json_scalar(payload["schema_version"]),
        _json_scalar(horizon),
        tuple(
            _number_texts([price[name]], getattr(curve, name)[None], kinds)[0]
            for name, kinds in zip("abc", price_types)
        ),
        *(
            _number_texts([entry[name] for entry in consumers], array, types.get(name))
            for name, array in (
                ("q_min", scenario.q_min_matrix),
                ("q_max", scenario.q_max_matrix),
                ("energy", scenario.budgets[:, None]),
            )
        ),
        initial_texts,
    )
    return LoadedScenario(scenario, initials, _content_hash(texts), initial_rows)
