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
from typing import Iterator, NamedTuple

import numpy as np

from ._numtext import UNFINISHED, RowTexts, ends_unfinished, open_output, row_texts
from .algorithms import Scenario, non_number, number_types, quoted
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

#: the fields every scenario file holds, in their order
_TOP_FIELDS = ("schema_version", "horizon", "price", "consumers")
_CONSUMER_FIELDS = ("q_min", "q_max", "energy")


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
    if isinstance(item, float):
        if math.isfinite(item):
            return float.__repr__(item)
        return "NaN" if item != item else "Infinity" if item > 0 else "-Infinity"
    if item is None:
        return "null"
    if isinstance(item, bool):
        return "true" if item else "false"
    return int.__repr__(item) if isinstance(item, int) else None


def _enclose(texts: list[str], nl: str, inner: str, brackets: str) -> str:
    """A JSON list or object, `brackets` "[]" or "{}", of the item texts
    `texts`, laid out as `json.dumps` lays it out: each item after the
    line break and indent `inner`, the closing bracket after `nl`; both
    are "" in the compact layout."""
    if not texts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(texts) + nl + brackets[1]


def _json_parts(obj, indent: int | None = None, sort_keys: bool = False) -> Iterator[str]:
    """`obj` as JSON text, in parts that join to the bytes of
    `json.dumps(obj, indent=indent, sort_keys=sort_keys)`; with `indent`
    None, of the compact `json.dumps(obj, sort_keys=sort_keys,
    separators=(",", ":"))`.

    The top level and each list, array or object in it come one item per
    part, so a scenario's consumers and `initial_profiles` rows stream one
    at a time. An ndarray is written as its `.tolist()` would be, a
    float64 one from the rows of `row_texts`; a `RowTexts` is written as
    its array, from its rows.
    """
    pad = "" if indent is None else " " * indent
    colon = ":" if indent is None else ": "
    #: each str key's text and colon, composed once for all the consumers
    heads: dict[str, str] = {}

    def key_text(key) -> str:
        text = key if isinstance(key, str) else _json_scalar(key)
        if text is None:
            kind = type(key).__name__
            raise TypeError(f"keys must be str, int, float, bool or None, not {kind}")
        text = encode_basestring_ascii(text) + colon
        if type(key) is str:
            heads[key] = text
        return text

    def plain(item: np.ndarray):
        """An ndarray as a `RowTexts` where it holds float64 rows, else as lists."""
        if item.dtype == np.float64 and item.ndim:
            return RowTexts(item, row_texts(item))
        return item.tolist()

    def numbers(row: str, nl: str) -> str:
        """The JSON list of a `row_texts` row."""
        if not row:
            return "[]"
        inner = nl + pad
        return "[" + inner + (row.replace(",", "," + inner) if inner else row) + nl + "]"

    def array(shape: tuple, rows: Iterator[str], nl: str) -> str:
        if len(shape) == 1:
            return numbers(next(rows), nl)
        inner = nl + pad
        return _enclose([array(shape[1:], rows, inner) for _ in range(shape[0])], nl, inner, "[]")

    def encode(item, nl: str) -> str:
        # the scenario's rows, consumers and energies first; a `RowTexts`
        # is a tuple, so it goes before the lists
        if isinstance(item, RowTexts):
            return array(item.values.shape, iter(item.texts), nl)
        inner = nl + pad
        if isinstance(item, dict):
            texts = []
            for key in sorted(item) if sort_keys else item:
                value = item[key]
                # a consumer's bounds and energy, without a call each
                if type(value) is RowTexts and value.values.ndim == 1:
                    value = numbers(value.texts[0], inner)
                elif type(value) is float and math.isfinite(value):
                    value = float.__repr__(value)
                else:
                    value = encode(value, inner)
                texts.append((heads.get(key) or key_text(key)) + value)
            return _enclose(texts, nl, inner, "{}")
        if isinstance(item, str):
            return encode_basestring_ascii(item)
        scalar = _json_scalar(item)
        if scalar is not None:
            return scalar
        if isinstance(item, np.ndarray):
            return encode(plain(item), nl)
        if isinstance(item, (list, tuple)):
            return _enclose([encode(x, inner) for x in item], nl, inner, "[]")
        raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")

    def parts(item, nl: str, depth: int) -> Iterator[str]:
        inner = nl + pad
        item = plain(item) if isinstance(item, np.ndarray) else item
        # (key text, item text), or at depth 0 (key text, item parts)
        if isinstance(item, RowTexts) and item.values.ndim > 1:
            shape, rows = item.values.shape, iter(item.texts)
            items = (("", array(shape[1:], rows, inner)) for _ in range(shape[0]))
        elif isinstance(item, dict):
            keys = sorted(item) if sort_keys else item
            items = (
                (heads.get(k) or key_text(k),
                 encode(item[k], inner) if depth else parts(item[k], inner, 1))
                for k in keys
            )
        elif isinstance(item, (list, tuple)) and not isinstance(item, RowTexts):
            items = (("", encode(x, inner) if depth else parts(x, inner, 1)) for x in item)
        else:
            yield encode(item, nl)
            return
        brackets = "{}" if isinstance(item, dict) else "[]"
        sep = brackets[0] + inner
        for key, value in items:
            if type(value) is str:
                yield sep + key + value
            else:
                yield sep + key + next(value)
                yield from value
            sep = "," + inner
        yield brackets if sep[0] == brackets[0] else nl + brackets[1]

    return parts(obj, "" if indent is None else "\n", 0)


def _line_rows(matrix: np.ndarray) -> list[RowTexts]:
    """One `RowTexts` per row of the float64 `matrix`."""
    return [RowTexts(row, [text]) for row, text in zip(matrix, row_texts(matrix))]


def _content_hash(payload: dict) -> str:
    """SHA-256 of the compact, sorted-key JSON of the payload."""
    digest = hashlib.sha256()
    for part in _json_parts(payload, sort_keys=True):
        digest.update(part.encode("ascii"))
    return digest.hexdigest()


def save_scenario(path, scenario: Scenario, initial_profiles=None) -> str:
    """Write the scenario JSON, with the optional initial profiles (refused
    unless they form a finite (N, H) array, as `load_scenario` refuses
    them); returns its content hash.

    The payload holds each float row, the price curve's and each
    consumer's bounds, as a `RowTexts`, and the initial profiles as one:
    `row_texts` formats them once, a block of rows at a time, and
    `_json_parts` writes the file and the content hash's text from those
    same texts. The file holds the bytes of `json.dumps(payload,
    indent=2)`, and a newline.
    """
    curve = scenario.curve
    bounds = zip(_line_rows(scenario.q_min_matrix), _line_rows(scenario.q_max_matrix))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "horizon": scenario.horizon,
        "price": dict(zip("abc", _line_rows(np.stack([curve.a, curve.b, curve.c])))),
        "consumers": [
            {"q_min": low, "q_max": high, "energy": energy}
            for (low, high), energy in zip(bounds, scenario.budgets.tolist())
        ],
    }
    if initial_profiles is not None:
        initials = scenario.profile_array(initial_profiles, "initial_profiles")
        payload["initial_profiles"] = RowTexts(initials, row_texts(initials))
    with open_output(path) as fh:
        fh.writelines(_json_parts(payload, indent=2))
        fh.write("\n")
    return _content_hash(payload)


def _check_numbers(values, where: str) -> set[type]:
    """The `number_types` of `values`; a ScenarioFormatError naming the
    first string or boolean among them."""
    types = number_types(values)
    message = non_number(values, where, types)
    if message is not None:
        raise ScenarioFormatError(message)
    return types


def _check_fields(fields: dict, names, where: str, optional=()) -> None:
    """A ScenarioFormatError naming a field of `fields` that is not one of
    `names` or `optional`, or else one of `names` that is missing."""
    unknown = set(fields).difference(names, optional)
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown field(s) {sorted(unknown)} (strict schema)")
    for name in names:
        if name not in fields:
            raise ScenarioFormatError(f"{where}: missing field {name!r}")


def _consumer_specs(path, consumers: list) -> tuple[tuple[ConsumerSpec, ...], dict]:
    """The specs of the `consumers` entries, checked in one pass over their
    (N, H) bounds, and the `number_types` of each field's column of values.
    Entries that do not form such arrays are read one at a time instead, so
    the error names the first bad entry as that pass would; their types are
    then not known (an empty dict)."""
    fields = set(_CONSUMER_FIELDS)
    batch = all(type(entry) is dict and entry.keys() == fields for entry in consumers)
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
        where = f"{path}: consumers[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where} must be an object")
        _check_fields(entry, _CONSUMER_FIELDS, where)
        for name in _CONSUMER_FIELDS:
            _check_numbers(entry[name], f"{where}: {name}")
        try:
            specs.append(
                ConsumerSpec(
                    np.array(entry["q_min"], dtype=float),
                    np.array(entry["q_max"], dtype=float),
                    float(entry["energy"]),
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
    return tuple(specs), {}


def load_scenario(path) -> LoadedScenario:
    """Read a scenario JSON file; strict schema, round-trip exact.

    A file that ends in the mark of an overwrite stopped midway is refused
    before it is parsed. The content hash is the SHA-256 of the parsed
    payload's compact, sorted-key JSON, `json.dumps(payload,
    sort_keys=True, separators=(",", ":"))`, as `save_scenario` returns
    it; `_json_parts` composes it. Each list that the type pass, which
    refuses a string or a boolean, found to hold only floats goes in as
    the `RowTexts` of the array read from it, so `row_texts` formats its
    numbers; every other value goes in as parsed, so a list holding an
    int (`"c": [0, 0]`) keeps its int texts and `"schema_version": 1.0`
    its float text. The rows of an all-float `initial_profiles` come back
    as `initial_rows`, for the trace of a run that starts from them.
    """
    if ends_unfinished(path):
        raise ScenarioFormatError(f"{path} {UNFINISHED}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # not UTF-8, or an integer of too many digits
            raise ScenarioFormatError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    _check_fields(payload, _TOP_FIELDS, f"{path}", ("initial_profiles",))
    version = payload["schema_version"]
    if type(version) is bool or version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"{path}: unsupported schema_version {quoted(version)}")
    price, consumers = payload["price"], payload["consumers"]
    if not isinstance(price, dict):
        raise ScenarioFormatError(f"{path}: price must be an object")
    if not isinstance(consumers, list):
        raise ScenarioFormatError(f"{path}: consumers must be a list")
    _check_fields(price, "abc", f"{path}: price")
    price_types = {name: _check_numbers(price[name], f"{path}: price: {name}") for name in "abc"}
    try:
        curve = PriceCurve(*(np.array(price[name], dtype=float) for name in "abc"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"{path}: price: {exc}") from exc
    horizon = payload["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ScenarioFormatError(f"{path}: horizon must be an integer, got {quoted(horizon)}")
    if curve.horizon != horizon:
        raise ScenarioFormatError(
            f"{path}: price arrays have length {curve.horizon}, horizon says {horizon}"
        )
    specs, types = _consumer_specs(path, consumers)
    try:
        scenario = Scenario(specs, curve)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    hashed = dict(payload)
    hashed["price"] = {
        name: RowTexts(values, row_texts(values)) if price_types[name] == {float} else price[name]
        for name, values in zip("abc", (curve.a, curve.b, curve.c))
    }
    if types:
        bounds = [
            _line_rows(matrix) if types[name] == {float} else [entry[name] for entry in consumers]
            for name, matrix in (("q_min", scenario.q_min_matrix), ("q_max", scenario.q_max_matrix))
        ]
        hashed["consumers"] = [
            {"q_min": low, "q_max": high, "energy": entry["energy"]}
            for entry, low, high in zip(consumers, *bounds)
        ]
    initials = initial_rows = None
    if "initial_profiles" in payload:
        rows = payload["initial_profiles"]
        row_types = number_types(rows)
        try:
            initials = scenario.profile_array(rows, f"{path}: initial_profiles", row_types)
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from exc
        # an int's text ("1") is not its float's ("1.0")
        if row_types == {float}:
            hashed["initial_profiles"] = initial_rows = RowTexts(initials, row_texts(initials))
    return LoadedScenario(scenario, initials, _content_hash(hashed), initial_rows)
