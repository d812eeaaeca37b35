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
from typing import NamedTuple

import numpy as np

from .algorithms import Scenario, non_number
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


def scenario_payload(scenario: Scenario, initial_profiles=None) -> dict:
    """JSON-ready dict for a scenario (plus optional initial profiles,
    refused unless they form a finite (N, H) array, as `load_scenario`
    refuses them)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "horizon": scenario.horizon,
        "price": {
            "a": scenario.curve.a.tolist(),
            "b": scenario.curve.b.tolist(),
            "c": scenario.curve.c.tolist(),
        },
        "consumers": [
            {
                "q_min": spec.q_min.tolist(),
                "q_max": spec.q_max.tolist(),
                "energy": spec.energy,
            }
            for spec in scenario.specs
        ],
    }
    if initial_profiles is not None:
        initials = scenario.profile_array(initial_profiles, "initial_profiles")
        payload["initial_profiles"] = initials.tolist()
    return payload


def payload_hash(payload: dict) -> str:
    """Content hash of the canonical (sorted, compact) JSON encoding."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


def _number_list_text(items) -> str | None:
    """The items of a list (or tuple) of plain ints and finite floats as
    `repr` writes them, "a, b, c", or None for any other list."""
    if not set(map(type, items)) <= {int, float}:
        return None
    text = repr(items if type(items) is list else list(items))[1:-1]
    # "inf" and "nan" are the only number texts with an "n"
    return None if "n" in text else text


def _json_text(obj, indent: int | None = None, sort_keys: bool = False,
               numbers: dict | None = None) -> str:
    """`obj` as JSON text, byte for byte `json.dumps(obj, indent=indent,
    sort_keys=sort_keys)`; with `indent` None, the compact
    `json.dumps(obj, sort_keys=sort_keys, separators=(",", ":"))`.

    Each list of plain ints and finite floats is formatted by one `repr` of
    the list. `numbers` maps the id of each list of `obj` to that text, or
    to None for any other list; a second rendering of the same `obj` (in the
    other layout, say) that is passed the same dict formats no number again.
    """
    numbers = {} if numbers is None else numbers
    pad = "" if indent is None else " " * indent
    colon = ":" if indent is None else ": "

    def key_text(key) -> str:
        text = key if isinstance(key, str) else _json_scalar(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        return encode_basestring_ascii(text)

    def encode(item, nl: str) -> str:
        if isinstance(item, str):
            return encode_basestring_ascii(item)
        scalar = _json_scalar(item)
        if scalar is not None:
            return scalar
        inner = nl + pad
        if isinstance(item, (list, tuple)):
            if not item:
                return "[]"
            if id(item) not in numbers:
                numbers[id(item)] = _number_list_text(item)
            text = numbers[id(item)]
            if text is not None:
                body = text.replace(", ", "," + inner)
            else:
                body = ("," + inner).join(encode(x, inner) for x in item)
            return "[" + inner + body + nl + "]"
        if isinstance(item, dict):
            if not item:
                return "{}"
            pairs = sorted(item.items()) if sort_keys else item.items()
            body = ("," + inner).join(
                key_text(k) + colon + encode(v, inner) for k, v in pairs
            )
            return "{" + inner + body + nl + "}"
        raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")

    return encode(obj, "" if indent is None else "\n")


def save_scenario(path, scenario: Scenario, initial_profiles=None) -> str:
    """Write the scenario JSON; returns its content hash, `payload_hash` of
    the payload, built from the number texts the file was written with."""
    payload = scenario_payload(scenario, initial_profiles)
    numbers: dict = {}
    text = _json_text(payload, indent=2, numbers=numbers)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    blob = _json_text(payload, sort_keys=True, numbers=numbers)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _check_numbers(values, where: str) -> None:
    message = non_number(values, where)
    if message is not None:
        raise ScenarioFormatError(message)


def _reject_unknown(fields: dict, allowed: set, where: str) -> None:
    unknown = set(fields) - allowed
    if unknown:
        raise ScenarioFormatError(
            f"{where}: unknown field(s) {sorted(unknown)} (strict schema)"
        )


def _consumer_specs(path, consumers: list) -> tuple[ConsumerSpec, ...]:
    """The specs of the `consumers` entries, checked in one pass over their
    (N, H) bounds. Entries that do not form such arrays are read one at a
    time instead, so the error names the first bad entry as that pass would."""
    batch = all(type(entry) is dict and entry.keys() == _CONSUMER_FIELDS for entry in consumers)
    if batch:
        columns = {name: [entry[name] for entry in consumers] for name in _CONSUMER_FIELDS}
        # the one-at-a-time pass names a string or a boolean
        batch = not any(non_number(column, "") for column in columns.values())
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
                    return ConsumerSpec.from_rows(q_min, q_max, energy)
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
    return tuple(specs)


def load_scenario(path) -> LoadedScenario:
    """Read a scenario JSON file; strict schema, round-trip exact."""
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
    for name in ("a", "b", "c"):
        _check_numbers(price.get(name), f"{path}: price: {name}")
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
    specs = _consumer_specs(path, consumers)
    try:
        scenario = Scenario(specs, curve)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    initials = None
    if "initial_profiles" in payload:
        try:
            initials = scenario.profile_array(
                payload["initial_profiles"], f"{path}: initial_profiles"
            )
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from exc
    return LoadedScenario(scenario, initials, payload_hash(payload))
