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

import json
import hashlib
from typing import NamedTuple

import numpy as np

from .algorithms import Scenario
from .feasible import ConsumerSpec
from .model import PriceCurve

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
    rng = np.random.default_rng(seed)
    specs = []
    initials = np.empty((n_consumers, horizon))
    lo_off, hi_off = OFFPEAK_QMAX_RANGE
    # a huge jitter overflows a budget sum or the prices: the spec or the
    # scenario refuses it, and the refusal names the jitter
    try:
        with np.errstate(over="ignore"):
            for n in range(n_consumers):
                low = BASE_LOW + rng.uniform(0.0, jitter, horizon)
                high = BASE_HIGH + rng.uniform(0.0, jitter, horizon)
                high = np.maximum(high, low)
                q_max = np.full(horizon, high.max())
                q_max[off_mask] = rng.uniform(lo_off, hi_off, int(off_mask.sum()))
                q_min = np.minimum(low, q_max)
                init = np.clip(rng.uniform(low, high), q_min, q_max)
                specs.append(ConsumerSpec(q_min, q_max, float(init.sum())))
                initials[n] = init
        return Scenario(tuple(specs), PRICE_CURVE), initials
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
    """JSON-ready dict for a scenario (plus optional initial profiles)."""
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
        payload["initial_profiles"] = np.asarray(initial_profiles).tolist()
    return payload


def payload_hash(payload: dict) -> str:
    """Content hash of the canonical (sorted, compact) JSON encoding."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def save_scenario(path, scenario: Scenario, initial_profiles=None) -> str:
    """Write the scenario JSON; returns its content hash."""
    payload = scenario_payload(scenario, initial_profiles)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload_hash(payload)


def _reject_unknown(fields: dict, allowed: set, where: str) -> None:
    unknown = set(fields) - allowed
    if unknown:
        raise ScenarioFormatError(
            f"{where}: unknown field(s) {sorted(unknown)} (strict schema)"
        )


def load_scenario(path) -> LoadedScenario:
    """Read a scenario JSON file; strict schema, round-trip exact."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    _reject_unknown(payload, _TOP_FIELDS, f"{path}")
    for name in ("schema_version", "horizon", "price", "consumers"):
        if name not in payload:
            raise ScenarioFormatError(f"{path}: missing field {name!r}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"{path}: unsupported schema_version {payload['schema_version']!r}"
        )
    price, consumers = payload["price"], payload["consumers"]
    if not isinstance(price, dict):
        raise ScenarioFormatError(f"{path}: price must be an object")
    if not isinstance(consumers, list):
        raise ScenarioFormatError(f"{path}: consumers must be a list")
    _reject_unknown(price, _PRICE_FIELDS, f"{path}: price")
    try:
        curve = PriceCurve(
            np.array(price["a"], dtype=float),
            np.array(price["b"], dtype=float),
            np.array(price["c"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    specs = []
    for idx, entry in enumerate(consumers):
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{path}: consumers[{idx}] must be an object")
        _reject_unknown(entry, _CONSUMER_FIELDS, f"{path}: consumers[{idx}]")
        try:
            specs.append(
                ConsumerSpec(
                    np.array(entry["q_min"], dtype=float),
                    np.array(entry["q_max"], dtype=float),
                    float(entry["energy"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"{path}: consumers[{idx}]: {exc}") from exc
    try:
        scenario = Scenario(tuple(specs), curve)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    initials = None
    if "initial_profiles" in payload:
        try:
            initials = np.array(payload["initial_profiles"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"{path}: initial_profiles: {exc}") from exc
        if initials.shape != (scenario.n_consumers, horizon):
            raise ScenarioFormatError(
                f"{path}: initial_profiles must be {scenario.n_consumers} x {horizon}"
            )
    return LoadedScenario(scenario, initials, payload_hash(payload))
