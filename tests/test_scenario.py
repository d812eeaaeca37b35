"""Scenario generation, the canonical day's segments, and persistence tests."""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmgame import feasible
from dsmgame import scenario as scenario_module
from dsmgame._numtext import RowTexts, row_texts
from dsmgame.cli import main
from dsmgame.feasible import is_feasible
from dsmgame.scenario import (
    BASE_HIGH,
    BASE_LOW,
    MID_PEAK,
    OFF_PEAK,
    ON_PEAK,
    SEGMENTS,
    ScenarioFormatError,
    generate,
    load_scenario,
    save_scenario,
    _json_parts,
)
from oracles import reference_generate, reference_hash, reference_payload


# --- segments ----------------------------------------------------------------


def test_segment_examples_for_canonical_clock():
    assert SEGMENTS[0] == MID_PEAK      # 8-9 AM
    assert SEGMENTS[8] == ON_PEAK       # 4-5 PM
    assert SEGMENTS[16] == OFF_PEAK     # 12-1 AM
    assert len(SEGMENTS) == 24


def test_segment_boundaries():
    hours = {(8 + i) % 24: lab for i, lab in enumerate(SEGMENTS)}
    # off-peak 12 AM-7 AM, on-peak 4 PM-10 PM, mid-peak elsewhere
    assert all(hours[h] == OFF_PEAK for h in range(0, 7))
    assert all(hours[h] == ON_PEAK for h in range(16, 22))
    assert all(hours[h] == MID_PEAK for h in list(range(7, 16)) + [22, 23])


# --- base limits -------------------------------------------------------------


def test_default_base_interval_shape():
    assert BASE_LOW.shape == BASE_HIGH.shape == (len(SEGMENTS),)
    assert np.all(BASE_LOW <= BASE_HIGH)
    assert np.all(BASE_LOW >= 0)
    assert not BASE_LOW.flags.writeable and not BASE_HIGH.flags.writeable


# --- generation ---------------------------------------------------------------


def test_generation_is_deterministic():
    a_scen, a_init = generate(seed=5)
    b_scen, b_init = generate(seed=5)
    np.testing.assert_array_equal(a_init, b_init)
    for sa, sb in zip(a_scen.specs, b_scen.specs):
        np.testing.assert_array_equal(sa.q_min, sb.q_min)
        np.testing.assert_array_equal(sa.q_max, sb.q_max)
        assert sa.energy == sb.energy


def test_generated_specs_valid_and_witnessed_by_initials():
    # generate builds every spec, so each set is nonempty by construction;
    # its initial profile witnesses that
    scenario, init = generate(n_consumers=20, seed=9)
    for n, spec in enumerate(scenario.specs):
        assert is_feasible(init[n], spec, tol=1e-9)


def test_generated_budgets_in_residential_range():
    scenario, _ = generate(seed=2)
    assert np.all(scenario.budgets >= 10.0)
    assert np.all(scenario.budgets <= 30.0)


def test_canonical_price_parameters():
    scenario, _ = generate(seed=4)
    assert set(np.round(scenario.curve.a, 3)) == {0.003, 0.004, 0.005}
    np.testing.assert_array_equal(scenario.curve.b, np.full(24, 1.2))
    np.testing.assert_array_equal(scenario.curve.c, np.zeros(24))


def test_offpeak_bounds_follow_recipe():
    scenario, _ = generate(seed=6)
    off = np.array(SEGMENTS) == OFF_PEAK
    for spec in scenario.specs:
        assert np.all(spec.q_max[off] >= 0.4 - 1e-12)
        assert np.all(spec.q_max[off] <= 0.6 + 1e-12)
        # mid/on-peak ceiling is one shared value, the jittered curve maximum
        rest = spec.q_max[~off]
        assert np.allclose(rest, rest[0])


def test_degenerate_base_with_zero_jitter_pins_everything(monkeypatch):
    # at or below the off-peak q_max range, every slot's limits meet
    level = 0.35
    monkeypatch.setattr(scenario_module, "BASE_LOW", np.full(24, level))
    monkeypatch.setattr(scenario_module, "BASE_HIGH", np.full(24, level))
    scenario, init = generate(n_consumers=3, seed=3, jitter=0.0)
    for n, spec in enumerate(scenario.specs):
        np.testing.assert_array_equal(spec.q_min, np.full(24, level))
        np.testing.assert_array_equal(init[n], np.full(24, level))
        assert spec.energy == pytest.approx(24 * level)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_consumers": 0}, "at least one consumer"),
        ({"jitter": -0.1}, "jitter"),
        ({"jitter": float("nan")}, "jitter"),
        ({"jitter": float("inf")}, "jitter"),
        ({"jitter": 1e300}, r"^jitter 1e\+300 is too large: slot 1: the price"),
    ],
)
def test_generate_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate(**kwargs)


@pytest.mark.parametrize("jitter", [0.0, 0.1, 3.0])
@pytest.mark.parametrize("seed", [0, 7, 2**40])
@pytest.mark.parametrize("n", [1, 2, 50, 300])
def test_generate_draws_the_bits_of_the_per_consumer_loop(monkeypatch, n, seed, jitter):
    # one draw for all consumers gives the matrices of four `uniform` calls
    # per consumer, and leaves the generator where that loop left it
    generators = []

    def default_rng(seed):
        generators.append(np.random.Generator(np.random.PCG64(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    scenario, init = generate(n_consumers=n, seed=seed, jitter=jitter)
    monkeypatch.undo()
    q_min, q_max, budgets, initials, rng = reference_generate(n, seed, jitter)
    assert scenario.q_min_matrix.tobytes() == q_min.tobytes()
    assert scenario.q_max_matrix.tobytes() == q_max.tobytes()
    assert scenario.budgets.tobytes() == budgets.tobytes()
    assert init.tobytes() == initials.tobytes()
    assert len(generators) == 1
    assert generators[0].random(3).tobytes() == rng.random(3).tobytes()


# --- persistence ---------------------------------------------------------------


def test_scenario_round_trip_is_exact(tmp_path):
    scenario, init = generate(n_consumers=5, seed=11)
    path = tmp_path / "s.json"
    sha = save_scenario(path, scenario, init)
    loaded = load_scenario(path)
    assert loaded.content_hash == sha
    np.testing.assert_array_equal(loaded.initial_profiles, init)
    np.testing.assert_array_equal(loaded.scenario.curve.a, scenario.curve.a)
    for got, want in zip(loaded.scenario.specs, scenario.specs):
        np.testing.assert_array_equal(got.q_min, want.q_min)
        np.testing.assert_array_equal(got.q_max, want.q_max)
        assert got.energy == want.energy


def test_truncated_file_is_a_parse_error(tmp_path):
    scenario, init = generate(n_consumers=3, seed=12)
    path = tmp_path / "s.json"
    save_scenario(path, scenario, init)
    clipped = tmp_path / "clipped.json"
    clipped.write_text(path.read_text()[:200])
    with pytest.raises(ScenarioFormatError):
        load_scenario(clipped)


def test_unknown_field_is_rejected_by_name(tmp_path):
    import json

    scenario, _ = generate(n_consumers=3, seed=13)
    payload = reference_payload(scenario)
    payload["surprise"] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match="surprise"):
        load_scenario(path)


def test_unknown_consumer_field_is_rejected(tmp_path):
    import json

    scenario, _ = generate(n_consumers=3, seed=14)
    payload = reference_payload(scenario)
    payload["consumers"][1]["comment"] = "hi"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match="comment"):
        load_scenario(path)


def test_missing_field_is_rejected(tmp_path):
    # at any depth, by name, not by the text of a KeyError
    scenario, _ = generate(n_consumers=3, seed=15)
    path = tmp_path / "s.json"
    for where, field, place in [
        ((), "price", ""),
        (("price",), "a", " price:"),
        (("consumers", 1), "energy", " consumers[1]:"),
    ]:
        payload = reference_payload(scenario)
        fields = payload
        for key in where:
            fields = fields[key]
        del fields[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}:{place} missing field {field!r}"


def test_budget_above_box_is_a_format_error_naming_the_consumer(tmp_path):
    import json

    scenario, init = generate(n_consumers=3, seed=16)
    payload = reference_payload(scenario, init)
    payload["consumers"][0]["energy"] = sum(payload["consumers"][0]["q_max"]) + 1.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match=r"consumers\[0\]: energy budget"):
        load_scenario(path)


def _put(*keys):
    """An edit that replaces the payload's number at `keys` by `value(it)`."""
    def edit(payload, value):
        *inner, last = keys
        for key in inner:
            payload = payload[key]
        payload[last] = value(payload[last])
    return edit


#: a string or boolean where the schema wants a number: the place, the new
#: value from the old one, and the refusal after the file's path
NON_NUMBERS = {
    "price-a-text": (_put("price", "a", 0), str, 'price: a[0]: "{old}" is not a number'),
    "price-b-true": (_put("price", "b", 5), lambda _: True, "price: b[5]: true is not a number"),
    "q_min-text": (_put("consumers", 1, "q_min", 4), str, "consumers[1]: q_min[4]: \"{old}\""),
    "q_min-true": (_put("consumers", 0, "q_min", 0), lambda _: True, "consumers[0]: q_min[0]: true"),
    "q_max-false": (_put("consumers", 1, "q_max", 23), lambda _: False, "consumers[1]: q_max[23]: false"),
    "energy-text": (_put("consumers", 0, "energy"), str, "consumers[0]: energy: \"{old}\""),
    "initial-text": (_put("initial_profiles", 1, 7), str, "initial_profiles[1][7]: \"{old}\""),
    "initial-row-text": (_put("initial_profiles", 0), lambda _: "0.5", 'initial_profiles[0]: "0.5"'),
    "schema-true": (_put("schema_version"), lambda _: True, "unsupported schema_version true"),
}


@pytest.mark.parametrize("case", list(NON_NUMBERS))
def test_a_string_or_boolean_is_not_read_as_a_number(tmp_path, case):
    # float() reads "0.003" and True as numbers; the file's reader does not
    scenario, init = generate(n_consumers=2, seed=1)
    payload = reference_payload(scenario, init)
    edit, value, expected = NON_NUMBERS[case]
    old = []
    edit(payload, lambda number: old.append(number) or value(number))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(path)
    message = str(info.value)
    assert message.startswith(f"{path}: " + expected.format(old=old[0]))
    assert "\n" not in message


def test_written_files_and_json_integers_still_load(tmp_path):
    # the file as written loads and keeps its hash, and a JSON integer is
    # a number
    scenario, init = generate(n_consumers=2, seed=1)
    path = tmp_path / "s.json"
    sha = save_scenario(path, scenario, init)
    assert load_scenario(path).content_hash == sha
    payload = json.loads(path.read_text())
    payload["price"]["c"] = [0] * 24
    path.write_text(json.dumps(payload))
    assert load_scenario(path).scenario.curve.c.tolist() == [0.0] * 24


def test_initial_par_in_documented_range():
    # the shipped base curve is calibrated so the pre-scheduling PAR lands
    # near the literature's reported order of magnitude (~2.3)
    for seed in (1, 2, 3, 4, 5, 7):
        from dsmgame.model import aggregate, par

        _, init = generate(seed=seed)
        assert 1.8 <= par(aggregate(init)) <= 2.8


# --- one pass over all consumers ---------------------------------------------


def _numpy_error(row) -> str:
    """numpy's refusal of one bound row, which a scenario file passes on."""
    try:
        np.array(row, dtype=float)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{row!r} converts")


def _crossed(entry):
    entry["q_min"][2] = entry["q_max"][2] + 0.5
    return f"slot 3: q_min={entry['q_min'][2]:g} exceeds q_max={entry['q_max'][2]:g}"


def _set(field, index, value):
    def spoil(entry):
        if index is None:
            entry[field] = value
        else:
            entry[field][index] = value
    return spoil


def _budget_outside(offset_from):
    def spoil(entry):
        lo, hi = np.sum(entry["q_min"]), np.sum(entry["q_max"])
        entry["energy"] = hi + 1.0 if offset_from == "hi" else lo - 0.5
        return f"energy budget E={entry['energy']:g} outside feasible range [{lo:g}, {hi:g}]"
    return spoil


def _drop(field):
    def spoil(entry):
        del entry[field]
    return spoil


def _shorten(*fields):
    def spoil(entry):
        for field in fields:
            entry[field].pop()
    return spoil


def _nest(entry):
    entry["q_max"][5] = [entry["q_max"][5]]
    return _numpy_error(entry["q_max"])


#: one spoiled consumer entry: the spoiler edits the entry and returns the
#: message after `consumers[k]: `, or the expected text is given here
BAD_CONSUMERS = {
    "crossed": (_crossed, None),
    "negative-q_min": (_set("q_min", 4, -0.25), "slot 5: q_min=-0.25 is negative"),
    "nan-q_min": (_set("q_min", 0, float("nan")), "q_min contains non-finite entries"),
    "inf-q_min": (_set("q_min", 7, float("inf")), "q_min contains non-finite entries"),
    "nan-q_max": (_set("q_max", 23, float("nan")), "q_max contains non-finite entries"),
    "inf-q_max": (_set("q_max", 1, float("inf")), "q_max contains non-finite entries"),
    "minus-inf-q_max": (_set("q_max", 1, float("-inf")), "q_max contains non-finite entries"),
    "null-q_max": (_set("q_max", 6, None), "q_max contains non-finite entries"),
    "short-q_min": (_shorten("q_min"), "q_min and q_max must have equal length"),
    "long-q_max": (_set("q_max", slice(24, 24), [1.0]), "q_min and q_max must have equal length"),
    "nested-q_max": (_nest, None),
    # a JSON string or boolean is refused where a number belongs, even one
    # that float() would read
    "text-q_min": (_set("q_min", 3, "x"), 'q_min[3]: "x" is not a number'),
    "numeric-text-q_max": (_set("q_max", 0, "1.5"), 'q_max[0]: "1.5" is not a number'),
    "true-q_min": (_set("q_min", 23, True), "q_min[23]: true is not a number"),
    "text-energy": (_set("energy", None, "abc"), 'energy: "abc" is not a number'),
    "numeric-text-energy": (_set("energy", None, "15.0"), 'energy: "15.0" is not a number'),
    "false-energy": (_set("energy", None, False), "energy: false is not a number"),
    "list-energy": (
        _set("energy", None, [1.0]),
        "float() argument must be a string or a real number, not 'list'",
    ),
    "zero-budget": (_set("energy", None, 0.0), "energy budget E=0 must be positive and finite"),
    "negative-budget": (
        _set("energy", None, -1.5), "energy budget E=-1.5 must be positive and finite"
    ),
    "inf-budget": (
        _set("energy", None, float("inf")), "energy budget E=inf must be positive and finite"
    ),
    "nan-budget": (
        _set("energy", None, float("nan")), "energy budget E=nan must be positive and finite"
    ),
    "budget-above": (_budget_outside("hi"), None),
    "budget-below": (_budget_outside("lo"), None),
    "missing-energy": (_drop("energy"), "missing field 'energy'"),
}


@pytest.fixture(scope="module")
def payload_300():
    scenario, init = generate(n_consumers=300, seed=21)
    return json.dumps(reference_payload(scenario, init))


@pytest.mark.parametrize("idx", [0, 150, 299])
@pytest.mark.parametrize("case", list(BAD_CONSUMERS))
def test_one_bad_consumer_among_300_is_named_as_before(tmp_path, payload_300, case, idx):
    # the first failing consumer and its first failing check, in the words
    # a one-consumer-at-a-time check gives
    payload = json.loads(payload_300)
    spoil, message = BAD_CONSUMERS[case]
    message = spoil(payload["consumers"][idx]) or message
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: consumers[{idx}]: {message}"


@pytest.mark.parametrize("idx", [0, 150, 299])
def test_a_consumer_of_another_horizon_among_300_is_named_as_before(tmp_path, payload_300, idx):
    # both bounds one slot short: a valid set of the wrong horizon
    payload = json.loads(payload_300)
    _shorten("q_min", "q_max")(payload["consumers"][idx])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: consumer {idx + 1}: horizon 23 != price horizon 24"


def test_the_first_of_several_bad_consumers_is_named(tmp_path, payload_300):
    # an earlier bad set wins over a later entry that is not even an object
    payload = json.loads(payload_300)
    _set("energy", None, 0.0)(payload["consumers"][40])
    payload["consumers"][41]["q_min"] = [[0.0]]
    payload["consumers"][200] = "consumer"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(path)
    assert str(info.value) == (
        f"{path}: consumers[40]: energy budget E=0 must be positive and finite"
    )


def test_sets_are_checked_in_one_pass(tmp_path, monkeypatch):
    # generate and load_scenario check their N sets with one call, not N
    shapes = []
    check_sets = feasible.check_sets

    def counted(q_min, q_max, energy):
        shapes.append(q_min.shape)
        check_sets(q_min, q_max, energy)

    monkeypatch.setattr(feasible, "check_sets", counted)
    scenario, init = generate(n_consumers=300, seed=3)
    assert shapes == [(300, 24)]
    path = tmp_path / "s.json"
    save_scenario(path, scenario, init)
    shapes.clear()
    loaded = load_scenario(path)
    assert shapes == [(300, 24)]
    np.testing.assert_array_equal(loaded.scenario.q_max_matrix, scenario.q_max_matrix)


# --- fuzzed scenario files ----------------------------------------------------


_BASE_PAYLOADS: dict[int, str] = {}

#: values that break a numeric field: non-finite, negative, too large for
#: the prices or for float64 itself (an integer of 401 digits)
BAD_NUMBERS = (float("nan"), float("inf"), float("-inf"), -1.0, 1e308, 10**400, -(10**400))
#: values of a type that no field takes
WRONG_TYPES = ("x", {}, None, [])


def _base_payload(n: int) -> dict:
    if n not in _BASE_PAYLOADS:
        scenario, init = generate(n_consumers=n, seed=n)
        _BASE_PAYLOADS[n] = json.dumps(reference_payload(scenario, init))
    return json.loads(_BASE_PAYLOADS[n])


@st.composite
def broken_payloads(draw) -> dict:
    """A valid scenario payload with N <= 20, then one field dropped or
    added, or one value of a wrong type, a ragged row or a bad number."""
    n = draw(st.integers(1, 20))
    payload = _base_payload(n)
    price, init = payload["price"], payload["initial_profiles"]
    k, h = draw(st.integers(0, n - 1)), draw(st.integers(0, 23))
    consumer = payload["consumers"][k]
    fields = (
        [(payload, f) for f in ("schema_version", "horizon", "price", "consumers")]
        + [(price, f) for f in "abc"]
        + [(consumer, f) for f in ("q_min", "q_max", "energy")]
    )
    rows = [consumer["q_min"], consumer["q_max"], price["a"], price["b"], price["c"], init[k]]
    numbers = (
        [(row, h) for row in rows]
        + [(consumer, "energy"), (payload, "horizon"), (payload, "schema_version")]
    )
    kind = draw(st.sampled_from(["drop", "add", "type", "ragged", "number"]))
    if kind == "drop":
        where, key = draw(st.sampled_from(fields))
        del where[key]
    elif kind == "add":
        draw(st.sampled_from([payload, price, consumer]))["note"] = 1
    elif kind == "type":
        where, key = draw(st.sampled_from(fields + [(payload, "initial_profiles")] + numbers))
        where[key] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "ragged":
        row = draw(st.sampled_from(rows))
        edit = draw(st.sampled_from(["append", "pop", "nest"]))
        if edit == "append":
            row.append(row[-1])
        elif edit == "pop":
            row.pop()
        else:
            row[h] = [row[h]]
    else:
        where, key = draw(st.sampled_from(numbers))
        where[key] = draw(st.sampled_from(BAD_NUMBERS))
    return payload


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(payload=broken_payloads())
def test_broken_scenario_files_are_refused_in_one_line(fuzz_dir, payload):
    # load_scenario raises ScenarioFormatError and nothing else, and `run`
    # exits 1 with one `error:` line naming the file. A mutation can leave
    # a valid file (a huge price on a lone consumer's light slot, a bad
    # initial profile); `run` then ends in 0, 1 or 2 with no traceback
    path = fuzz_dir / "s.json"
    path.write_text(json.dumps(payload))
    try:
        load_scenario(path)
        refused = False
    except ScenarioFormatError:
        refused = True
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([
            "run", str(path), "--alg", "1", "--max-iter", "3",
            "--trace", str(fuzz_dir / "t.csv"), "--summary", str(fuzz_dir / "r.json"),
        ])
    lines = err.getvalue().splitlines()
    if refused:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}")
    else:
        assert code in (0, 1, 2)
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)


# --- the JSON renderer ----------------------------------------------------------

#: floats json writes in special forms, or that `repr` writes in exponent form
SPECIAL_FLOATS = (
    -0.0, 5e-324, 2.2250738585072009e-308, 1e16, 1e-5, 1e22, 0.1,
    float("nan"), float("inf"), float("-inf"),
)
#: strings that hold an item separator, quotes, escapes or non-ASCII text
SPECIAL_TEXT = (", ", '"', "a, \"b\"", "\\", "\n", "\u00e9t\u00e9 \u20ac", "\U0001d11e", "")

json_numbers = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(),
    # beyond float64's exact and finite ranges
    st.integers(-(2**1100), 2**1100),
)
json_leaves = st.one_of(
    json_numbers, st.booleans(), st.none(), st.text(), st.sampled_from(SPECIAL_TEXT)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(json_numbers),
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(SPECIAL_TEXT)), children),
    ),
    max_leaves=40,
)


def compose(obj, **kwargs) -> str:
    """The text that `_json_parts` streams, whole."""
    return "".join(_json_parts(obj, **kwargs))


def placed(obj) -> tuple:
    """`obj` at the top level, where its items stream one per part, inside
    a streamed list, and below the streamed levels, where it comes whole."""
    return obj, [obj], {"k": [obj, {"j": obj}]}


@settings(max_examples=300, deadline=None)
@given(obj=json_values, sort_keys=st.booleans())
def test_the_renderer_writes_the_bytes_of_json_dumps(obj, sort_keys):
    for value in placed(obj):
        assert compose(value, indent=2, sort_keys=sort_keys) == json.dumps(
            value, indent=2, sort_keys=sort_keys
        )
        assert compose(value, sort_keys=sort_keys) == json.dumps(
            value, sort_keys=sort_keys, separators=(",", ":")
        )


@pytest.mark.parametrize("obj", [
    [True, False, None, 1, 1.5],
    [[], {}, [[]], [{}], ()],
    {1: [2**64, 0.5], 2.5: None, False: "f", None: ["-0.0", -0.0]},
    {"b": {"d": [float("nan")], "c": ()}, "a": [5e-324, 10**400]},
    # float subclasses are written as floats, outside the one-`repr` lists
    np.float64(0.1),
    [np.float64(2.5), 3],
])
def test_the_renderer_writes_the_bytes_of_json_dumps_on_edge_cases(obj):
    for value, sort_keys in itertools.product(placed(obj), (False, True)):
        try:
            want = json.dumps(value, indent=2, sort_keys=sort_keys)
        except TypeError:
            continue  # keys of mixed types do not sort
        assert compose(value, indent=2, sort_keys=sort_keys) == want
        assert compose(value, sort_keys=sort_keys) == json.dumps(
            value, sort_keys=sort_keys, separators=(",", ":")
        )


def test_the_renderer_refuses_what_json_refuses():
    for obj in ([object()], {(1, 2): 3}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(obj)
        with pytest.raises(TypeError):
            compose(obj)


def test_save_hashes_the_text_it_writes(tmp_path):
    # the hash comes from the number texts of the file, and is the hash
    # that the C encoder gives the payload by definition, as load_scenario
    # computes it too
    scenario, init = generate(n_consumers=4, seed=2)
    path = tmp_path / "s.json"
    sha = save_scenario(path, scenario, init)
    payload = reference_payload(scenario, init)
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"
    assert sha == reference_hash(payload) == load_scenario(path).content_hash


def test_a_saved_scenario_streams_one_consumer_or_row_per_part(tmp_path, monkeypatch):
    # neither the file's text nor the hash's is held whole: each part holds
    # at most one consumer object, with its two bounds, or one other list,
    # such as a row of `initial_profiles`
    streams = []

    def spy(*args, **kwargs):
        streams.append(list(_json_parts(*args, **kwargs)))
        return iter(streams[-1])

    monkeypatch.setattr(scenario_module, "_json_parts", spy)
    scenario, init = generate(n_consumers=300, seed=4)
    save_scenario(tmp_path / "s.json", scenario, init)
    load_scenario(tmp_path / "s.json")
    assert len(streams) == 3  # the file, its hash, the hash of the file read
    for parts in streams:
        assert len(parts) > 2 * 300
        for part in parts:
            consumers = part.count('"q_min"')
            assert consumers <= 1 and part.count("]") <= 1 + consumers


#: float arrays' edge values: signed zeros, the least subnormal, exponent
#: notation on both sides of the fixed range and the non-finite values
ARRAY_EDGES = (-0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e22, 0.1, float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("shape", [(0,), (1,), (11,), (0, 3), (3, 0), (4, 11), (2, 3, 11), (300, 24)])
def test_the_renderer_writes_float_arrays_as_json_dumps_writes_their_lists(shape):
    # (300, 24) spans several formatting blocks of rows
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 18, size=shape)
    flat = values.reshape(-1)
    flat[: len(ARRAY_EDGES)] = ARRAY_EDGES[: flat.size]
    rows = RowTexts(values, row_texts(values))
    listed = values.tolist()
    for obj, as_lists in (
        (values, listed),
        (rows, listed),
        ({"b": values, "a": [rows, 1.5]}, {"b": listed, "a": [listed, 1.5]}),
    ):
        for sort_keys in (False, True):
            assert compose(obj, indent=2, sort_keys=sort_keys) == json.dumps(
                as_lists, indent=2, sort_keys=sort_keys
            )
            assert compose(obj, sort_keys=sort_keys) == json.dumps(
                as_lists, sort_keys=sort_keys, separators=(",", ":")
            )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.sampled_from(ARRAY_EDGES)), max_size=60),
    width=st.integers(1, 7),
)
def test_the_renderer_writes_any_float_matrix_as_json_dumps_writes_its_lists(values, width):
    rows = np.array(values[: len(values) // width * width], dtype=float).reshape(-1, width)
    for indent in (None, 2):
        separators = (",", ":") if indent is None else None
        assert compose(rows, indent=indent) == json.dumps(
            rows.tolist(), indent=indent, separators=separators
        )


def test_the_renderer_writes_other_arrays_as_their_lists():
    for values in (np.arange(4), np.float64(0.1), np.array(2.5), np.array([True, False])):
        assert compose(values, indent=2) == json.dumps(values.tolist(), indent=2)


#: per schema number, hand-written values that keep the file valid: ints
#: beside floats, and floats on the edges of `repr`'s fixed notation
HAND_WRITTEN = {
    "a": (1, 2, 1e-5, 0.25),
    "b": (1, 2, 1.0),
    "c": (0, 3, -0.0, 5e-324, 1e-5, 1e16),
    "q_min": (0, -0.0, 5e-324, 1e-5),
    "q_max": (2, 10**20, 1e16, 1e22),
    "initial": (0, 1, -0.0, 5e-324, 1e-5, 1e16, 10**20, 1e22),
}


def _shuffled(draw, obj):
    """`obj` with the keys of every object in an order drawn."""
    if isinstance(obj, dict):
        keys = draw(st.permutations(list(obj)))
        return {key: _shuffled(draw, obj[key]) for key in keys}
    if isinstance(obj, list):
        return [_shuffled(draw, item) for item in obj]
    return obj


@st.composite
def hand_written_files(draw) -> str:
    """The text of a valid scenario file as a person might write it: ints
    and floats mixed in any list, edge values, `"schema_version": 1.0`,
    keys in any order and any whitespace."""
    n = draw(st.integers(1, 3))
    payload = _base_payload(n)
    consumers = payload["consumers"]
    places = {
        "a": [(payload["price"]["a"], h) for h in range(24)],
        "b": [(payload["price"]["b"], h) for h in range(24)],
        "c": [(payload["price"]["c"], h) for h in range(24)],
        "q_min": [(c["q_min"], h) for c in consumers for h in range(24)],
        "q_max": [(c["q_max"], h) for c in consumers for h in range(24)],
        "initial": [(row, h) for row in payload["initial_profiles"] for h in range(24)],
    }
    for _ in range(draw(st.integers(1, 12))):
        field = draw(st.sampled_from(sorted(places)))
        row, h = draw(st.sampled_from(places[field]))
        row[h] = draw(st.sampled_from(HAND_WRITTEN[field]))
    for consumer in draw(st.lists(st.sampled_from(consumers), max_size=2)):
        # an int budget in the middle of the box, far inside it
        consumer["energy"] = round((sum(consumer["q_min"]) + sum(consumer["q_max"])) / 2)
    if draw(st.booleans()):
        payload["schema_version"] = 1.0
    if draw(st.booleans()):
        del payload["initial_profiles"]
    indent = draw(st.sampled_from([None, 0, 1, 4, "\t"]))
    separators = draw(st.sampled_from([None, (",", ":"), (" , ", " : ")]))
    return json.dumps(_shuffled(draw, payload), indent=indent, separators=separators)


@settings(max_examples=150, deadline=None)
@given(text=hand_written_files())
def test_a_hand_written_file_keeps_the_hash_of_its_payload(fuzz_dir, text):
    # the content hash is the C encoder's compact, sorted-key JSON of the
    # parsed payload, whatever the file's layout and number types
    path = fuzz_dir / "hand.json"
    path.write_text(text)
    assert load_scenario(path).content_hash == reference_hash(json.loads(text))


def test_the_hash_keeps_each_numbers_type(tmp_path):
    # an int, a float of an integral value and 1.0 for the schema version
    # give three different texts, so three different hashes
    payload = _base_payload(2)
    hashes = set()
    for edit in (
        lambda p: None,
        lambda p: p["price"]["c"].__setitem__(0, 0),
        lambda p: p.__setitem__("schema_version", 1.0),
    ):
        edit(payload)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))
        got = load_scenario(path).content_hash
        assert got == reference_hash(payload)
        hashes.add(got)
    assert len(hashes) == 3
