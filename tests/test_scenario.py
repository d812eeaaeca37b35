"""Scenario generation, the canonical day's segments, and persistence tests."""

import numpy as np
import pytest

from dsmgame import scenario as scenario_module
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
    scenario_payload,
)


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
    payload = scenario_payload(scenario)
    payload["surprise"] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match="surprise"):
        load_scenario(path)


def test_unknown_consumer_field_is_rejected(tmp_path):
    import json

    scenario, _ = generate(n_consumers=3, seed=14)
    payload = scenario_payload(scenario)
    payload["consumers"][1]["comment"] = "hi"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match="comment"):
        load_scenario(path)


def test_missing_field_is_rejected(tmp_path):
    import json

    scenario, _ = generate(n_consumers=3, seed=15)
    payload = scenario_payload(scenario)
    del payload["price"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match="price"):
        load_scenario(path)


def test_budget_above_box_is_a_format_error_naming_the_consumer(tmp_path):
    import json

    scenario, init = generate(n_consumers=3, seed=16)
    payload = scenario_payload(scenario, init)
    payload["consumers"][0]["energy"] = sum(payload["consumers"][0]["q_max"]) + 1.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError, match=r"consumers\[0\]: energy budget"):
        load_scenario(path)


def test_initial_par_in_documented_range():
    # the shipped base curve is calibrated so the pre-scheduling PAR lands
    # near the literature's reported order of magnitude (~2.3)
    for seed in (1, 2, 3, 4, 5, 7):
        from dsmgame.model import aggregate, par

        _, init = generate(seed=seed)
        assert 1.8 <= par(aggregate(init)) <= 2.8
