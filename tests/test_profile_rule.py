"""One rule for a scenario's profile arrays, `Scenario.profile_array`: every
entry that takes a scenario's profiles refuses a bad array in its words."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from dsmgame.algorithms import (
    fixed_point_residual,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
)
from dsmgame.cli import main
from dsmgame.network import build_weights, generate_topology, gossip_stream
from dsmgame.oracle import fairness_comparison, nash_best_response_iteration
from dsmgame.scenario import (
    ScenarioFormatError,
    generate,
    load_scenario,
    save_scenario,
)
from oracles import reference_payload

SCENARIO, INIT = generate(3, seed=3)
SHAPE = "must be an array of numbers of shape (3, 24)"


def _with(row: int, slot: int, value) -> list:
    rows = INIT.tolist()
    rows[row][slot] = value
    return rows


#: name -> (bad profiles as JSON-ready lists, what the rule says after `what`)
CASES = {
    "wrong-n": (INIT[:2].tolist(), f" {SHAPE}, got shape (2, 24)"),
    "wrong-h": (INIT[:, :10].tolist(), f" {SHAPE}, got shape (3, 10)"),
    "ragged": (INIT.tolist()[:2] + [INIT[2, :23].tolist()], f" {SHAPE}"),
    # a string or a boolean is named where it sits, even one that float()
    # would read
    "text": (_with(1, 4, "x"), '[1][4]: "x" is not a number'),
    "numeric-text": (_with(0, 23, "0.5"), '[0][23]: "0.5" is not a number'),
    "bool": (_with(2, 7, True), "[2][7]: true is not a number"),
    "text-row": (INIT.tolist()[:2] + ["0.5"], '[2]: "0.5" is not a number'),
    "nan": (_with(1, 5, float("nan")), ": consumer 2, slot 6: load nan is non-finite"),
    "minus-inf": (_with(2, 0, float("-inf")), ": consumer 3, slot 1: load -inf is non-finite"),
}


def _refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _cli(*argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def run_summary(tmp_path_factory):
    """A scenario file of SCENARIO and INIT, and the summary of a one-round
    run on it."""
    tmp = tmp_path_factory.mktemp("profile-rule")
    scenario_file, summary = tmp / "s.json", tmp / "r.json"
    save_scenario(scenario_file, SCENARIO, INIT)
    code, lines = _cli("run", scenario_file, "--alg", "1", "--max-iter", "1",
                       "--trace", tmp / "t.csv", "--summary", summary)
    assert code == 0, lines
    return scenario_file, summary


@pytest.mark.parametrize("case", CASES)
def test_library_entries_refuse_bad_profiles_in_the_rules_words(case):
    bad, problem = CASES[case]
    graph = generate_topology(3, 2.0, np.random.default_rng(0))
    weights = build_weights(graph, 0.5)
    events = gossip_stream(graph, np.random.default_rng(1), 10)
    for what, call in (
        ("initial profiles", lambda: run_algorithm1(SCENARIO, init=bad)),
        ("initial profiles", lambda: run_algorithm2(SCENARIO, graph, weights, init=bad)),
        ("initial profiles", lambda: run_algorithm3(SCENARIO, graph, events, init=bad)),
        ("profiles", lambda: fixed_point_residual(bad, SCENARIO)),
        ("init", lambda: nash_best_response_iteration(SCENARIO, init=bad)),
        ("profiles", lambda: fairness_comparison(bad, SCENARIO)),
    ):
        assert _refusal(call) == what + problem


@pytest.mark.parametrize("case", CASES)
def test_save_refuses_the_start_that_load_refuses(tmp_path, case):
    bad, problem = CASES[case]
    path = tmp_path / "s.json"
    assert _refusal(lambda: save_scenario(path, SCENARIO, bad)) == "initial_profiles" + problem
    assert not path.exists()
    payload = reference_payload(SCENARIO)
    payload["initial_profiles"] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: initial_profiles{problem}"
    # `run` exits 1 with the loader's words on one line
    code, lines = _cli("run", path, "--alg", "1", "--trace", tmp_path / "t.csv",
                       "--summary", tmp_path / "r.json")
    assert (code, lines) == (1, [f"error: {path}: initial_profiles{problem}"])


@pytest.mark.parametrize("case", CASES)
def test_fairness_report_refuses_bad_final_profiles_in_the_rules_words(
    run_summary, tmp_path, case
):
    bad, problem = CASES[case]
    scenario_file, summary = run_summary
    content = json.loads(summary.read_text())
    content["final_profiles"] = bad
    edited = tmp_path / "r.json"
    edited.write_text(json.dumps(content))
    out = tmp_path / "fair.json"
    code, lines = _cli("report", "--kind", "fairness", "--scenario", scenario_file,
                       "--summary", edited, "-o", out)
    assert (code, lines) == (1, [f"error: --summary {edited}: final_profiles{problem}"])
    assert not out.exists()


def test_the_rule_hands_a_valid_array_through():
    # no copy of a float (N, H) array, so the residual probe reads the
    # caller's values; a nested list converts to the same values
    assert SCENARIO.profile_array(INIT, "profiles") is INIT
    assert np.array_equal(SCENARIO.profile_array(INIT.tolist(), "profiles"), INIT)
