"""End-to-end CLI tests: artifacts, determinism, exit codes, reports."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dsmgame import cli
from dsmgame import scenario as scen
from dsmgame._numtext import RowTexts, row_texts
from dsmgame.algorithms import RunTrace, Scenario, quoted
from dsmgame.cli import main
from dsmgame.feasible import ConsumerSpec
from dsmgame.model import PriceCurve
from dsmgame.scenario import _json_parts, generate, load_scenario, save_scenario
from conftest import AVX2_ENV, REPO, make_toy_game, src_env
from oracles import reference_start_point


@pytest.fixture()
def toy_file(tmp_path):
    scenario, init = make_toy_game(909)
    path = tmp_path / "toy.json"
    save_scenario(path, scenario, init)
    return path


@pytest.fixture()
def small_canonical(tmp_path):
    out = tmp_path / "scen.json"
    assert main(["generate", "--n", "8", "--seed", "3", "-o", str(out)]) == 0
    return out


def run_cli(*argv):
    return main([str(a) for a in argv])


# --- generate -----------------------------------------------------------------


def test_generate_writes_loadable_scenario(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli("generate", "--n", "6", "--seed", "7", "-o", out) == 0
    loaded = load_scenario(out)
    assert loaded.scenario.n_consumers == 6
    assert loaded.scenario.horizon == 24
    assert loaded.initial_profiles is not None


def test_generate_reports_the_base_horizon(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("generate", "--n", "3", "-o", out) == 0
    assert "(N=3, H=24, hash" in capsys.readouterr().out
    # the day has 24 slots; there is no flag for the horizon
    assert run_cli("generate", "--n", "3", "--h", "24", "-o", out) == 1


def test_generate_canonical_scenario_bytes(tmp_path):
    out = tmp_path / "scenario.json"
    assert run_cli("generate", "--n", "50", "--seed", "7", "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4a2ca9ff177ff5b0b6200aa3d11370b331c3ebc85e7c405cf6c8d56ba023383f"
    )


def test_generate_n2000_scenario_bytes(tmp_path):
    # the benchmark's scale scenario; its budgets are axis sums, which keep
    # their bits on numpy's AVX2 loops too
    out = tmp_path / "scenario.json"
    assert run_cli("generate", "--n", "2000", "--seed", "7", "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f9879411f727bff883cbf13cfb7db3c95775932bd1e9227fbd1e415fd866d6cd"
    )
    assert load_scenario(out).content_hash == (
        "910181ebc649a64c83768ef67f4d643953085d5f36c7c03d6df3c45ebd26ddba"
    )
    # the hash save_scenario returns, from the texts it writes the file with
    assert save_scenario(tmp_path / "saved.json", *generate(2000, seed=7)) == (
        "910181ebc649a64c83768ef67f4d643953085d5f36c7c03d6df3c45ebd26ddba"
    )


#: sha256 of the N = 2000 artifacts whose numbers come from arrays: a 20-round
#: alg 1 summary (48,000 final profile values) and its fairness report. Like
#: the trace pins they hold on numpy's AVX-512 loops (ROADMAP item 1)
ARTIFACT_DIGESTS_N2000 = {
    "summary1.json": "084d3c4e0962f1223eb07e135b98a91d23296785c9c40aec0e1b9222f21b37b9",
    "fairness.json": "0c656734b081b9d03cc8801b0beda77818962bb26e330f7f83f1728f4c04873f",
}


def test_n2000_summary_and_fairness_bytes(tmp_path, monkeypatch):
    # relative paths in a fresh directory, as the N = 8 study runs, since
    # the artifacts echo the paths as typed
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--n", "2000", "--seed", "7", "-o", "scenario.json") == 0
    assert run_cli(
        "run", "scenario.json", "--alg", "1", "--max-iter", "20",
        "--trace", "trace1.csv", "--summary", "summary1.json",
    ) == 0
    assert run_cli(
        "report", "--kind", "fairness", "--scenario", "scenario.json",
        "--summary", "summary1.json", "-o", "fairness.json",
    ) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ARTIFACT_DIGESTS_N2000
    }
    assert digests == ARTIFACT_DIGESTS_N2000


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("generate", "--n", "5", "--seed", "21", "-o", a)
    run_cli("generate", "--n", "5", "--seed", "21", "-o", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_refuses_a_negative_seed_naming_the_flag(tmp_path, capsys):
    # numpy's refusal named neither the flag nor the value
    out = tmp_path / "s.json"
    assert run_cli("generate", "--n", "4", "--seed", "-5", "-o", out) == 1
    assert "--seed must be a nonnegative integer, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_an_overflowing_budget(tmp_path, capsys):
    # the jittered bounds stay finite, but their sums overflow to infinity;
    # one line names the jitter, and numpy's warning (an error under this
    # suite) is not emitted
    out = tmp_path / "s.json"
    code = run_cli("generate", "--n", "2", "--jitter", "1e308", "-o", out)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: jitter 1e+308 is too large: energy budget E=inf must be positive "
        "and finite\n"
    )
    assert not out.exists()


def test_generate_refuses_a_jitter_that_overflows_the_prices_in_one_line(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("generate", "--n", "3", "--jitter", "1e300", "-o", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: jitter 1e+300 is too large: slot 1: the price")
    assert err.count("\n") == 1
    assert not out.exists()


def bad_directory(tmp_path, missing: bool):
    """A directory path that does not exist, or that names a file."""
    if missing:
        return tmp_path / "missing"
    (tmp_path / "file").write_text("")
    return tmp_path / "file"


def dir_error(flag, path, missing: bool) -> str:
    what = "does not exist" if missing else "is not a directory"
    return f"error: {flag} {path}: the directory {path.parent} {what}\n"


@pytest.mark.parametrize("missing", [True, False])
def test_generate_refuses_a_bad_output_directory(tmp_path, capsys, missing):
    out = bad_directory(tmp_path, missing) / "s.json"
    assert run_cli("generate", "--n", "3", "-o", out) == 1
    assert capsys.readouterr().err == dir_error("-o", out, missing)


# --- run ------------------------------------------------------------------------


def test_run_alg1_writes_artifacts(small_canonical, tmp_path):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", small_canonical, "--alg", "1", "--tol", "1e-4",
        "--max-iter", "3000", "--trace", trace, "--summary", summary,
    )
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["converged"] is True
    assert data["residual"] <= 1e-4
    assert data["uniqueness"] == "verified"
    assert data["final_par"] < data["initial_par"]
    assert data["scenario_hash"] == load_scenario(small_canonical).content_hash
    assert data["flags"]["alg"] == 1
    header = trace.read_text().splitlines()[0]
    assert header.startswith("t,n,cost,residual,q1")


def test_run_alg3_requires_graph_or_topology(toy_file, tmp_path, capsys):
    code = run_cli(
        "run", toy_file, "--alg", "3",
        "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--graph" in err and "--topology" in err


def test_run_alg2_and_3_with_random_topology(small_canonical, tmp_path):
    for alg in (2, 3):
        code = run_cli(
            "run", small_canonical, "--alg", alg, "--topology", "random",
            "--degree", "3", "--seed", "5", "--max-iter", "400",
            "--max-events", "1500", "--tol", "1e-4",
            "--trace", tmp_path / f"t{alg}.csv",
            "--summary", tmp_path / f"s{alg}.json",
        )
        assert code == 0


def test_run_outputs_are_deterministic(toy_file, tmp_path, monkeypatch):
    outs = []
    for tag in ("x", "y"):
        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = run_cli(
            "run", toy_file, "--alg", "3", "--topology", "random",
            "--degree", "2", "--seed", "11", "--max-events", "600",
            "--trace", "t.csv", "--summary", "s.json",
        )
        assert code == 0
        outs.append(
            ((workdir / "t.csv").read_bytes(), (workdir / "s.json").read_bytes())
        )
    assert outs[0] == outs[1]


def test_run_strict_flags_nonconvergence(toy_file, tmp_path):
    code = run_cli(
        "run", toy_file, "--alg", "1", "--max-iter", "1", "--tol", "1e-12",
        "--strict", "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json",
    )
    assert code == 2


def test_run_rejects_step_exponent_outside_range(toy_file, tmp_path, capsys):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", toy_file, "--alg", "1", "--step-exponent", "0.5",
        "--trace", trace, "--summary", summary,
    )
    assert code == 1
    assert "--step-exponent must lie in (0.5, 1], got 0.5" in capsys.readouterr().err
    assert not trace.exists() and not summary.exists()
    # the gossip runner derives its own steps and ignores the flag
    code = run_cli(
        "run", toy_file, "--alg", "3", "--step-exponent", "0", "--topology",
        "random", "--degree", "2", "--max-events", "50",
        "--trace", trace, "--summary", summary,
    )
    assert code == 0


def run_edited(scenario_file, tmp_path, edit):
    """Run alg 1 on a copy of `scenario_file` changed by `edit(payload)`."""
    payload = json.loads(scenario_file.read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return run_cli(
        "run", bad, "--alg", "1", "--max-iter", "5", "--trace", tmp_path / "t.csv",
        "--summary", tmp_path / "s.json",
    )


def test_run_rejects_scenario_with_unreachable_budget(toy_file, tmp_path, capsys):
    def overfill(payload):
        payload["consumers"][0]["energy"] = sum(payload["consumers"][0]["q_max"]) + 1.0

    assert run_edited(toy_file, tmp_path, overfill) == 1
    assert "consumers[0]: energy budget" in capsys.readouterr().err


def test_run_refuses_a_scenario_whose_prices_overflow_in_one_line(
    small_canonical, tmp_path, capsys
):
    def inflate(payload):
        for consumer in payload["consumers"]:
            consumer["q_max"][9] = 1e300

    assert run_edited(small_canonical, tmp_path, inflate) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'bad.json'}: slot 10: the price")
    assert err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "s.json").exists()


def test_run_names_an_infeasible_initial_row_by_its_1_based_id(
    small_canonical, tmp_path, capsys
):
    def nudge(payload):
        payload["initial_profiles"][1][4] += 1e-3

    assert run_edited(small_canonical, tmp_path, nudge) == 1
    err = capsys.readouterr().err
    assert "initial profile of consumer 2 is infeasible: its sum" in err


def test_run_names_a_consumer_of_the_wrong_horizon_by_its_1_based_id(
    small_canonical, tmp_path, capsys
):
    def shorten(payload):
        consumer = payload["consumers"][2]
        consumer["q_min"].pop()
        consumer["q_max"].pop()
        consumer["energy"] = (sum(consumer["q_min"]) + sum(consumer["q_max"])) / 2

    assert run_edited(small_canonical, tmp_path, shorten) == 1
    assert "consumer 3: horizon 23 != price horizon 24" in capsys.readouterr().err


@pytest.mark.parametrize("max_iter", ["0", "-5"])
def test_run_rejects_max_iter_below_one(toy_file, tmp_path, capsys, max_iter):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    for alg, extra in (("1", ()), ("2", ("--topology", "random", "--degree", "1"))):
        code = run_cli(
            "run", toy_file, "--alg", alg, "--max-iter", max_iter, *extra,
            "--trace", trace, "--summary", summary,
        )
        assert code == 1
        assert f"--max-iter must be at least 1, got {max_iter}" in capsys.readouterr().err
        assert not trace.exists() and not summary.exists()


@pytest.mark.parametrize("degree", ["0", "-3", "nan"])
def test_run_rejects_a_bad_degree_naming_the_flag(toy_file, tmp_path, capsys, degree):
    # such a degree used to give a bare spanning tree and exit 0
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    for alg in ("2", "3"):
        code = run_cli(
            "run", toy_file, "--alg", alg, "--topology", "random", "--degree", degree,
            "--trace", trace, "--summary", summary,
        )
        assert code == 1
        assert "--degree must be positive and finite" in capsys.readouterr().err
        assert not trace.exists() and not summary.exists()


@pytest.mark.parametrize("max_events", ["0", "-5"])
def test_run_rejects_max_events_below_one_naming_the_flag(
    toy_file, tmp_path, capsys, max_events
):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", toy_file, "--alg", "3", "--topology", "random", "--max-events",
        max_events, "--trace", trace, "--summary", summary,
    )
    assert code == 1
    assert f"--max-events must be at least 1, got {max_events}" in capsys.readouterr().err
    assert not trace.exists() and not summary.exists()


@pytest.mark.parametrize("theta", ["nan", "inf", "0"])
def test_run_rejects_a_bad_theta_naming_the_flag(toy_file, tmp_path, capsys, theta):
    # a NaN or infinite theta used to write a trace full of NaN and then fail
    # on the final profile without naming the flag
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", toy_file, "--alg", "1", "--theta", theta,
        "--trace", trace, "--summary", summary,
    )
    assert code == 1
    assert f"--theta must be positive and finite, got {float(theta)}" in (
        capsys.readouterr().err
    )
    assert not trace.exists() and not summary.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_tol_must_be_positive_and_finite(toy_file, tmp_path, capsys, tol):
    # a tolerance that is never met would spend the whole budget and exit 0
    trace, summary, out = tmp_path / "t.csv", tmp_path / "s.json", tmp_path / "o.json"
    for argv in (
        ("run", toy_file, "--alg", "1", "--trace", trace, "--summary", summary),
        ("oracle", toy_file, "--kind", "nash", "-o", out),
    ):
        assert run_cli(*argv, "--tol", tol) == 1
        assert "--tol must be positive and finite" in capsys.readouterr().err
    assert not any(p.exists() for p in (trace, summary, out))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("price", 5, "price must be an object"),
        ("price", [1, 2], "price must be an object"),
        ("consumers", 5, "consumers must be a list"),
        ("consumers", {"q_min": [1]}, "consumers must be a list"),
        pytest.param("horizon", "24", 'horizon must be an integer, got "24"',
                     id="horizon-string"),
        pytest.param("horizon", True, "horizon must be an integer, got true",
                     id="horizon-bool"),
        pytest.param("horizon", None, "horizon must be an integer, got null",
                     id="horizon-null"),
        pytest.param("horizon", 2.0, "horizon must be an integer, got 2.0",
                     id="horizon-float"),
        # a long value is quoted in 40 characters, not in 129 KB
        pytest.param("horizon", [0.125] * 20_000,
                     "horizon must be an integer, got [0.125, 0.125, 0.125, 0.125, 0.125, ...]\n",
                     id="horizon-long-list"),
        pytest.param("schema_version", [0.125] * 20_000,
                     "unsupported schema_version [0.125, 0.125, 0.125, 0.125, 0.125, ...]\n",
                     id="schema_version-long-list"),
    ],
)
def test_run_rejects_malformed_scenario_fields(
    toy_file, tmp_path, capsys, field, value, message
):
    payload = json.loads(toy_file.read_text())
    payload[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = run_cli(
        "run", bad, "--alg", "1", "--trace", tmp_path / "t.csv",
        "--summary", tmp_path / "s.json",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_usage_error_exit_code(tmp_path):
    assert run_cli("run", "missing.json", "--alg", "9", "--trace", "t", "--summary", "s") == 1


def test_help_returns_its_status(capsys):
    assert run_cli("--help") == 0
    assert run_cli("run", "--help") == 0
    assert "--step-exponent" in capsys.readouterr().out


def test_option_prefixes_are_refused(toy_file, tmp_path, capsys):
    # `--h` is not `--help` and `--ki` is not `--kind`, in every subcommand
    assert run_cli("run", "--h") == 1
    out = tmp_path / "o.json"
    assert run_cli("oracle", toy_file, "--ki", "nash", "-o", out) == 1
    assert "required: --kind" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("report", "--ki", "par", "--summary", "s.json", "-o", out) == 1


def test_run_alg2_with_graph_file(small_canonical, tmp_path):
    from dsmgame.network import generate_topology
    from oracles import save_edge_list
    import numpy as np

    graph = generate_topology(8, 3.0, np.random.default_rng(2))
    gpath = tmp_path / "g.edges"
    save_edge_list(graph, gpath)
    code = run_cli(
        "run", small_canonical, "--alg", "2", "--graph", gpath,
        "--max-iter", "600", "--tol", "1e-4",
        "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json",
    )
    assert code == 0


def test_run_refuses_a_negative_seed_naming_the_flag(toy_file, tmp_path, capsys):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", toy_file, "--alg", "1", "--seed", "-1",
        "--trace", trace, "--summary", summary,
    )
    assert code == 1
    assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not trace.exists() and not summary.exists()


@pytest.mark.parametrize("alg, flags, message", [
    ("1", ("--max-iter", "0"), "--max-iter must be at least 1, got 0"),
    ("2", ("--max-iter", "-5"), "--max-iter must be at least 1, got -5"),
    ("1", ("--step-exponent", "0.5"), "--step-exponent must lie in (0.5, 1], got 0.5"),
    ("2", ("--step-exponent", "nan"), "--step-exponent must lie in (0.5, 1], got nan"),
    ("2", ("--tau", "1.5"), "--tau must lie strictly in (0, 1), got 1.5"),
    ("2", ("--tau", "0"), "--tau must lie strictly in (0, 1), got 0.0"),
    ("2", ("--degree", "0"), "--degree must be positive and finite, got 0.0"),
    ("3", ("--degree", "nan"), "--degree must be positive and finite, got nan"),
    ("3", ("--max-events", str(10**20)), f"--max-events must be at most {sys.maxsize}, got {10**20}"),
])
def test_run_names_the_flag_of_a_bad_solver_setting_before_loading(
    tmp_path, capsys, alg, flags, message
):
    # the scenario file does not exist: the flag is refused before it is read
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", tmp_path / "missing.json", "--alg", alg, *flags,
        "--topology", "random", "--trace", trace, "--summary", summary,
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("alg", ["2", "3"])
def test_run_asks_for_a_graph_before_loading(tmp_path, capsys, alg):
    # the scenario file does not exist: the missing graph is refused first
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", tmp_path / "missing.json", "--alg", alg, "--degree", "0",
        "--trace", trace, "--summary", summary,
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: algorithms 2 and 3 need --graph PATH or --topology random [--degree D]\n"
    )


@pytest.mark.parametrize("flag, missing", [
    ("--trace", True), ("--trace", False), ("--summary", True), ("--summary", False),
])
def test_run_refuses_a_bad_output_directory_before_loading(tmp_path, capsys, flag, missing):
    # the scenario file does not exist: the output is refused before it is
    # read, and the other output is not written
    outputs = {"--trace": tmp_path / "t.csv", "--summary": tmp_path / "s.json"}
    outputs[flag] = bad_directory(tmp_path, missing) / outputs[flag].name
    code = run_cli(
        "run", tmp_path / "missing.json", "--alg", "1",
        *(part for pair in outputs.items() for part in pair),
    )
    assert code == 1
    assert capsys.readouterr().err == dir_error(flag, outputs[flag], missing)
    assert not any(path.exists() for path in outputs.values())


# --- rows rendered once per run ------------------------------------------------


def run_keeping_the_trace(scenario_file, tmp_path, monkeypatch, alg):
    """Run `alg` on `scenario_file` through the CLI; return its trace and
    summary paths, the RunTrace it wrote, the rows it handed to `to_csv`
    and the rows `to_csv` returned."""
    kept = []
    to_csv = RunTrace.to_csv

    def keeping(trace, path, first=None):
        rows = to_csv(trace, path, first)
        kept.append((trace, first, rows))
        return rows

    monkeypatch.setattr(RunTrace, "to_csv", keeping)
    trace_path, summary_path = tmp_path / f"t{alg}.csv", tmp_path / f"s{alg}.json"
    assert run_cli(
        "run", scenario_file, "--alg", alg, "--topology", "random", "--degree", "3",
        "--tol", "1e-4", "--max-iter", "60", "--max-events", "600",
        "--trace", trace_path, "--summary", summary_path,
    ) == 0
    monkeypatch.undo()
    (trace, first, rows), = kept
    return trace_path, summary_path, trace, first, rows


def assert_written_as_without_rows(trace_path, summary_path, trace, tmp_path):
    """The trace holds the bytes `to_csv` writes with no rows handed over,
    and the summary the text `_json_parts` gives its final profiles."""
    fresh = tmp_path / "fresh.csv"
    trace.to_csv(fresh)
    assert trace_path.read_bytes() == fresh.read_bytes()
    *_, (final, _) = trace.states()
    text = summary_path.read_text(encoding="utf-8")
    payload = {**json.loads(text), "final_profiles": final}
    assert "".join(_json_parts(payload, indent=2, sort_keys=True)) + "\n" == text


@pytest.mark.parametrize("alg", ["1", "2", "3"])
def test_run_reuses_rows_and_writes_the_bytes_it_writes_without_them(
    tmp_path, monkeypatch, alg
):
    scenario_file = tmp_path / "scenario.json"
    assert run_cli("generate", "--n", "50", "--seed", "7", "-o", scenario_file) == 0
    shapes = []

    def recording(values):
        shapes.append(np.shape(values))
        return row_texts(values)

    monkeypatch.setattr(scen, "row_texts", recording)
    trace_path, summary_path, trace, first, rows = run_keeping_the_trace(
        scenario_file, tmp_path, monkeypatch, alg
    )
    # the scenario's q_min, q_max and initial profiles are rendered, and
    # the final profiles are not rendered again
    assert shapes.count((50, 24)) == 3
    # the rows the scenario's hash was composed from render the first
    # state, and the rows returned the last one, the summary's
    states = list(trace.states())
    assert first.render(states[0][0]) and rows.render(states[-1][0])
    assert first.texts == load_scenario(scenario_file).initial_rows.texts
    assert_written_as_without_rows(trace_path, summary_path, trace, tmp_path)


def test_run_writes_final_profiles_from_its_result_where_the_rows_are_not_theirs(
    small_canonical, tmp_path, monkeypatch
):
    # rows that render another array are not written as the summary's
    kept = []
    to_csv = RunTrace.to_csv

    def other_rows(trace, path, first=None):
        values = to_csv(trace, path, first).values + 1.0
        kept.append(trace)
        return RowTexts(values, row_texts(values))

    monkeypatch.setattr(RunTrace, "to_csv", other_rows)
    trace_path, summary_path = tmp_path / "t.csv", tmp_path / "s.json"
    assert run_cli(
        "run", small_canonical, "--alg", "1", "--max-iter", "30",
        "--trace", trace_path, "--summary", summary_path,
    ) == 0
    monkeypatch.undo()
    assert_written_as_without_rows(trace_path, summary_path, kept[0], tmp_path)


def _integral_scenario(path, n=30, horizon=24, pinned=()):
    """A scenario of `n` consumers whose initial profiles are all 1.0 and
    whose slots `pinned` (slot -> load) hold q_min = q_max = that load."""
    rng = np.random.default_rng(8)
    q_min = rng.uniform(0.2, 0.9, (n, horizon))
    q_max = rng.uniform(1.1, 2.0, (n, horizon))
    init = np.ones((n, horizon))
    for slot, load in pinned:
        q_min[:, slot] = q_max[:, slot] = init[:, slot] = load
    curve = PriceCurve(rng.uniform(1.0, 2.2, horizon), np.full(horizon, 1.2), np.zeros(horizon))
    scenario = Scenario(ConsumerSpec.from_rows(q_min, q_max, init.sum(axis=1)), curve)
    save_scenario(path, scenario, init)


def test_run_does_not_reuse_the_texts_of_integer_initial_profiles(tmp_path, monkeypatch):
    # an int's text is "1", its float's "1.0": the hash keeps the file's
    # text, the trace the float's
    scenario_file = tmp_path / "scenario.json"
    _integral_scenario(scenario_file)
    payload = json.loads(scenario_file.read_text(encoding="utf-8"))
    payload["initial_profiles"][0][0] = 1
    scenario_file.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    loaded = load_scenario(scenario_file)
    assert loaded.initial_rows is None
    assert loaded.content_hash == hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    trace_path, summary_path, trace, first, _ = run_keeping_the_trace(
        scenario_file, tmp_path, monkeypatch, "1"
    )
    assert first is None
    line = trace_path.read_text().splitlines()[1].split(",")
    assert line[:2] == ["1", "1"] and line[4:] == ["1.0"] * 24
    assert_written_as_without_rows(trace_path, summary_path, trace, tmp_path)


@pytest.mark.parametrize("alg", ["1", "3"])
def test_run_writes_initial_and_final_loads_on_the_repr_path(tmp_path, monkeypatch, alg):
    # every state holds 0.0 and 5e-05, which `repr` writes itself, so the
    # rows of the initial and the final profiles go number by number
    scenario_file = tmp_path / "scenario.json"
    _integral_scenario(scenario_file, pinned=((0, 0.0), (1, 5e-05)))
    assert load_scenario(scenario_file).initial_rows.texts[0].startswith("0.0,5e-05,1.0,")
    trace_path, summary_path, trace, first, rows = run_keeping_the_trace(
        scenario_file, tmp_path, monkeypatch, alg
    )
    assert first is not None
    assert all(row.startswith("0.0,5e-05,") for row in rows.texts)
    lines = trace_path.read_text().splitlines()
    assert lines[1].endswith(",0.0,5e-05,1.0,1.0," + ",".join(["1.0"] * 20))
    assert lines[-1].split(",")[4:6] == ["0.0", "5e-05"]
    assert_written_as_without_rows(trace_path, summary_path, trace, tmp_path)


def _scenario_without_start(path, horizon, n=8, seed=5):
    """A scenario file of `n` consumers over `horizon` slots with no
    initial profiles, so `run` draws its start point."""
    rng = np.random.default_rng(seed)
    q_min = rng.uniform(0.3, 0.8, (n, horizon))
    q_max = q_min + rng.uniform(1.0, 2.0, (n, horizon))
    energy = q_min.sum(axis=1) + rng.uniform(0.35, 0.65, n) * (q_max - q_min).sum(axis=1)
    curve = PriceCurve(rng.uniform(1.0, 2.2, horizon), np.full(horizon, 1.2), np.zeros(horizon))
    save_scenario(path, Scenario(ConsumerSpec.from_rows(q_min, q_max, energy), curve))


@pytest.mark.parametrize("horizon", [3, 24])
def test_run_draws_the_start_point_of_the_per_consumer_loop(tmp_path, monkeypatch, horizon):
    # one draw and one projection for all consumers give the bytes of one
    # `sample_feasible` call per consumer, and leave the generator in the
    # same state for the topology and the gossip events; at H = 3 the batch
    # of 8 rows takes the numpy projection and each single row the scalar one
    scenario_file = tmp_path / "scenario.json"
    _scenario_without_start(scenario_file, horizon)
    outs = []
    for start_point in (cli._start_point, reference_start_point):
        monkeypatch.setattr(cli, "_start_point", start_point)
        workdir = tmp_path / start_point.__name__
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = run_cli(
            "run", scenario_file, "--alg", "3", "--topology", "random",
            "--seed", "4", "--max-events", "200", "--trace", "t.csv", "--summary", "s.json",
        )
        assert code == 0
        outs.append(((workdir / "t.csv").read_bytes(), (workdir / "s.json").read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("lines, message", [
    # the id as typed and the file's line, not a 0-based id
    ("1 2\n3 3\n", "loop.edges:2: self-loop on node 3"),
    ("1 2\n3 4\n", "loop.edges: graph is not connected"),
], ids=["self-loop", "disconnected"])
def test_run_names_the_graph_file_of_a_bad_edge_list(
    small_canonical, tmp_path, capsys, lines, message
):
    gpath = tmp_path / "loop.edges"
    gpath.write_text(lines)
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(
        "run", small_canonical, "--alg", "2", "--graph", gpath,
        "--trace", trace, "--summary", summary,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(message)
    assert str(gpath) in err
    assert not trace.exists() and not summary.exists()


# --- oracle ---------------------------------------------------------------------


def test_oracle_nash_on_toy(toy_file, tmp_path):
    out = tmp_path / "nash.json"
    assert run_cli("oracle", toy_file, "--kind", "nash", "-o", out) == 0
    data = json.loads(out.read_text())
    assert data["residual"] <= 1e-6
    assert len(data["profiles"]) == 2


def test_oracle_nash_refuses_large_instances(small_canonical, tmp_path, capsys):
    code = run_cli("oracle", small_canonical, "--kind", "nash", "-o", tmp_path / "o.json")
    assert code == 1
    assert "restricted" in capsys.readouterr().err


def test_oracle_welfare_completes_on_large_instance(small_canonical, tmp_path):
    out = tmp_path / "welfare.json"
    assert run_cli("oracle", small_canonical, "--kind", "welfare", "-o", out) == 0
    assert json.loads(out.read_text())["total_cost"] > 0


@pytest.mark.parametrize("missing", [True, False])
def test_oracle_refuses_a_bad_output_directory_before_loading(tmp_path, capsys, missing):
    out = bad_directory(tmp_path, missing) / "o.json"
    code = run_cli("oracle", tmp_path / "missing.json", "--kind", "welfare", "-o", out)
    assert code == 1
    assert capsys.readouterr().err == dir_error("-o", out, missing)


# --- reports --------------------------------------------------------------------


def test_par_report(small_canonical, tmp_path):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    run_cli("run", small_canonical, "--alg", "1", "--tol", "1e-4",
            "--trace", trace, "--summary", summary)
    out = tmp_path / "par.json"
    assert run_cli("report", "--kind", "par", "--summary", summary, "-o", out) == 0
    data = json.loads(out.read_text())
    assert data["relative_reduction"] == pytest.approx(
        (data["initial_par"] - data["final_par"]) / data["initial_par"]
    )
    assert data["relative_reduction"] >= 0.2


def test_fairness_report_checks_scenario_hash(toy_file, small_canonical, tmp_path, capsys):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    run_cli("run", toy_file, "--alg", "1", "--trace", trace, "--summary", summary)
    out = tmp_path / "fair.json"
    assert (
        run_cli("report", "--kind", "fairness", "--scenario", small_canonical,
                "--summary", summary, "-o", out) == 1
    )
    assert run_cli(
        "report", "--kind", "fairness", "--scenario", toy_file,
        "--summary", summary, "-o", out,
    ) == 0
    data = json.loads(out.read_text())
    total = sum(data["instantaneous_bill"])
    assert total == pytest.approx(sum(data["total_load_bill"]), abs=1e-9)
    assert data["consumer"] == [1, 2]


@pytest.fixture()
def two_by_two_run(tmp_path):
    """A 2-consumer, 2-slot scenario and the summary of a run on it."""
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps({
        "schema_version": 1,
        "horizon": 2,
        "price": {"a": [1.0, 2.0], "b": [1.0, 1.0], "c": [0.0, 0.0]},
        "consumers": [
            {"q_min": [0.0, 0.0], "q_max": [2.0, 2.0], "energy": 2.0},
            {"q_min": [0.5, 0.0], "q_max": [1.5, 1.5], "energy": 1.5},
        ],
    }))
    summary = tmp_path / "s.json"
    assert run_cli("run", scenario, "--alg", "1", "--trace", tmp_path / "t.csv",
                   "--summary", summary) == 0
    return scenario, summary


@pytest.mark.parametrize(
    "profiles, problem",
    [
        ([[1.0, 1.0], [1.0]], " must be an array of numbers of shape (2, 2)"),
        ([[1.0, "x"], [1.0, 1.0]], '[0][1]: "x" is not a number'),
        ([[1.0, 1.0], ["1.0", 1.0]], '[1][0]: "1.0" is not a number'),
        ([[1.0, 1.0], [1.0, True]], "[1][1]: true is not a number"),
        ([[1.0, {}], [1.0, 1.0]], " must be an array of numbers of shape (2, 2)"),
        ([[1.0, 10**400], [1.0, 1.0]], " must be an array of numbers of shape (2, 2)"),
        ("x", ': "x" is not a number'),
        (3.0, " must be an array of numbers of shape (2, 2), got shape ()"),
        ([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], " must be an array of numbers of shape (2, 2), got shape (2, 3)"),
        ([1.0, 1.0], " must be an array of numbers of shape (2, 2), got shape (2,)"),
        ([[1.0, 1.0], [-1.0, 2.0]], ": consumer 2, slot 1: load -1 must be nonnegative"),
        ([[1.0, float("nan")], [-1.0, 2.0]], ": consumer 1, slot 2: load nan is non-finite"),
        ([[1.0, 1.0], [2.0, float("-inf")]], ": consumer 2, slot 2: load -inf is non-finite"),
        ([[0.0, 0.0], [1.0, 0.5]], ": consumer 1: total load must be positive"),
    ],
    ids=[
        "ragged", "text", "numeric-text", "bool", "object", "huge-int", "string", "scalar",
        "wide", "flat",
        "negative", "nan", "minus-inf", "zero-row",
    ],
)
def test_fairness_report_names_bad_final_profiles(two_by_two_run, tmp_path, capsys, profiles, problem):
    scenario, summary = two_by_two_run
    content = json.loads(summary.read_text())
    content["final_profiles"] = profiles
    summary.write_text(json.dumps(content))
    capsys.readouterr()
    out = tmp_path / "fair.json"
    code = run_cli("report", "--kind", "fairness", "--scenario", scenario,
                   "--summary", summary, "-o", out)
    assert code == 1
    assert capsys.readouterr().err == f"error: --summary {summary}: final_profiles{problem}\n"
    assert not out.exists()


def test_welfare_gap_report(toy_file, tmp_path):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    run_cli("run", toy_file, "--alg", "1", "--tol", "1e-7", "--max-iter", "4000",
            "--trace", trace, "--summary", summary)
    oracle_out = tmp_path / "w.json"
    run_cli("oracle", toy_file, "--kind", "welfare", "-o", oracle_out)
    out = tmp_path / "gap.json"
    assert run_cli(
        "report", "--kind", "welfare-gap", "--summary", summary,
        "--oracle", oracle_out, "-o", out,
    ) == 0
    gap = json.loads(out.read_text())["relative_gap"]
    assert -1e-9 <= gap <= 0.05


def test_reports_refuse_the_wrong_kind_of_input(tmp_path, capsys):
    # two consumers, two slots: every command below runs in milliseconds
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps({
        "schema_version": 1,
        "horizon": 2,
        "price": {"a": [1.0, 2.0], "b": [1.0, 1.0], "c": [0.0, 0.0]},
        "consumers": [
            {"q_min": [0.0, 0.0], "q_max": [2.0, 2.0], "energy": 2.0},
            {"q_min": [0.5, 0.0], "q_max": [1.5, 1.5], "energy": 1.5},
        ],
    }))
    summary, nash, welfare = (tmp_path / f"{n}.json" for n in ("s", "nash", "w"))
    assert run_cli("run", scenario, "--alg", "1", "--trace", tmp_path / "t.csv",
                   "--summary", summary) == 0
    assert run_cli("oracle", scenario, "--kind", "nash", "-o", nash) == 0
    assert run_cli("oracle", scenario, "--kind", "welfare", "-o", welfare) == 0
    capsys.readouterr()
    out = tmp_path / "r.json"
    for argv, named in (
        (("--kind", "welfare-gap", "--summary", summary, "--oracle", nash), nash),
        (("--kind", "welfare-gap", "--summary", welfare, "--oracle", welfare), welfare),
        (("--kind", "par", "--summary", nash), nash),
        (("--kind", "fairness", "--scenario", scenario, "--summary", welfare), welfare),
    ):
        assert run_cli("report", *argv, "-o", out) == 1
        assert str(named) in capsys.readouterr().err
        assert not out.exists()
    # a welfare oracle of another scenario: the same shape, a larger budget
    other, other_welfare = tmp_path / "other.json", tmp_path / "ow.json"
    content = json.loads(scenario.read_text())
    content["consumers"][0]["energy"] = 2.5
    other.write_text(json.dumps(content))
    assert run_cli("oracle", other, "--kind", "welfare", "-o", other_welfare) == 0
    capsys.readouterr()
    assert run_cli("report", "--kind", "welfare-gap", "--summary", summary,
                   "--oracle", other_welfare, "-o", out) == 1
    err = capsys.readouterr().err
    assert f"--oracle {other_welfare} is from another scenario file" in err
    assert not out.exists()
    assert run_cli("report", "--kind", "welfare-gap", "--summary", summary,
                   "--oracle", welfare, "-o", out) == 0


def test_convergence_report_filters_consumers(toy_file, tmp_path, capsys):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    run_cli("run", toy_file, "--alg", "1", "--max-iter", "30",
            "--trace", trace, "--summary", summary)
    out = tmp_path / "conv.csv"
    assert run_cli(
        "report", "--kind", "convergence", "--trace", trace,
        "--consumers", "1", "-o", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,n,cost"
    assert all(line.split(",")[1] == "1" for line in lines[1:])
    # ids that no trace row carries are refused by name, not written as 0 rows
    missing = tmp_path / "missing.csv"
    assert run_cli(
        "report", "--kind", "convergence", "--trace", trace,
        "--consumers", "0,1,99", "-o", missing,
    ) == 1
    assert "--consumers 0,99 never appear" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("consumers, entry", [("1,,2", "''"), ("x", "'x'"), ("1,2.5", "'2.5'")])
def test_convergence_report_names_a_bad_consumers_entry(tmp_path, capsys, consumers, entry):
    # the list is read before the trace, so the trace need not exist
    out = tmp_path / "conv.csv"
    assert run_cli(
        "report", "--kind", "convergence", "--trace", tmp_path / "t.csv",
        "--consumers", consumers, "-o", out,
    ) == 1
    assert f"--consumers entry {entry} is not an integer id" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_report_refuses_a_consumers_entry_past_the_digit_limit(
    tmp_path, capsys
):
    # refused by its length, as the file readers refuse such an integer,
    # quoting only its first characters
    out = tmp_path / "conv.csv"
    assert run_cli(
        "report", "--kind", "convergence", "--trace", tmp_path / "t.csv",
        "--consumers", "2," + "1" * 5000, "-o", out,
    ) == 1
    assert capsys.readouterr().err == (
        "error: --consumers entry 111111111111... is 5000 characters long, past the "
        "limit of 4300 digits for an integer\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "text, consumers, message",
    [
        pytest.param("", None, "is empty", id="empty"),
        pytest.param("n,cost\r\n1,0.5\r\n", None, "has no 't' column", id="no-t"),
        pytest.param("t,cost\r\n1,0.5\r\n", None, "has no 'n' column", id="no-n"),
        pytest.param("t,n,residual\r\n1,1,0\r\n", None, "has no 'cost' column", id="no-cost"),
        pytest.param("t,n,cost\r\n1,1,0.5\r\n1,x,0.5\r\n", "1",
                     "line 3: n 'x' is not an integer id", id="non-integer-n"),
        pytest.param("t,n,cost\r\n1,1,0.5\r\n2,1\r\n", None,
                     "line 3 has 2 fields, the header 3", id="short-row"),
        pytest.param("t,n,cost\r\n1,1," + "5" * 131_073 + "\r\n", None,
                     "line 2: field larger than field limit (131072)", id="long-field"),
        pytest.param("t,n,cost\r\n1,1,0.5\r\0", None,
                     "was not written to its end: it ends in the NUL byte that an "
                     "overwrite stopped midway leaves, after an older file's tail",
                     id="unfinished"),
    ],
)
def test_convergence_report_names_a_malformed_trace(
    tmp_path, capsys, text, consumers, message
):
    trace, out = tmp_path / "t.csv", tmp_path / "conv.csv"
    trace.write_bytes(text.encode())
    picked = ("--consumers", consumers) if consumers else ()
    code = run_cli("report", "--kind", "convergence", "--trace", trace, *picked, "-o", out)
    assert code == 1
    assert capsys.readouterr().err == f"error: --trace {trace} {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, summary, field",
    [
        ("par", {"command": "run"}, "scenario_hash"),
        ("par", {"command": "run", "scenario_hash": "x", "initial_par": 2.0}, "final_par"),
        ("welfare-gap", {"command": "run", "scenario_hash": "x"}, "total_cost"),
    ],
)
def test_reports_name_a_missing_input_field(tmp_path, capsys, kind, summary, field):
    path, out = tmp_path / "s.json", tmp_path / "r.json"
    path.write_text(json.dumps(summary))
    welfare = tmp_path / "w.json"
    welfare.write_text(json.dumps(
        {"command": "oracle", "kind": "welfare", "scenario_hash": "x", "total_cost": 1.0}
    ))
    code = run_cli("report", "--kind", kind, "--summary", path, "--oracle", welfare, "-o", out)
    assert code == 1
    assert capsys.readouterr().err == f"error: --summary {path} lacks the field {field!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--summary", "--oracle"])
def test_reports_name_an_input_that_is_not_json(tmp_path, capsys, flag):
    paths = {"--summary": tmp_path / "s.json", "--oracle": tmp_path / "w.json"}
    paths["--summary"].write_text(json.dumps(
        {"command": "run", "scenario_hash": "x", "total_cost": 1.0}
    ))
    paths["--oracle"].write_text(json.dumps(
        {"command": "oracle", "kind": "welfare", "scenario_hash": "x", "total_cost": 1.0}
    ))
    bad, out = paths[flag], tmp_path / "r.json"
    bad.write_text('{\n  "command": "run",\n  not json\n}\n')
    code = run_cli("report", "--kind", "welfare-gap", "--summary", paths["--summary"],
                   "--oracle", paths["--oracle"], "-o", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {bad} is not JSON: ") and err.endswith(" at line 3\n")
    assert err.count("\n") == 1
    assert not out.exists()


DIGITS = b"1" * 5000


@pytest.mark.parametrize("content", [b'{"command": "\xff"}\n', DIGITS],
                         ids=["not-utf-8", "5000-digits"])
@pytest.mark.parametrize("reader", ["scenario", "--graph", "--summary", "--oracle", "--trace"])
def test_inputs_that_fail_to_decode_are_refused_naming_the_file(
    small_canonical, tmp_path, capsys, reader, content
):
    # bytes that are not UTF-8, and an integer past Python's 4300-digit
    # limit for int(), are refused in one line that names the file; the
    # integer is a JSON document, a node id of an edge list or a trace's n,
    # and its refusal says why in the same words everywhere
    digits = content == DIGITS
    if digits:
        content = {
            "--graph": b"1 " + DIGITS, "--trace": b"t,n,cost\n1," + DIGITS + b",0.5",
        }.get(reader, DIGITS) + b"\n"
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(content)
    summary = tmp_path / "s.json"
    summary.write_text(json.dumps({"command": "run", "scenario_hash": "x", "total_cost": 1.0}))
    run = ("run", "--alg", "2", "--topology", "random", "--trace", out, "--summary", out)
    argv = {
        "scenario": (*run, bad),
        "--graph": (*run, small_canonical, "--graph", bad),
        "--summary": ("report", "--kind", "par", "--summary", bad, "-o", out),
        "--oracle": ("report", "--kind", "welfare-gap", "--summary", summary,
                     "--oracle", bad, "-o", out),
        "--trace": ("report", "--kind", "convergence", "--trace", bad,
                    "--consumers", "1", "-o", out),
    }[reader]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    named = bad if reader in ("scenario", "--graph") else f"{reader} {bad}"
    assert err.startswith(f"error: {named}")
    assert err.count("\n") == 1
    if digits:
        where = {
            "--graph": f"{bad}:1: node id", "--trace": f"--trace {bad} line 2: n",
        }.get(reader, f"{named}:")
        assert err == (
            f"error: {where} 111111111111... is 5000 characters long, past the "
            "limit of 4300 digits for an integer\n"
        )
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, flag, field, value",
    [
        ("par", "--summary", "initial_par", "a"),
        ("par", "--summary", "initial_par", 0),
        ("par", "--summary", "initial_par", -1.5),
        ("par", "--summary", "final_par", None),
        ("par", "--summary", "final_par", True),
        ("welfare-gap", "--summary", "total_cost", [1.0]),
        ("welfare-gap", "--oracle", "total_cost", 0),
        ("welfare-gap", "--oracle", "total_cost", float("nan")),
        # integers too large for a float
        pytest.param("par", "--summary", "initial_par", 10**400, id="initial_par-401-digits"),
        pytest.param("welfare-gap", "--oracle", "total_cost", -(10**400),
                     id="total_cost-401-digits"),
        pytest.param("par", "--summary", "initial_par", [0.5] * 20_000, id="initial_par-long-list"),
    ],
)
def test_reports_refuse_a_field_that_is_not_a_usable_number(
    tmp_path, capsys, kind, flag, field, value
):
    fields = {
        "--summary": {"command": "run", "scenario_hash": "x", "initial_par": 2.0,
                      "final_par": 1.5, "total_cost": 3.0},
        "--oracle": {"command": "oracle", "kind": "welfare", "scenario_hash": "x",
                     "total_cost": 2.0},
    }
    fields[flag][field] = value
    paths = {f: tmp_path / f"{f[2:]}.json" for f in fields}
    for f, path in paths.items():
        path.write_text(json.dumps(fields[f]))
    out = tmp_path / "r.json"
    code = run_cli("report", "--kind", kind, "--summary", paths["--summary"],
                   "--oracle", paths["--oracle"], "-o", out)
    assert code == 1
    err = capsys.readouterr().err
    # the value as JSON writes it, cut to 40 characters
    head = f"error: {flag} {paths[flag]}: {field!r} is "
    assert err.startswith(f"{head}{quoted(value)}, not ")
    assert len(err) <= len(head) + 40 + len(", not a positive finite number\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_report_missing_inputs_is_usage_error(capsys):
    assert main(["report", "--kind", "par", "-o", "x.json"]) == 1
    assert "--summary" in capsys.readouterr().err


@pytest.mark.parametrize("missing", [True, False])
def test_report_refuses_a_bad_output_directory_before_reading(tmp_path, capsys, missing):
    out = bad_directory(tmp_path, missing) / "par.json"
    code = run_cli("report", "--kind", "par", "--summary", tmp_path / "missing.json", "-o", out)
    assert code == 1
    assert capsys.readouterr().err == dir_error("-o", out, missing)


# --- provenance header ------------------------------------------------------------


def _run_flags(alg, **given):
    return {
        "scenario": "toy.json", "alg": alg, "seed": 4, "theta": 1.5,
        "step_exponent": 0.7, "tau": 0.4, "tol": 1e-5, "max_iter": 30,
        "max_events": 40, "graph": None, "topology": None, "degree": 2.0,
        "trace": "t.csv", "summary": "out.json", "strict": False, **given,
    }


def _report_flags(kind, **given):
    return {
        "kind": kind, "scenario": None, "summary": "s.json", "oracle": None,
        "trace": None, "consumers": None, "out": "out.json", **given,
    }


# each JSON-writing command with every option's value: its `flags` must
# equal them, so an option missing here or there fails; None and False mark
# an option left out of the command line
PROVENANCE_CASES = {
    "run-alg1": ("run", _run_flags(1, strict=True, max_iter=4000, tol=1e-4)),
    "run-alg2": ("run", _run_flags(2, graph="g.edges")),
    "run-alg3": ("run", _run_flags(3, topology="random")),
    "oracle-nash": ("oracle", {"scenario": "toy.json", "kind": "nash", "tol": 1e-6,
                               "out": "out.json"}),
    "oracle-welfare": ("oracle", {"scenario": "toy.json", "kind": "welfare", "tol": 1e-6,
                                  "out": "out.json"}),
    "report-par": ("report", _report_flags("par")),
    "report-fairness": ("report", _report_flags("fairness", scenario="toy.json")),
    "report-welfare-gap": ("report", _report_flags("welfare-gap", oracle="w.json")),
}


def _argv(command, flags):
    argv = [command]
    for dest, value in flags.items():
        option = "--" + dest.replace("_", "-")
        if dest == "scenario" and command != "report":
            argv.append(value)
        elif value is True:
            argv.append(option)
        elif value is not None and value is not False:
            argv += [option, str(value)]
    return argv


@pytest.mark.parametrize("case", list(PROVENANCE_CASES))
def test_every_json_artifact_carries_the_provenance_header(
    toy_file, tmp_path, monkeypatch, case
):
    command, flags = PROVENANCE_CASES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text("1 2\n")
    # the inputs of the reports
    assert run_cli("run", "toy.json", "--alg", "1", "--trace", "t.csv", "--summary", "s.json") == 0
    assert run_cli("oracle", "toy.json", "--kind", "welfare", "-o", "w.json") == 0
    assert run_cli(*_argv(command, flags)) == 0
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["command"] == command
    assert data["scenario_hash"] == load_scenario(toy_file).content_hash
    assert data["flags"] == {"command": command, **flags}
    assert ("kind" in data) == ("kind" in flags)
    assert data.get("kind") == flags.get("kind")


# --- console entry point ---------------------------------------------------------


def test_module_invocation(tmp_path):
    out = tmp_path / "s.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dsmgame", "generate", "--n", "3", "-o", str(out)],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# --- canonical-study script ------------------------------------------------------


#: sha256 of each file of the N = 8 study, `--max-events 300`: the byte contract
CANONICAL_STUDY_DIGESTS = {
    "scenario.json": "a6d6643e5010edede86989b28dd07afdf8e8cf2a8f8b5651e941e73f3bc9ef45",
    "trace1.csv": "e61d4d58cb099861663bb68c376dd42ac43d0fa3a42646a14f3cf6b053c0af8e",
    "summary1.json": "dc30a8538885962d4d6e52b095a17b92bfc3f1585bffcf721d430c0fef43428e",
    "trace2.csv": "e0ba319767bf439dc82774cd6e619cd5a5ec6adca57ccdcabe382f596b498a98",
    "summary2.json": "4bf2d876d9fc1c1bf670916e350ead0bbf30d1a3660c0c9c16d02f0c02a66f21",
    "trace3.csv": "b7695f06ef9f328608ff01ee3f0b3dbc6463eb73e984f94e717c88efb1919913",
    "summary3.json": "d927fb33a3c619fcb95571952937193ee5349b2eb637aa46c73514dac89d6ce2",
    "welfare.json": "981bb76bfbd38a13e52c023179361683481b6167e633e4d35e9665386d3b6258",
    "par.json": "abaccab98406812160584b498164386b949fd7b2237df09418c0f641e44b5c5d",
    "fairness.json": "69e0ce14d7b8e8eee84bffe75ac7409ec04f3a7d5b3ebf33f4177e629b8ec54a",
    "gap.json": "676e1edc22a9df8fef9441ada72dacc5632588da659702f61795f81c1466dd6e",
    "costs.csv": "61fa604e61e37dd120d28584ce42404a8dbfd7b138690deac3327cdfed3ed7d1",
}


def run_canonical_study(outdir, extra_env=None):
    """Run the study script as README prints it, from a checkout with
    dsmgame neither installed nor on PYTHONPATH; returns the process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "canonical_study.py"),
     "--outdir", str(outdir), "--n", "8", "--max-events", "300"],
        capture_output=True,
        text=True,
        env={**env, **(extra_env or {})},
    )


def test_canonical_study_script_is_reproducible(tmp_path):
    # run as README prints it: from a checkout, dsmgame neither installed
    # nor on PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    digests = []
    for run in ("first", "second"):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "canonical_study.py"),
         "--outdir", str(tmp_path / run), "--n", "8", "--max-events", "300"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    # the headline names each algorithm's verdict, read from its summary
    assert "alg 1: converged after 435 iterations" in proc.stderr
    assert "alg 2: converged after 417 iterations" in proc.stderr
    assert "alg 3: not converged after 300 iterations" in proc.stderr
    assert list(digests[0]) == [
    "scenario.json", "trace1.csv", "summary1.json", "trace2.csv",
    "summary2.json", "trace3.csv", "summary3.json", "welfare.json",
    "par.json", "fairness.json", "gap.json", "costs.csv",
    ]
    assert digests[0] == digests[1]
    # the byte contract itself, so a drift shared by both runs fails too
    assert digests[0] == CANONICAL_STUDY_DIGESTS


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: numpy's AVX2 loops round power, log, exp and cbrt "
    "differently from its AVX-512 ones, so the pinned digests hold on one path only",
)
def test_canonical_study_digests_hold_on_the_avx2_code_path(tmp_path):
    proc = run_canonical_study(tmp_path, AVX2_ENV)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    moved = [
        name for name, digest in CANONICAL_STUDY_DIGESTS.items()
        if digests.get(name) != digest
    ]
    assert not moved, f"files whose digest moves on the AVX2 path: {', '.join(moved)}"


# --- trace-digest script ---------------------------------------------------------


#: sha256 of the alg 1-3 trace CSVs that `scripts/trace_digests.py` writes at N = 50
TRACE_DIGESTS_N50 = {
    "alg1": "66cbfc49c73de6ec610ee312e562f147bc3310c6519e8398edf69895ebdf3c33",
    "alg2": "d6fa14d60eabcd7402a1496cba9f18331f86529a6ba72a43d23fc0b6bb271fae",
    "alg3": "efc36faf3ed2143c05fe685b1bf12963f70105781e17513f7820ca6f0f87eaa8",
}


def test_trace_digests_script_prints_the_pinned_n50_digests():
    # run from a checkout, dsmgame neither installed nor on PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "trace_digests.py"), "--n", "50"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"50": TRACE_DIGESTS_N50}


def test_trace_digests_script_cli_runs_write_the_library_traces(tmp_path):
    # `run --alg 1` and `--alg 2 --topology random --seed 0` on the
    # generated file are the library runs of the default mode (the same
    # start, topology and weights), so their traces match; alg 3 draws its
    # events from the run's rng
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = str(REPO / "scripts" / "trace_digests.py")
    printed = [
        json.loads(subprocess.run(
            [sys.executable, script, "--n", "50", *flags],
            capture_output=True, text=True, env=env, check=True,
        ).stdout)["50"]
        for flags in ((), ("--cli",))
    ]
    library, commands = printed
    assert {alg: commands[alg]["trace"] for alg in ("alg1", "alg2")} == {
        alg: library[alg] for alg in ("alg1", "alg2")
    }
    assert run_cli("generate", "--n", "50", "--seed", "7", "-o", tmp_path / "s.json") == 0
    assert commands["scenario"] == hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest()
    assert all(set(commands[alg]) == {"trace", "summary"} for alg in ("alg1", "alg2", "alg3"))


#: the same digests at N = 500, where the synchronous runs project 1000-row
#: calls and the gossip windows hold 500 events, which N = 50 does not reach;
#: like the N = 50 pin they hold on numpy's AVX-512 loops (ROADMAP item 1)
TRACE_DIGESTS_N500 = {
    "alg1": "06c5f11ed3fcb85b225371018bcbb709144064a2f9fd8ff3303428f755209f0b",
    "alg2": "51837e8a3c640f90b5f485afbef5068f461af9d8af5332673aee77c870d67431",
    "alg3": "14a48a9be0bb3fd5822f8758b0cd24a73d3c7fc5db19b3e72437aae79cf5d8f2",
}


def test_trace_digests_script_prints_the_pinned_n500_digests():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "trace_digests.py"), "--n", "500"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"500": TRACE_DIGESTS_N500}


#: the same digests at N = 2000 (about 5 s), whose 48,000-value states each
#: span many of the trace writer's blocks and formatting chunks, which the
#: N = 50 and N = 500 pins do not reach; like those pins they hold on
#: numpy's AVX-512 loops (ROADMAP item 1)
TRACE_DIGESTS_N2000 = {
    "alg1": "eaaac49deb3695e68fefa0ecbecef4df1aef3f7b7999c935c124212512e67b01",
    "alg2": "6e1ec838b0b2c08de6745b6e73c9f553225560cee365acb76a88d92d9fa45f31",
    "alg3": "5cda813acab0a22bb85bb59ed55359b9748330711bb2944da13748885cb7e641",
}


def test_trace_digests_script_prints_the_pinned_n2000_digests():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "trace_digests.py"), "--n", "2000"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"2000": TRACE_DIGESTS_N2000}
