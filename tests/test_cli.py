"""End-to-end CLI tests: artifacts, determinism, exit codes, reports."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dsmgame.cli import main
from dsmgame.scenario import load_scenario, save_scenario
from conftest import REPO, make_toy_game, src_env


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
    assert "step exponent must lie in (0.5, 1], got 0.5" in capsys.readouterr().err
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
        assert f"max_iter must be at least 1, got {max_iter}" in capsys.readouterr().err
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
    from dsmgame.network import generate_topology, save_edge_list
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
    assert err.startswith(f"error: {flag} {paths[flag]}: {field!r} is {value!r}, not ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_report_missing_inputs_is_usage_error(capsys):
    assert main(["report", "--kind", "par", "-o", "x.json"]) == 1
    assert "--summary" in capsys.readouterr().err


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
    assert digests[0] == {
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
