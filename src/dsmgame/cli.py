"""Command-line front end: generate scenarios, run the solvers, run the
oracles, and emit CSV/JSON report data.

Exit codes: 0 success, 1 usage/argument error, 2 runtime failure (including
non-convergence under --strict). Every JSON output embeds the scenario
content hash and the full flag set for provenance.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import algorithms, network, oracle, scenario as scen
from ._numtext import UNFINISHED, ends_unfinished, open_output
from .model import aggregate, grid_cost, par


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # exact option names only, so a prefix such as `--h` or `--ki` is refused
    # instead of read as `--help` or `--kind`; subparsers are _Parsers too
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        #: the output options, as (flag, attribute), that `main` checks
        self.outputs: list[tuple[str, str]] = []

    def add_output(self, *flags, **kwargs) -> None:
        """A required output path option."""
        action = self.add_argument(*flags, required=True, **kwargs)
        self.outputs.append((flags[0], action.dest))

    # argparse exits with status 2 on usage errors; the artifact reserves 2
    # for runtime failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: error: {message}", 1)


def _write_artifact(path, args, scenario_hash: str, **fields) -> None:
    """Write a JSON artifact: `fields` under the provenance header of the
    command, its --kind where it has one, the scenario hash and `flags`,
    every parsed option."""
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    header = {"command": args.command, "scenario_hash": scenario_hash, "flags": flags}
    if "kind" in flags:
        header["kind"] = args.kind
    with open_output(path) as fh:
        fh.writelines(scen._json_parts({**header, **fields}, indent=2, sort_keys=True))
        fh.write("\n")


def _read_artifact(path, flag: str, command: str, kind: str | None, *fields) -> dict:
    """A JSON input of a report, refused unless its header names `command`
    and `kind` and it holds the scenario hash and the `fields` read from it."""
    if ends_unfinished(path):
        raise CliError(f"{flag} {path} {UNFINISHED}", 1)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_int=network.parse_int)
        except json.JSONDecodeError as exc:
            raise CliError(
                f"{flag} {path} is not JSON: {exc.msg} at line {exc.lineno}", 1
            ) from None
        except ValueError as exc:  # not UTF-8, or an integer of too many digits
            raise CliError(f"{flag} {path}: {exc}", 1) from None
    is_dict = isinstance(payload, dict)
    if not is_dict or (payload.get("command"), payload.get("kind")) != (command, kind):
        source = command if kind is None else f"{command} --kind {kind}"
        raise CliError(f"{flag} {path} is not an output of {source}", 1)
    missing = [f for f in ("scenario_hash", *fields) if f not in payload]
    if missing:
        raise CliError(f"{flag} {path} lacks the field {missing[0]!r}", 1)
    return payload


def _number(payload: dict, flag: str, path, field: str, positive: bool = False):
    """Field `field` of a report input, refused unless it is a finite number,
    and a positive one where it divides."""
    value = payload[field]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # false for NaN, infinities and integers too large for a float, which
    # math.isfinite would raise on
    finite = is_number and abs(value) <= sys.float_info.max
    if not finite or (positive and value <= 0):
        wanted = "a positive finite number" if positive else "a finite number"
        raise CliError(f"{flag} {path}: {field!r} is {algorithms.quoted(value)}, not {wanted}", 1)
    return value


def _check_seed(args) -> None:
    # numpy's own refusal names neither the flag nor the value
    if args.seed < 0:
        raise CliError(f"--seed must be a nonnegative integer, got {args.seed}", 1)


def cmd_generate(args) -> int:
    _check_seed(args)
    scenario, initials = scen.generate(args.n, args.seed, args.jitter)
    sha = scen.save_scenario(args.out, scenario, initials)
    print(
        f"wrote scenario {args.out} (N={args.n}, H={scenario.horizon}, hash {sha[:12]})"
    )
    return 0


def _check_graph_flags(args) -> None:
    # refused before the scenario is read, which alone takes 0.1-0.2 s at
    # N = 2000, so that a flag typo costs no load
    if args.alg == 1 or args.graph:
        return
    if args.topology != "random":
        raise CliError(
            "algorithms 2 and 3 need --graph PATH or --topology random [--degree D]", 1
        )
    if not 0 < args.degree < np.inf:
        raise CliError(f"--degree must be positive and finite, got {args.degree}", 1)


def _load_graph(args, n_consumers: int, rng) -> network.CommGraph:
    """The graph of `--graph`, else the random topology of `--degree`
    (`_check_graph_flags` has refused the flags that give neither)."""
    if args.graph:
        return network.load_edge_list(args.graph, n_consumers)
    return network.generate_topology(n_consumers, args.degree, rng)


def _check_tol(args) -> None:
    # a NaN or negative tolerance is never met, so the command would spend
    # its whole iteration budget
    if not 0 < args.tol < np.inf:
        raise CliError(f"--tol must be positive and finite, got {args.tol}", 1)


def _consumer_ids(text: str) -> set[int]:
    """The 1-based ids of a comma-separated `--consumers` list."""
    ids = set()
    for entry in text.split(","):
        try:
            ids.add(network.parse_int(entry))
        except network.DigitLimitError as exc:
            raise CliError(f"--consumers entry {exc}", 1) from None
        except ValueError:
            raise CliError(f"--consumers entry {entry!r} is not an integer id", 1) from None
    return ids


def _start_point(scenario, rng) -> np.ndarray:
    """A random feasible start point: every consumer's `sample_feasible`
    draw in one call, the same uniforms in the same order, projected row by
    row."""
    return scenario.project(rng.uniform(scenario.q_min_matrix, scenario.q_max_matrix))


def cmd_run(args) -> int:
    _check_tol(args)
    _check_seed(args)
    if args.alg == 1 and not 0 < args.theta < np.inf:
        raise CliError(f"--theta must be positive and finite, got {args.theta}", 1)
    if args.alg == 3 and not 1 <= args.max_events <= sys.maxsize:
        # `islice` takes no larger stop
        bound = "at least 1" if args.max_events < 1 else f"at most {sys.maxsize}"
        raise CliError(f"--max-events must be {bound}, got {args.max_events}", 1)
    if args.alg in (1, 2):
        if args.max_iter < 1:
            raise CliError(f"--max-iter must be at least 1, got {args.max_iter}", 1)
        if not 0.5 < args.step_exponent <= 1.0:
            raise CliError(
                f"--step-exponent must lie in (0.5, 1], got {args.step_exponent}", 1
            )
    if args.alg == 2 and not 0.0 < args.tau < 1.0:
        raise CliError(f"--tau must lie strictly in (0, 1), got {args.tau}", 1)
    _check_graph_flags(args)
    loaded = scen.load_scenario(args.scenario)
    scenario = loaded.scenario
    rng = np.random.default_rng(args.seed)
    if loaded.initial_profiles is not None:
        init = loaded.initial_profiles
    else:
        init = _start_point(scenario, rng)

    if args.alg == 1:
        result, trace = algorithms.run_algorithm1(
            scenario,
            theta=args.theta,
            step_exponent=args.step_exponent,
            init=init,
            tol=args.tol,
            max_iter=args.max_iter,
        )
    elif args.alg == 2:
        graph = _load_graph(args, scenario.n_consumers, rng)
        weights = network.build_weights(graph, args.tau)
        result, trace = algorithms.run_algorithm2(
            scenario,
            graph,
            weights,
            step_exponent=args.step_exponent,
            init=init,
            tol=args.tol,
            max_iter=args.max_iter,
        )
    else:
        graph = _load_graph(args, scenario.n_consumers, rng)
        events = network.gossip_stream(graph, rng, args.max_events)
        result, trace = algorithms.run_algorithm3(
            scenario,
            graph,
            events,
            init=init,
            tol=args.tol,
            max_events=args.max_events,
        )

    # the trace reuses the rows the scenario's hash was composed from for
    # the state they render, and the summary the rows of its last state
    rows = trace.to_csv(args.trace, loaded.initial_rows)
    final = result.final_profiles
    initial_par, final_par = par(aggregate(init)), par(aggregate(final))
    _write_artifact(
        args.summary, args, loaded.content_hash,
        algorithm=args.alg,
        converged=result.converged,
        iterations=result.iterations,
        residual=result.residual,
        fixed_point_residual=result.fixed_point_residual,
        uniqueness="verified" if scenario.uniqueness_verified else "unverified",
        initial_par=initial_par,
        final_par=final_par,
        total_cost=grid_cost(aggregate(final), scenario.curve),
        final_profiles=rows if rows.render(final) else final,
    )
    status = "converged" if result.converged else "not converged"
    print(
        f"algorithm {args.alg}: {status} after {result.iterations} iterations, "
        f"residual {result.residual:.3e}, PAR {initial_par:.4f} -> {final_par:.4f}"
    )
    if not scenario.uniqueness_verified:
        print("warning: uniqueness certificate failed; convergence unguaranteed")
    if args.strict and not result.converged:
        raise CliError("run did not converge within budget (--strict)", 2)
    return 0


def cmd_oracle(args) -> int:
    _check_tol(args)
    loaded = scen.load_scenario(args.scenario)
    scenario = loaded.scenario
    if args.kind == "nash":
        if scenario.n_consumers > 6 or scenario.horizon > 6:
            raise CliError(
                f"nash oracle is restricted to N <= 6 and H <= 6 (got N="
                f"{scenario.n_consumers}, H={scenario.horizon})",
                1,
            )
        profiles = oracle.nash_best_response_iteration(scenario, tol=args.tol)
        cost = grid_cost(aggregate(profiles), scenario.curve)
        extra = {"residual": algorithms.fixed_point_residual(profiles, scenario)}
    else:
        profiles, cost = oracle.social_welfare_optimum(scenario, tol=args.tol)
        extra = {}
    _write_artifact(
        args.out, args, loaded.content_hash,
        profiles=profiles, total_cost=cost, **extra,
    )
    print(f"{args.kind} oracle: total cost {cost:.6f}")
    return 0


def _read_costs(path, wanted: set[int] | None) -> list[list[str]]:
    """The t, n and cost fields of a trace CSV's rows: all of them, or those
    of the consumers `wanted`."""
    if ends_unfinished(path):
        raise CliError(f"--trace {path} {UNFINISHED}", 1)
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CliError(f"--trace {path} is empty", 1)
            for name in ("t", "n", "cost"):
                if name not in header:
                    raise CliError(f"--trace {path} has no {name!r} column", 1)
            cols = [header.index(name) for name in ("t", "n", "cost")]
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise CliError(
                        f"--trace {path} line {reader.line_num} has {len(row)} fields, "
                        f"the header {len(header)}",
                        1,
                    )
                t, n, cost = (row[c] for c in cols)
                try:
                    if wanted is None or network.parse_int(n) in wanted:
                        rows.append([t, n, cost])
                except network.DigitLimitError as exc:
                    raise CliError(
                        f"--trace {path} line {reader.line_num}: n {exc}", 1
                    ) from None
                except ValueError:
                    raise CliError(
                        f"--trace {path} line {reader.line_num}: n {n!r} is not an integer id",
                        1,
                    ) from None
        except csv.Error as exc:  # such as a field past the csv module's size limit
            raise CliError(f"--trace {path} line {reader.line_num}: {exc}", 1) from None
        except UnicodeDecodeError as exc:
            raise CliError(f"--trace {path}: {exc}", 1) from None
    return rows


def cmd_report(args) -> int:
    if args.kind == "par":
        summary = _read_artifact(
            args.summary, "--summary", "run", None, "initial_par", "final_par"
        )
        initial = _number(summary, "--summary", args.summary, "initial_par", positive=True)
        final = _number(summary, "--summary", args.summary, "final_par")
        reduction = (initial - final) / initial
        _write_artifact(
            args.out, args, summary["scenario_hash"],
            initial_par=initial, final_par=final, relative_reduction=reduction,
        )
        print(f"PAR {initial:.4f} -> {final:.4f} ({reduction:.2%})")
    elif args.kind == "fairness":
        loaded = scen.load_scenario(args.scenario)
        summary = _read_artifact(args.summary, "--summary", "run", None, "final_profiles")
        if summary["scenario_hash"] != loaded.content_hash:
            raise CliError(f"--summary {args.summary} is from another scenario file", 1)
        scenario = loaded.scenario
        profiles = scenario.profile_array(
            summary["final_profiles"], f"--summary {args.summary}: final_profiles"
        )
        try:
            report = oracle.fairness_comparison(profiles, scenario)
        except ValueError as exc:
            raise CliError(f"--summary {args.summary}: final_profiles: {exc}", 1) from None
        _write_artifact(
            args.out, args, loaded.content_hash,
            consumer=list(range(1, scenario.n_consumers + 1)),
            energy_budget=report.budgets,
            instantaneous_bill=report.instantaneous_bills,
            total_load_bill=report.total_load_bills,
            consumer_par=report.consumer_par,
        )
        print(f"fairness table for {scenario.n_consumers} consumers written")
    elif args.kind == "welfare-gap":
        summary = _read_artifact(args.summary, "--summary", "run", None, "total_cost")
        optimum = _read_artifact(args.oracle, "--oracle", "oracle", "welfare", "total_cost")
        if optimum["scenario_hash"] != summary["scenario_hash"]:
            raise CliError(f"--oracle {args.oracle} is from another scenario file", 1)
        ne_cost = _number(summary, "--summary", args.summary, "total_cost")
        opt_cost = _number(optimum, "--oracle", args.oracle, "total_cost", positive=True)
        gap = (ne_cost - opt_cost) / opt_cost
        _write_artifact(
            args.out, args, summary["scenario_hash"],
            ne_total_cost=ne_cost, optimal_total_cost=opt_cost, relative_gap=gap,
        )
        print(f"welfare gap {gap:.4%}")
    else:  # convergence
        wanted = _consumer_ids(args.consumers) if args.consumers else None
        rows = _read_costs(args.trace, wanted)
        if wanted:
            missing = sorted(wanted - {int(n) for _, n, _ in rows})
            if missing:
                raise CliError(
                    f"--consumers {','.join(map(str, missing))} never appear in "
                    f"the n column of {args.trace}",
                    1,
                )
        with open_output(args.out, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "n", "cost"])
            writer.writerows(rows)
        print(f"convergence series with {len(rows)} rows written")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsmgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a scenario file")
    p.add_argument("--n", type=int, default=50, help="number of consumers")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jitter", type=float, default=0.1)
    p.add_output("-o", "--out", help="output scenario JSON")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one of the solvers on a scenario")
    p.add_argument("scenario", help="scenario JSON produced by generate")
    p.add_argument("--alg", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=algorithms.DEFAULT_THETA)
    p.add_argument(
        "--step-exponent", type=float, default=algorithms.DEFAULT_EXPONENT
    )
    p.add_argument("--tau", type=float, default=algorithms.DEFAULT_TAU)
    p.add_argument("--tol", type=float, default=algorithms.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--max-events", type=int, default=5000)
    p.add_argument("--graph", help="edge-list file for algorithms 2/3")
    p.add_argument("--topology", choices=("random",), help="generate a topology")
    p.add_argument("--degree", type=float, default=3.0)
    p.add_output("--trace", help="output trace CSV")
    p.add_output("--summary", help="output summary JSON")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="run a ground-truth solver")
    p.add_argument("scenario")
    p.add_argument("--kind", choices=("nash", "welfare"), required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_output("-o", "--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="derive report data from run artifacts")
    p.add_argument(
        "--kind", choices=("par", "fairness", "welfare-gap", "convergence"),
        required=True,
    )
    p.add_argument("--scenario", help="scenario JSON (fairness)")
    p.add_argument("--summary", help="run summary JSON (par/fairness/welfare-gap)")
    p.add_argument("--oracle", help="welfare oracle JSON (welfare-gap)")
    p.add_argument("--trace", help="trace CSV (convergence)")
    p.add_argument("--consumers", help="comma-separated 1-based ids (convergence)")
    p.add_output("-o", "--out")
    p.set_defaults(func=cmd_report)
    parser.outputs_of = {name: p.outputs for name, p in sub.choices.items()}
    return parser


_REQUIRED_INPUTS = {
    "par": ("summary",),
    "fairness": ("scenario", "summary"),
    "welfare-gap": ("summary", "oracle"),
    "convergence": ("trace",),
}


def _check_output_dirs(outputs, args) -> None:
    # refused before any input is read, so that a typo in an output path
    # does not cost a whole solve before the write fails
    for flag, name in outputs:
        path = getattr(args, name)
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            what = "is not a directory" if os.path.exists(parent) else "does not exist"
            raise CliError(f"{flag} {path}: the directory {parent} {what}", 1)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # -h/--help printed the help; return argparse's status
            return exc.code
        if args.command == "report":
            missing = [
                f"--{name}"
                for name in _REQUIRED_INPUTS[args.kind]
                if getattr(args, name) is None
            ]
            if missing:
                raise CliError(
                    f"report --kind {args.kind} needs {', '.join(missing)}", 1
                )
        _check_output_dirs(parser.outputs_of[args.command], args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except oracle.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
