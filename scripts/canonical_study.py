#!/usr/bin/env python3
"""The paper's canonical study, run through `dsmgame.cli.main`.

Inside --outdir, with relative paths, it runs `generate --n N --seed 7`;
`run` for algorithms 1-3 with `--tol 1e-4 --max-iter 500 --max-events K
--topology random --degree 3 --seed 0`; the welfare oracle; and the four
`report` kinds on algorithm 1's outputs. It prints the headline numbers,
read back from those files, to stderr, and one JSON object of the files'
sha256 digests to stdout. Summaries and reports echo the paths as typed, so
their digests hold only for these relative names. The defaults are the
paper's study (N = 50, K = 5000).

Usage:
    python scripts/canonical_study.py --outdir DIR [--n N --max-events K]
"""

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from dsmgame import cli  # noqa: E402

ALGS = (1, 2, 3)


def run_cli(*argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"dsmgame {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def load(name: str) -> dict:
    return json.loads(Path(name).read_text(encoding="utf-8"))


def headline() -> None:
    say = functools.partial(print, file=sys.stderr)
    ratio, gap = load("par.json"), load("gap.json")
    with open("costs.csv", newline="", encoding="utf-8") as fh:
        cost0 = sum(float(row["cost"]) for row in csv.DictReader(fh) if row["t"] == "1")
    say(f"initial state: PAR {ratio['initial_par']:.4f}, cost {cost0:.4f}")
    say(f"PAR {ratio['initial_par']:.4f} -> {ratio['final_par']:.4f} at alg 1's end "
        f"({ratio['relative_reduction']:.2%} lower)")
    runs = {k: load(f"summary{k}.json") for k in ALGS}
    for k, run in runs.items():
        verdict = "converged" if run["converged"] else "not converged"
        say(f"alg {k}: {verdict} after {run['iterations']} iterations, "
            f"cost {run['total_cost']:.4f}, "
            f"fixed_point_residual {run['fixed_point_residual']:.2e}")
    say(f"welfare optimum {gap['optimal_total_cost']:.4f}, "
        f"alg 1 gap {gap['relative_gap']:.2e}")
    profiles = {k: np.array(run["final_profiles"]) for k, run in runs.items()}
    for a, b in ((1, 2), (1, 3), (2, 3)):
        diff = profiles[a] - profiles[b]
        say(f"alg {a} vs {b}: aggregates within {np.abs(diff.sum(axis=0)).max():.1e}, "
            f"profiles within {np.abs(diff).max():.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--max-events", type=int, default=5000)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)

    run_cli("generate", "--n", str(args.n), "--seed", "7", "-o", "scenario.json")
    artifacts = ["scenario.json"]
    for k in ALGS:
        run_cli("run", "scenario.json", "--alg", str(k), "--tol", "1e-4",
                "--max-iter", "500", "--max-events", str(args.max_events),
                "--topology", "random", "--degree", "3", "--seed", "0",
                "--trace", f"trace{k}.csv", "--summary", f"summary{k}.json")
        artifacts += [f"trace{k}.csv", f"summary{k}.json"]
    run_cli("oracle", "scenario.json", "--kind", "welfare", "-o", "welfare.json")
    run_cli("report", "--kind", "par", "--summary", "summary1.json", "-o", "par.json")
    run_cli("report", "--kind", "fairness", "--scenario", "scenario.json",
            "--summary", "summary1.json", "-o", "fairness.json")
    run_cli("report", "--kind", "welfare-gap", "--summary", "summary1.json",
            "--oracle", "welfare.json", "-o", "gap.json")
    run_cli("report", "--kind", "convergence", "--trace", "trace1.csv", "-o", "costs.csv")
    artifacts += ["welfare.json", "par.json", "fairness.json", "gap.json", "costs.csv"]

    headline()
    print(json.dumps(
        {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in artifacts},
        indent=2,
    ))


if __name__ == "__main__":
    main()
