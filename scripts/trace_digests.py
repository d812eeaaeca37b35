#!/usr/bin/env python3
"""sha256 digests of the algorithm 1-3 trace CSVs on the generated game.

For each N it builds `generate(N, seed=7)`, the random topology
`generate_topology(N, 3.0, default_rng(0))` with `build_weights(g, 0.5)`,
and a stream of `gossip_stream(g, default_rng(1), E)` events. It runs the
three algorithms at tol 1e-4 for the budgets in `BUDGETS` (R rounds for
algorithms 1 and 2, E events for algorithm 3), writes each trace with
`RunTrace.to_csv` into a temporary directory and hashes it. It prints one
JSON object, keyed by N and then by algorithm, to stdout. Two checkouts
that print the same object wrote the same trace bytes.

With `--cli` it runs the commands instead, through `dsmgame.cli.main`:
`generate --n N --seed 7` and, on that file, `run --alg A --topology
random --degree 3 --seed 0 --tol 1e-4` for the same budgets, and prints
the digests of the scenario file and of each run's trace and summary.
The commands run in the temporary directory on relative paths, which the
summary records, so the digests do not depend on where it is.

Usage:
    python scripts/trace_digests.py [--n N ...] [--cli]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from dsmgame import (  # noqa: E402
    build_weights,
    generate,
    generate_topology,
    gossip_stream,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
)
from dsmgame.cli import main as cli_main  # noqa: E402

#: N -> (rounds of algorithms 1 and 2, events of algorithm 3)
BUDGETS = {50: (500, 5000), 500: (200, 2000), 2000: (40, 700)}
TOL = 1e-4


def digests(n: int, outdir: Path) -> dict:
    rounds, events = BUDGETS[n]
    scenario, init = generate(n, seed=7)
    graph = generate_topology(n, 3.0, np.random.default_rng(0))
    weights = build_weights(graph, 0.5)
    runs = {
        "alg1": lambda: run_algorithm1(scenario, init=init, tol=TOL, max_iter=rounds),
        "alg2": lambda: run_algorithm2(
            scenario, graph, weights, init=init, tol=TOL, max_iter=rounds
        ),
        "alg3": lambda: run_algorithm3(
            scenario, graph, gossip_stream(graph, np.random.default_rng(1), events),
            init=init, tol=TOL, max_events=events,
        ),
    }
    out = {}
    path = outdir / "trace.csv"
    for name, run in runs.items():
        _, trace = run()
        trace.to_csv(path)
        out[name] = file_digest(path)
        path.unlink()
    return out


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cli_digests(n: int, outdir: Path) -> dict:
    rounds, events = BUDGETS[n]
    budget = {1: ["--max-iter", str(rounds)], 2: ["--max-iter", str(rounds)],
              3: ["--max-events", str(events)]}
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        commands = {"scenario": ["generate", "--n", str(n), "--seed", "7", "-o", "scenario.json"]}
        for alg in (1, 2, 3):
            commands[f"alg{alg}"] = [
                "run", "scenario.json", "--alg", str(alg), "--topology", "random",
                "--degree", "3", "--seed", "0", "--tol", str(TOL), *budget[alg],
                "--trace", "trace.csv", "--summary", "summary.json",
            ]
        out = {}
        for name, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"dsmgame {' '.join(argv)} exited {code}")
            if name == "scenario":
                out[name] = file_digest("scenario.json")
            else:
                out[name] = {"trace": file_digest("trace.csv"),
                             "summary": file_digest("summary.json")}
        return out
    finally:
        os.chdir(cwd)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[50], choices=sorted(BUDGETS))
    ap.add_argument("--cli", action="store_true", help="run the commands through cli.main")
    args = ap.parse_args()
    run = cli_digests if args.cli else digests
    with tempfile.TemporaryDirectory() as tmp:
        result = {str(n): run(n, Path(tmp)) for n in args.n}
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
