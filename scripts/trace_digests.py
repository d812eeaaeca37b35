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

Usage:
    python scripts/trace_digests.py [--n N ...]
"""

import argparse
import hashlib
import json
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
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        out[name] = digest.hexdigest()
        path.unlink()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[50], choices=sorted(BUDGETS))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        result = {str(n): digests(n, Path(tmp)) for n in args.n}
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
