#!/usr/bin/env python3
"""SHA-256 digests of the canonical CLI artifacts.

Runs, through `dsmgame.cli.main` and inside DIR with relative paths:

    generate --n N --seed 7 -o scenario.json
    run scenario.json --alg k --tol 1e-4 --max-iter 500 --max-events K
        --topology random --degree 3 --seed 0
        --trace tracek.csv --summary summaryk.json        (k = 1, 2, 3)
    oracle scenario.json --kind welfare -o welfare.json

and prints one JSON object mapping each artifact's file name to its sha256.
The summaries echo the paths as typed, so their digests hold only for these
relative names. Defaults are the paper's canonical study (N = 50, K = 5000).

Usage:
    python scripts/artifact_digests.py --outdir DIR [--n N --max-events K]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from dsmgame import cli  # noqa: E402


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"dsmgame {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--max-events", type=int, default=5000)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)

    commands = [["generate", "--n", str(args.n), "--seed", "7", "-o", "scenario.json"]]
    artifacts = ["scenario.json"]
    for k in (1, 2, 3):
        commands.append([
            "run", "scenario.json", "--alg", str(k), "--tol", "1e-4",
            "--max-iter", "500", "--max-events", str(args.max_events),
            "--topology", "random", "--degree", "3", "--seed", "0",
            "--trace", f"trace{k}.csv", "--summary", f"summary{k}.json",
        ])
        artifacts += [f"trace{k}.csv", f"summary{k}.json"]
    commands.append(["oracle", "scenario.json", "--kind", "welfare", "-o", "welfare.json"])
    artifacts.append("welfare.json")

    for argv in commands:
        run_cli(argv)
    print(json.dumps({name: sha256(Path(name)) for name in artifacts}, indent=2))


if __name__ == "__main__":
    main()
