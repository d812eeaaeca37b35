"""The benchmark's three workloads: their set-up, their ops and the output
checks on every op.

Instances are fixed (the paper's generator seed 7; the oracle cross-check's
games 1..10), so every seed solves the same game. The workload seed drives
the solver-side randomness: the random topology and the gossip event stream
(`dsmgame run --seed`), and in `small-games` the initial points too. Seed 0
is the paper's run seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import signal
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

import dsmgame.algorithms as algorithms
import dsmgame.cli as cli
import dsmgame.network as network
import dsmgame.oracle as oracle
import dsmgame.scenario as scen
from dsmgame.feasible import ConsumerSpec, sample_feasible
from dsmgame.model import PriceCurve

from tracer import replace_everywhere

GENERATOR_SEED = 7
#: acceptance-suite tolerances (tests/test_acceptance.py)
FEASIBILITY_TOL = 1e-8
ORACLE_AGREEMENT_TOL = 1e-3
WELFARE_GAP_RANGE = (-1e-9, 0.05)
BILL_SUM_TOL = 1e-10


#: how often the host-speed reference runs while an op runs untraced, in
#: seconds, and its time on the nominal host
REF_EVERY_S = 0.25
REF_NOMINAL_S = 5e-3
#: reference samples in the rolling median that gives the local speed
REF_WINDOW = 5
_REF_ARRAY = np.linspace(0.0, 1.0, 48)


def reference_kernel() -> float:
    """A fixed mix of interpreter work and small-array numpy calls, like the
    solvers' inner loops; no program code, so a change to the program never
    moves it."""
    acc = 0.0
    for i in range(500):
        x = np.clip(_REF_ARRAY * (i % 7), 0.2, 0.8)
        acc += float(x.sum()) + i * 0.5
    return acc


class RunnerProbe:
    """Stamps the clock while an op runs: when each solver call starts and
    ends, each time a runner records a state (once per iteration or event)
    and wherever an op marks a step of its own. Every execution of an op
    makes the same marks, so the time between two marks is one segment of
    the same work in every execution. It costs one clock read per mark, so
    untraced rounds keep it.

    The shared host's speed changes by up to 2x within seconds, so while an
    untraced op runs, a timer signal runs `reference_kernel` every
    REF_EVERY_S, wherever the op is. Its time is left out of the probe's
    clock, and `scaled` turns segments into nominal-host time: clock time
    times REF_NOMINAL_S over the reference's rolling median at that time."""

    def __init__(self):
        self.marks: list[float] = []
        self.calls: list[dict] = []
        self.skipped = 0.0  # clock time spent in the reference so far
        self.ref_at: list[float] = []  # probe clock at each reference run
        self.ref_s: list[float] = []
        self._in_reference = False

    def clock(self) -> float:
        return time.perf_counter() - self.skipped

    def reference(self, *_signal) -> None:
        if self._in_reference:
            return
        self._in_reference = True
        t0 = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - t0
        self.ref_at.append(t0 - self.skipped)
        self.ref_s.append(took)
        self.skipped += took
        self._in_reference = False

    def start(self, sampling: bool) -> None:
        self.calls = []
        if sampling:
            self.reference()
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        self.marks = [self.clock()]

    def mark(self) -> None:
        self.marks.append(self.clock())

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.mark()

    def scaled(self, marks: np.ndarray) -> np.ndarray:
        """The segments between `marks` (probe clock) in nominal-host time.
        The speed is taken as constant from halfway after one reference run
        to halfway before the next, at the rolling median of REF_WINDOW
        runs; a segment's nominal time is its clock time integrated over
        that speed."""
        at = np.asarray(self.ref_at)
        ref = np.asarray(self.ref_s)
        half = REF_WINDOW // 2
        local = np.array([np.median(ref[max(0, k - half):k + half + 1]) for k in range(len(ref))])
        edges = np.concatenate((
            [min(at[0], marks[0]) - 1.0],
            0.5 * (at[1:] + at[:-1]),
            [max(at[-1], marks[-1]) + 1.0],
        ))
        nominal = np.concatenate(([0.0], np.cumsum(np.diff(edges) * REF_NOMINAL_S / local)))
        return np.diff(np.interp(marks, edges, nominal))

    def _wrap(self, fn):
        def probed(*args, **kwargs):
            first = len(self.marks)
            self.mark()
            try:
                result, trace = fn(*args, **kwargs)
            except Exception as exc:
                self.mark()
                self.calls.append({
                    "runner_s": self.marks[-1] - self.marks[first],
                    "exc_type": type(exc).__name__,
                    "segments": (first, len(self.marks) - 1),
                })
                raise
            self.mark()
            self.calls.append({
                "runner_s": self.marks[-1] - self.marks[first],
                "iterations": result.iterations,
                # the op's segments[first:last] are this call's
                "segments": (first, len(self.marks) - 1),
            })
            return result, trace

        return probed

    def install(self) -> None:
        for k in (1, 2, 3):
            name = f"run_algorithm{k}"
            replace_everywhere(algorithms, name, self._wrap(getattr(algorithms, name)))
        record = algorithms.RunTrace.record
        mark = self.mark

        def stamped(trace, *args, **kwargs):
            mark()
            return record(trace, *args, **kwargs)

        replace_everywhere(algorithms.RunTrace, "record", stamped)
        signal.signal(signal.SIGALRM, self.reference)


def cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def digest(output: Path | bytes) -> str:
    """SHA-256 of an output file, or of an array's bytes."""
    sha = hashlib.sha256()
    if isinstance(output, bytes):
        sha.update(output)
        return sha.hexdigest()
    with open(output, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


@dataclass
class Op:
    """One unit of user-visible work. `run` returns an outcome dict with
    `exit_code`, `stderr` and `outputs` (files or array bytes that a repeat
    must reproduce byte for byte), and for an op over a batch of games the
    `game_failures` of games whose solver raised; `check` returns the list
    of failed checks."""

    name: str
    family: str | None  # end-to-end metric family: alg1/alg2/alg3/oracle
    run: Callable[[], dict]
    check: Callable[[dict], list[str]] = lambda outcome: []
    algorithm: int | None = None
    repeat: int = 1  # executions per round


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    probe: RunnerProbe
    smoke: bool = False
    state: dict = field(default_factory=dict)
    setup_runs: ClassVar[int] = 5
    #: untraced rounds of the ops per run at least; with the repeats they
    #: give every run the same samples, so that runs compare
    rounds: ClassVar[int] = 1
    #: whether all of an op's work runs inside module spans, so that the
    #: traced run can check the spans cover its wall time
    ops_in_spans: ClassVar[bool] = True

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def known_failures(self) -> list[Op]:
        return []


def _profiles_feasible(profiles: np.ndarray, scenario: algorithms.Scenario) -> list[str]:
    worst = max(
        float(np.max(scenario.q_min_matrix - profiles, initial=0.0)),
        float(np.max(profiles - scenario.q_max_matrix, initial=0.0)),
        float(np.max(np.abs(profiles.sum(axis=1) - scenario.budgets))),
    )
    if worst > FEASIBILITY_TOL:
        return [f"final profiles violate bounds or budget by {worst:.3e}"]
    return []


class CliWorkload(Workload):
    """A scenario generated and solved through `dsmgame.cli.main`."""

    n_consumers = 50

    def setup(self) -> None:
        scn = self.workdir / "scenario.json"
        code, err = cli_call(
            ["generate", "--n", str(self.n_consumers), "--seed", str(GENERATOR_SEED), "-o", str(scn)]
        )
        if code != 0:
            raise RuntimeError(f"generate exited {code}: {err.strip()}")
        loaded = scen.load_scenario(scn)
        # `dsmgame run` builds its own graph, so this one only times the
        # topology and weights a user's set-up pays before the first solve
        graph = network.generate_topology(
            self.n_consumers, 3.0, np.random.default_rng(self.seed)
        )
        weights = network.build_weights(graph, algorithms.DEFAULT_TAU)
        # kept, so that freeing them falls outside the timed set-up
        self.state.update(
            scenario_path=scn, scenario=loaded.scenario, graph=graph, weights=weights
        )

    def run_op(
        self, name: str, alg: int, flags: list[str], family: str | None, repeat: int = 1
    ) -> Op:
        trace = self.workdir / f"{name}.trace.csv"
        summary = self.workdir / f"{name}.summary.json"
        argv = [
            "run", str(self.state["scenario_path"]), "--alg", str(alg),
            "--topology", "random", "--degree", "3", "--seed", str(self.seed),
            "--trace", str(trace), "--summary", str(summary), *flags,
        ]

        def run() -> dict:
            code, err = cli_call(argv)
            outcome = {"exit_code": code, "stderr": err}
            if code == 0:
                outcome["outputs"] = (trace, summary)
                outcome["summary"] = summary
            return outcome

        def check(outcome: dict) -> list[str]:
            with open(outcome["summary"], encoding="utf-8") as fh:
                final = np.array(json.load(fh)["final_profiles"])
            return _profiles_feasible(final, self.state["scenario"])

        return Op(name, family, run, check, algorithm=alg, repeat=repeat)


class Canonical(CliWorkload):
    """The paper's desk-scale study: N=50 solved to tol 1e-4."""

    setup_runs = 9

    def ops(self) -> list[Op]:
        events = "300" if self.smoke else "5000"
        flags = ["--tol", "1e-4", "--max-iter", "500", "--max-events", events]
        runs = [
            self.run_op(f"alg{k}", k, flags, f"alg{k}", repeat=4 if k < 3 else 1)
            for k in (1, 2, 3)
        ]
        welfare = self.workdir / "welfare.json"
        gap = self.workdir / "gap.json"
        scn = str(self.state["scenario_path"])
        alg1_summary = str(self.workdir / "alg1.summary.json")

        def run() -> dict:
            code, err = cli_call(["oracle", scn, "--kind", "welfare", "-o", str(welfare)])
            self.probe.mark()
            if code == 0:
                code, err = cli_call(
                    ["report", "--kind", "welfare-gap", "--summary", alg1_summary,
                     "--oracle", str(welfare), "-o", str(gap)]
                )
            outcome = {"exit_code": code, "stderr": err}
            if code == 0:
                outcome["outputs"] = (welfare, gap)
            return outcome

        def check(outcome: dict) -> list[str]:
            with open(gap, encoding="utf-8") as fh:
                rel = json.load(fh)["relative_gap"]
            lo, hi = WELFARE_GAP_RANGE
            return [] if lo <= rel <= hi else [f"welfare gap {rel:.3e} outside [{lo}, {hi}]"]

        return runs + [Op("oracle", "oracle", run, check, repeat=15)]


class Scale(CliWorkload):
    """N=2000 at fixed budgets: full-matrix costs, O(N^2) topology and
    scenario JSON I/O dominate."""

    setup_runs = 2
    rounds = 3

    @property
    def n_consumers(self) -> int:
        return 300 if self.smoke else 2000

    def ops(self) -> list[Op]:
        # alg 2 and alg 3 fail at this size (see known_failures), so their
        # timed ops stop well before the earliest failure seen on 40 seeds
        # (alg 2 in iteration 5, alg 3 at event 170)
        runs = [
            self.run_op("alg1", 1, ["--tol", "1e-4", "--max-iter", "20"], "alg1"),
            self.run_op("alg2", 2, ["--tol", "1e-4", "--max-iter", "3"], "alg2"),
            self.run_op("alg3", 3, ["--tol", "1e-4", "--max-events", "20"], "alg3"),
        ]
        fairness = self.workdir / "fairness.json"
        scn = str(self.state["scenario_path"])
        alg1_summary = self.workdir / "alg1.summary.json"

        def run() -> dict:
            code, err = cli_call(
                ["report", "--kind", "fairness", "--scenario", scn,
                 "--summary", str(alg1_summary), "-o", str(fairness)]
            )
            outcome = {"exit_code": code, "stderr": err}
            if code == 0:
                outcome["outputs"] = (fairness,)
            return outcome

        def check(outcome: dict) -> list[str]:
            with open(fairness, encoding="utf-8") as fh:
                table = json.load(fh)
            with open(alg1_summary, encoding="utf-8") as fh:
                cost = json.load(fh)["total_cost"]
            inst = sum(table["instantaneous_bill"])
            total = sum(table["total_load_bill"])
            # both bill columns sum to the grid cost; the suite's absolute
            # 1e-10 is taken relative to a cost above 1
            tol = BILL_SUM_TOL * max(1.0, abs(cost))
            if abs(inst - total) > tol or abs(inst - cost) > tol:
                return [f"bill sums {inst!r}, {total!r} differ from grid cost {cost!r}"]
            return []

        return runs + [Op("oracle", "oracle", run, check, repeat=2)]

    def known_failures(self) -> list[Op]:
        # the issue-sized alg 2 and alg 3 runs, which fail at the seed with
        # "loads must be nonnegative"; run once per invocation, untimed
        return [
            self.run_op("alg2-max-iter-20", 2, ["--tol", "1e-4", "--max-iter", "20"], None),
            self.run_op("alg3-max-events-700", 3, ["--tol", "1e-4", "--max-events", "700"], None),
        ]


def random_game(game_seed: int, init_rng: np.random.Generator):
    """A small game drawn as in scripts/oracle_check.py; only the initial
    point comes from `init_rng`."""
    rng = np.random.default_rng(game_seed)
    n = int(rng.integers(2, 5))
    h = int(rng.integers(2, 4))
    curve = PriceCurve(
        rng.uniform(1.0, 2.2, h), rng.choice([1.0, 1.2], h), rng.uniform(0, 0.1, h)
    )
    specs = []
    for _ in range(n):
        q_min = rng.uniform(0.3, 0.8, h)
        q_max = q_min + rng.uniform(1.0, 2.0, h)
        energy = float(q_min.sum() + rng.uniform(0.35, 0.65) * (q_max - q_min).sum())
        specs.append(ConsumerSpec(q_min, q_max, energy))
    scenario = algorithms.Scenario(tuple(specs), curve)
    init = np.vstack([sample_feasible(s, init_rng) for s in specs])
    return scenario, init


class SmallGames(Workload):
    """The library-level oracle cross-check on a battery of tiny games."""

    # games are drawn and looped over in benchmark code, outside the spans
    ops_in_spans = False

    setup_runs = 15

    def setup(self) -> None:
        games = []
        for game_seed in range(1, 3 if self.smoke else 11):
            rng = np.random.default_rng((self.seed, game_seed))
            scenario, init = random_game(game_seed, rng)
            n = scenario.n_consumers
            graph = network.CommGraph(
                n, frozenset((a, b) for a in range(n) for b in range(a + 1, n))
            )
            weights = network.build_weights(graph, 0.5)
            games.append((game_seed, scenario, init, graph, weights))
        self.state["games"] = games

    def ops(self) -> list[Op]:
        games = self.state["games"]
        events = 300 if self.smoke else 2500
        nash: dict[int, np.ndarray] = {}

        def run_nash() -> dict:
            for game_seed, scenario, *_ in games:
                nash[game_seed] = oracle.nash_best_response_iteration(scenario, tol=1e-7)
                self.probe.mark()  # one segment per game
            return {"exit_code": 0, "outputs": tuple(p.tobytes() for p in nash.values())}

        def check_nash(outcome: dict) -> list[str]:
            failed = []
            for game_seed, scenario, *_ in games:
                failed += [f"game {game_seed}: {m}" for m in _profiles_feasible(nash[game_seed], scenario)]
            return failed

        def solve(alg: int, game) -> tuple:
            game_seed, scenario, init, graph, weights = game
            if alg == 1:
                return algorithms.run_algorithm1(scenario, init=init, tol=1e-7, max_iter=4000)
            if alg == 2:
                return algorithms.run_algorithm2(
                    scenario, graph, weights, init=init, tol=1e-7, max_iter=4000
                )
            stream = network.gossip_stream(
                graph, np.random.default_rng((self.seed, game_seed, 3)), events
            )
            return algorithms.run_algorithm3(
                scenario, graph, stream, init=init, tol=1e-6, max_events=events
            )

        def alg_op(alg: int) -> Op:
            def run() -> dict:
                # a game whose solver raises is a failure of its own; the
                # other games still run, check and count towards the times
                solved, game_failures = [], []
                for game in games:
                    try:
                        result, _ = solve(alg, game)
                    except Exception as exc:
                        game_failures.append({
                            "game": game[0],
                            "exc_type": type(exc).__name__,
                            "stderr": f"{type(exc).__name__}: {exc}",
                        })
                        continue
                    solved.append((game, result.final_profiles, result.converged))
                return {
                    "exit_code": 0,
                    "solved": solved,
                    "game_failures": game_failures,
                    "outputs": tuple(final.tobytes() for _, final, _ in solved),
                }

            def check(outcome: dict) -> list[str]:
                failed = []
                for (game_seed, scenario, *_), final, conv in outcome["solved"]:
                    failed += [f"game {game_seed}: {m}" for m in _profiles_feasible(final, scenario)]
                    if alg == 3:
                        continue
                    if not conv:
                        failed.append(f"game {game_seed}: alg {alg} did not converge")
                    elif game_seed not in nash:
                        failed.append(f"game {game_seed}: no oracle result to compare")
                    else:
                        dev = float(np.max(np.abs(final - nash[game_seed])))
                        if dev > ORACLE_AGREEMENT_TOL:
                            failed.append(f"game {game_seed}: alg {alg} is {dev:.2e} from the oracle")
                return failed

            repeat = 6 if alg < 3 else 1
            return Op(f"alg{alg}", f"alg{alg}", run, check, algorithm=alg, repeat=repeat)

        return [Op("oracle", "oracle", run_nash, check_nash)] + [alg_op(k) for k in (1, 2, 3)]


WORKLOADS = {"canonical-n50": Canonical, "scale-n2000": Scale, "small-games": SmallGames}
