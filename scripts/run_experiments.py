#!/usr/bin/env python3
"""Desk-scale demand-side-management study: generate the canonical 50-consumer
scenario, compute the equilibrium with all three algorithms, and write the
peak-shaving, fairness, convergence, and welfare-gap artifacts.

Usage:
    python scripts/run_experiments.py --seed 7 --outdir results
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dsmgame.algorithms import run_algorithm1, run_algorithm2, run_algorithm3
from dsmgame.model import aggregate, grid_cost, par
from dsmgame.network import build_weights, generate_topology, gossip_stream, save_edge_list
from dsmgame.oracle import fairness_comparison, social_welfare_optimum
from dsmgame.scenario import generate, save_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--events", type=int, default=5000)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    scenario, init = generate(n_consumers=args.n, seed=args.seed)
    save_scenario(args.outdir / "scenario.json", scenario, init)
    graph = generate_topology(scenario.n_consumers, 3.0, np.random.default_rng(0))
    save_edge_list(graph, args.outdir / "graph.edges")
    weights = build_weights(graph, 0.5)

    print(f"scenario: N={scenario.n_consumers}, H={scenario.horizon}, "
          f"certificate holds: {scenario.uniqueness_verified}")
    par_before = par(aggregate(init))
    cost_before = grid_cost(aggregate(init), scenario.curve)
    print(f"before scheduling: PAR {par_before:.4f}, total cost {cost_before:.4f}")

    runs = {}
    r1, t1 = run_algorithm1(scenario, init=init, tol=1e-4, max_iter=500)
    runs["alg1"] = (r1, t1)
    r2, t2 = run_algorithm2(scenario, graph, weights, init=init, tol=1e-4, max_iter=500)
    runs["alg2"] = (r2, t2)
    stream = gossip_stream(graph, np.random.default_rng(100), args.events)
    r3, t3 = run_algorithm3(scenario, graph, stream, init=init, tol=1e-4,
                            max_events=args.events)
    runs["alg3"] = (r3, t3)

    summary = {"seed": args.seed, "par_before": par_before, "cost_before": cost_before}
    for name, (result, trace) in runs.items():
        trace.to_csv(args.outdir / f"trace_{name}.csv")
        final_par = par(aggregate(result.final_profiles))
        final_cost = grid_cost(aggregate(result.final_profiles), scenario.curve)
        summary[name] = {
            "converged": result.converged,
            "iterations": result.iterations,
            "residual": result.residual,
            "final_par": final_par,
            "final_cost": final_cost,
        }
        print(f"{name}: {'converged' if result.converged else 'budget reached'} "
              f"after {result.iterations} iterations; PAR {final_par:.4f}, "
              f"cost {final_cost:.4f}")

    ne = runs["alg1"][0].final_profiles
    table = fairness_comparison(ne, scenario)
    fairness_rows = sorted(
        range(scenario.n_consumers),
        key=lambda n: table.budgets[n],
        reverse=True,
    )[:10]
    with open(args.outdir / "fairness.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "consumer": [n + 1 for n in fairness_rows],
                "energy_budget": [table.budgets[n] for n in fairness_rows],
                "instantaneous_bill": [table.instantaneous_bills[n] for n in fairness_rows],
                "total_load_bill": [table.total_load_bills[n] for n in fairness_rows],
                "consumer_par": [table.consumer_par[n] for n in fairness_rows],
            },
            fh,
            indent=2,
        )

    _, opt_cost = social_welfare_optimum(scenario, tol=1e-6)
    ne_cost = grid_cost(aggregate(ne), scenario.curve)
    summary["welfare"] = {
        "ne_cost": ne_cost,
        "optimal_cost": opt_cost,
        "relative_gap": (ne_cost - opt_cost) / opt_cost,
    }
    print(f"welfare: NE cost {ne_cost:.4f} vs optimum {opt_cost:.4f} "
          f"(gap {(ne_cost - opt_cost) / opt_cost:.4%})")
    print(f"peak shaving: PAR {par_before:.4f} -> "
          f"{summary['alg1']['final_par']:.4f} "
          f"({(par_before - summary['alg1']['final_par']) / par_before:.2%} lower)")

    with open(args.outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(f"artifacts written to {args.outdir}/")


if __name__ == "__main__":
    main()
