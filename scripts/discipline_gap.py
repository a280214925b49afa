"""How far does each greedy queueing discipline land from the brute-force
optimal makespan on small static instances?

Enumerates every instance up to the given size, solves each exactly, runs
every discipline greedily, and prints per-discipline statistics: how often
the greedy schedule is optimal, the mean relative gap, and the single worst
instance encountered. Instances that repeat a path pattern under other edge
names (`relabel`) reuse its optimum and makespans.
"""

from __future__ import annotations

import argparse

from aqsim.static_routing import (
    bruteforce_optimal_makespan,
    enumerate_instances,
    greedy_schedule,
    make_instance,
    relabel,
)
from aqsim.strategies import DISCIPLINES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-packets", type=int, default=3, dest="max_packets")
    parser.add_argument("--max-edges", type=int, default=3, dest="max_edges")
    parser.add_argument(
        "--shapes", default="line,tree", help="comma-separated subset of: line, tree"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shapes = tuple(s.strip() for s in args.shapes.split(",") if s.strip())

    names = sorted(DISCIPLINES)
    hits = {name: 0 for name in names}
    gap_sum = {name: 0.0 for name in names}
    worst = {name: (0.0, None, 0, 0) for name in names}  # (gap, paths, greedy, opt)
    count = 0

    solved = {}  # pattern -> (optimal, makespan per discipline)
    memo = {}  # solved oracle states, shared by every pattern of this run
    for network, paths in enumerate_instances(args.max_packets, args.max_edges, shapes):
        key = relabel(paths)
        if key not in solved:
            inst = make_instance(network, paths)
            makespans = {name: greedy_schedule(inst, name) for name in names}
            # the least greedy makespan is feasible, so with it as the cap the
            # search returns an optimum no larger than it, never None
            optimal = bruteforce_optimal_makespan(inst, min(makespans.values()), memo=memo)
            solved[key] = optimal, makespans
        optimal, makespans = solved[key]
        count += 1
        for name in names:
            makespan = makespans[name]
            gap = (makespan - optimal) / optimal
            gap_sum[name] += gap
            if makespan == optimal:
                hits[name] += 1
            if gap > worst[name][0]:
                worst[name] = (gap, [p.edges for p in paths], makespan, optimal)

    print(f"{count} instances (max {args.max_packets} packets, "
          f"{args.max_edges} edges, shapes: {','.join(shapes)})\n")
    print(f"{'discipline':>10} {'optimal %':>10} {'mean gap %':>11}  worst case")
    for name in names:
        share = 100.0 * hits[name] / count
        mean_gap = 100.0 * gap_sum[name] / count
        gap, paths, makespan, optimal = worst[name]
        detail = ("-" if paths is None
                  else f"{makespan} vs {optimal} on {paths}")
        print(f"{name:>10} {share:>9.1f}% {mean_gap:>10.2f}%  {detail}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
