"""Measure what the idle-edge pass-through buys a packet whose route never
touches the busy part of the network.

A burst keeps a main rail busy for one long phase while a single side packet
wants a disjoint chain of edges. Without pass-through it must wait for the
next phase; with pass-through it walks one idle edge per step. The script
prints the side packet's system time in both modes as the chain grows.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from aqsim.adversary import InjectionEvent, scripted_adversary
from aqsim.interval_strategy import run_interval
from aqsim.network import build_network, path


def rails_network(rail_edges: int, side_edges: int):
    nodes = [f"v{i}" for i in range(rail_edges + 1)]
    nodes += [f"u{i}" for i in range(side_edges + 1)]
    edges = [(f"v{i}", f"v{i + 1}", f"e{i + 1}") for i in range(rail_edges)]
    edges += [(f"u{i}", f"u{i + 1}", f"f{i + 1}") for i in range(side_edges)]
    return build_network(nodes, edges)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rail-edges", type=int, default=4, dest="rail_edges")
    parser.add_argument("--burst", type=int, default=8, help="packets in the busy phase")
    parser.add_argument("--max-side", type=int, default=6, dest="max_side",
                        help="largest side-chain length to try")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rail = path(*[f"e{i}" for i in range(1, args.rail_edges + 1)])

    print(f"busy rail: {args.burst} packets over {args.rail_edges} edges")
    print(f"{'side edges':>10} {'off':>5} {'on':>4} {'speedup':>8}")
    for side in range(1, args.max_side + 1):
        net = rails_network(args.rail_edges, side)
        side_path = path(*[f"f{i}" for i in range(1, side + 1)])
        events = [InjectionEvent(1, rail)] * args.burst
        events.append(InjectionEvent(2, side_path))
        # a script keeps no run state, so both runs replay the same one
        adv = scripted_adversary(events, Fraction(1, 2), args.burst, net)

        max_steps = (args.burst + args.rail_edges + side) * 4
        trace_off, _ = run_interval(net, "FIFO", adv, max_steps)
        trace_on, _ = run_interval(net, "FIFO", adv, max_steps, improvement_on=True)
        off = next(p for p in trace_off.packets if p.path == side_path.edges).system_time
        on = next(p for p in trace_on.packets if p.path == side_path.edges).system_time
        print(f"{side:>10} {off:>5} {on:>4} {off / on:>7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
