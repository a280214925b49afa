"""Sweep the injection rate on a one-way line and compare measured phase
behaviour against the closed-form worst-case bounds.

For each rate the script runs the phased strategy against a saturating
source, then prints the worst observed phase duration next to the
analytical per-phase cap d/(1-r), the worst packet system time next to
2d/(1-r), and the growth label of the duration series.
"""

from __future__ import annotations

import argparse

from aqsim.adversary import as_rate, saturating_adversary
from aqsim.analysis import classify_growth, line_delivery_bound, line_phase_time_limit
from aqsim.interval_strategy import run_interval
from aqsim.network import line_network, path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=4, help="line length d")
    parser.add_argument("--b", type=int, default=4, help="adversary burst")
    parser.add_argument("--phases", type=int, default=30, help="phases per rate")
    parser.add_argument(
        "--rates", default="1/10,1/4,1/2,2/3,4/5,9/10",
        help="comma-separated rates, fractions or decimals",
    )
    parser.add_argument("--discipline", default="FIFO")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    net = line_network(args.edges)
    full = path(*[f"e{i}" for i in range(1, args.edges + 1)])

    print(f"{'r':>6} {'worst dur':>10} {'cap d/(1-r)':>12} "
          f"{'worst sys':>10} {'cap 2d/(1-r)':>13}  growth")
    for token in args.rates.split(","):
        r = as_rate(token)
        adv = saturating_adversary(net, full, r, args.b)
        trace, records = run_interval(
            net, args.discipline, adv,
            max_steps=2_000_000, max_phases=args.phases,
        )
        durations = [rec.duration_steps for rec in records if rec.phase_index >= 1]
        worst_dur = max(durations)
        worst_sys = trace.max_system_time
        dur_cap = line_phase_time_limit(float(r), args.edges)
        sys_cap = line_delivery_bound(float(r), args.edges)
        label = (classify_growth(durations).label
                 if len(durations) >= 10 else "n/a")
        flag = "" if worst_dur <= max(dur_cap, args.b + args.edges) else "  <-- over cap!"
        print(f"{str(r):>6} {worst_dur:>10} {dur_cap:>12.2f} "
              f"{worst_sys:>10} {sys_cap:>13.2f}  {label}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
