"""Command-line front end: run scenario files, tabulate analytical bounds,
and sweep the brute-force scheduling oracle.

Exit codes: 0 success, 2 validation/domain error, 3 broken runtime invariant
(a bound the engine must never exceed), and 130 from the console script on
an interrupt. Each command raises on a refusal, and `main` alone turns it
into an exit status and its `error:` or `fatal:` lines on stderr."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import secrets
import signal
import sys
from fractions import Fraction
from typing import Optional, Sequence

import yaml

from . import analysis
from .adversary import AdversaryError, as_rate
from .csvio import write_csv
from .interval_strategy import PhaseRecord, run_interval, write_phases_csv
from .network import as_count
from .periodic import Periodic
from .scenario import ScenarioError, load_scenario, make_adversary
from .sim_engine import (
    EngineInvariantError, check_max_steps, run, write_packets_csv, write_trace_csv,
)
from .static_routing import SweepSummary, count_instances, sweep_rows, write_sweep_csv
from .strategies import discipline_name

# each formula of `aqsim bounds` and the flags it reads beyond --r, --b, --d and --i-max
FORMULAS = {
    "line": (),
    "tree": (),
    "nonforward": ("--log-base",),
    "theorem-time": ("--c1", "--c2", "--c3"),
    "theorem-packets": ("--c1", "--c2", "--c3"),
}
SWEEP_LIMIT = 2_000_000  # instances; a larger sweep is refused before it starts
I_MAX_LIMIT = 100_000  # bounds terms; a longer series is refused before any is computed


class _Given(argparse.Action):
    """Stores the value and adds the flag to `given`, so that a formula that
    does not read it can refuse it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += (self.option_strings[0],)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqsim",
        description="Adversarial queueing simulator and worst-case bound toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file, write CSV traces")
    run_p.add_argument("scenario", help="path to a scenario YAML file")
    run_p.add_argument("--max-steps", type=int, default=None, help="override run.max_steps")
    run_p.add_argument("--strategy", default=None, help="override the discipline name")
    run_p.add_argument(
        "--improvement", choices=["on", "off"], default=None,
        help="override the pass-through improvement (interval strategy only)",
    )
    run_p.add_argument("--out", default=".", help="directory for the CSV outputs")

    bounds_p = sub.add_parser("bounds", help="tabulate an analytical bound as CSV")
    bounds_p.add_argument("formula", choices=FORMULAS)
    bounds_p.add_argument("--r", default="0.5")
    bounds_p.add_argument("--b", type=float, default=4.0)
    bounds_p.add_argument("--d", type=float, default=4.0)
    bounds_p.add_argument("--c1", type=float, default=1.0, action=_Given)
    bounds_p.add_argument("--c2", type=float, default=1.0, action=_Given)
    bounds_p.add_argument("--c3", type=float, default=0.0, action=_Given)
    bounds_p.add_argument("--i-max", type=int, default=20, dest="i_max")
    bounds_p.add_argument("--log-base", type=float, default=2.0, dest="log_base", action=_Given)
    bounds_p.set_defaults(given=())

    sweep_p = sub.add_parser(
        "sweep", help="brute-force optimum vs greedy FIFO over small instances"
    )
    sweep_p.add_argument("--max-packets", type=int, default=3, dest="max_packets")
    sweep_p.add_argument("--max-edges", type=int, default=3, dest="max_edges")
    sweep_p.add_argument(
        "--shapes", default="line,tree", help="comma-separated subset of: line, tree"
    )
    return parser


@contextlib.contextmanager
def _refuse(kind, prefix: str):
    """Re-raise a `kind` error as a refusal: a ValueError whose message is
    `prefix` and the error's own message."""
    try:
        yield
    except kind as exc:
        raise ValueError(f"{prefix}{exc}") from None


# ---- run -------------------------------------------------------------------


def _write_csv_set(out_dir: str, name: str, outputs, header: str) -> list[str]:
    """Write one run's CSVs, `<name>_<kind>.csv` for each (kind, writer, data)
    in `outputs`, to `out_dir` as a whole set, and return their paths.

    Each CSV is written to a temporary name first, and the files are renamed
    only after the last write succeeds. On any exception, an OSError or an
    interrupt such as Ctrl-C alike, the temporary files and any file of the
    set already renamed are removed, and the exception is raised again
    unchanged, so a failed or interrupted run leaves no partial set behind.
    """
    tag = secrets.token_hex(4)
    temps: list[str] = []
    done: list[str] = []
    try:
        for kind, writer, data in outputs:
            tmp = os.path.join(out_dir, f".{name}_{kind}.{tag}.tmp")
            with open(tmp, "x", newline="") as fh:
                temps.append(tmp)
                writer(data, fh, header)
        for tmp, (kind, _, _) in zip(temps, outputs):
            final = os.path.join(out_dir, f"{name}_{kind}.csv")
            os.replace(tmp, final)
            done.append(final)
    except BaseException:
        for path in temps[len(done):] + done:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return done


def cmd_run(args: argparse.Namespace) -> int:
    with (
        _refuse(OSError, "cannot read scenario: "),
        _refuse(yaml.YAMLError, "scenario is not valid YAML: "),
    ):
        scenario = load_scenario(args.scenario)

    max_steps = scenario.max_steps if args.max_steps is None else args.max_steps
    improvement = scenario.improvement
    if args.improvement is not None:
        if scenario.strategy_kind != "interval":
            raise ValueError("strategy.improvement: only valid for the interval strategy")
        improvement = args.improvement == "on"
    with _refuse(ValueError, "run."):  # as a scenario's run.max_steps is refused
        check_max_steps(max_steps)
    # an unknown --strategy is refused before the adversary is built and --out created
    discipline = scenario.discipline if args.strategy is None else discipline_name(args.strategy)

    with _refuse(AdversaryError, "adversary: "):
        adversary = make_adversary(scenario)

    with _refuse(OSError, "--out: "):  # --out names a file, or a path under one
        os.makedirs(args.out, exist_ok=True)

    records: Optional[Periodic[PhaseRecord]] = None
    if scenario.strategy_kind == "interval":
        trace, records = run_interval(
            scenario.network, discipline, adversary, max_steps, improvement
        )
        mode = f"interval({discipline}) improvement={'on' if improvement else 'off'}"
    else:
        trace = run(scenario.network, discipline, adversary, max_steps)
        mode = f"plain({discipline})"
    header = (
        f"scenario={scenario.name} adversary={scenario.adversary_kind}"
        f" r={scenario.r if scenario.r is not None else '-'} b={scenario.b}"
        f" strategy={mode} max_steps={max_steps}"
    )
    outputs = [("trace", write_trace_csv, trace), ("packets", write_packets_csv, trace)]
    if records is not None:
        outputs.append(("phases", write_phases_csv, records))
    with _refuse(OSError, "--out: "):  # a CSV target is a directory, or cannot be written
        written = _write_csv_set(args.out, scenario.name, outputs, header)

    print(f"scenario {scenario.name}: {header[len(f'scenario={scenario.name} '):]}")
    print(
        f"steps run: {trace.last_step}{' (truncated)' if trace.truncated else ''}"
        f"  injected: {len(trace.packets)}  delivered: {trace.delivered_count}"
    )
    max_sys = trace.max_system_time
    print(
        f"max queue length: {trace.max_queue_len}"
        f"  max system time: {max_sys if max_sys is not None else '-'}"
    )
    if records is not None:
        print(f"phases completed: {len(records)} (startup + {len(records) - 1})")
        indices = range(1, len(records))  # records[0] is the startup phase
        if len(indices) >= analysis.MIN_GROWTH_TERMS:
            # classify_growth reads the first and the last half of its shortest
            # series, and every duration is positive, so these label them all;
            # `origin` reads a copied record's duration from its template
            half = analysis.MIN_GROWTH_TERMS // 2
            ends = (*indices[:half], *indices[-half:])
            label = analysis.classify_growth([records.origin(i)[0].duration_steps for i in ends])
            growth = f"{label.label} (mean ratio {label.ratio:.3f})"
        else:
            growth = f"n/a (needs at least {analysis.MIN_GROWTH_TERMS} completed phases)"
        print(f"phase duration growth: {growth}")
        if trace.recurrence is not None:
            s0, period, phases = trace.recurrence
            print(f"phase starts recur: step {s0}, period {period} steps ({phases} phases)")
    elif trace.recurrence is not None:
        s0, period, _ = trace.recurrence
        print(f"steps recur: step {s0}, period {period} steps")
    for path in written:
        print(f"wrote {path}")
    return 0


# ---- bounds ----------------------------------------------------------------


def _bound_series(args: argparse.Namespace, rate: Fraction) -> tuple[list[float], Optional[float]]:
    """Series for i = 1..i_max plus the limit (None when undefined/infinite).
    Every limit and the tree series take the exact `rate`, so each limit is
    its exact value rounded once and r*d = 1 is decided exactly. The other
    series take the rate as a float, and refuse one that rounds to 0.0 or
    1.0 there."""
    b, d = args.b, args.d
    c1, c2, c3 = args.c1, args.c2, args.c3

    def terms(bound, *params) -> list[float]:
        series = []
        for i in range(1, args.i_max + 1):
            try:
                series.append(bound(i, *params))
            except OverflowError:  # float ** raises where * gives inf: e.g. (r*d)**(i-1)
                series.append(math.inf)
        return series

    if args.formula == "tree":
        series = terms(analysis.tree_phase_time_bound, rate, b, d)
        limit = analysis.tree_phase_time_limit(rate, b, d)
        return series, (limit if limit != math.inf else None)
    r = float(rate)
    if r in (0.0, 1.0):
        raise ValueError(f"need 0 < r < 1, got r={args.r}, which rounds to {r} in double precision")
    if args.formula == "line":
        series = terms(analysis.line_phase_time_bound, r, b, d)
        return series, analysis.line_phase_time_limit(rate, d)
    if args.formula == "nonforward":
        return analysis.nonforward_k_series(args.i_max, r, b, d, args.log_base), None
    if args.formula == "theorem-time":
        series = terms(analysis.theorem_phase_time_bound, r, b, d, c1, c2, c3)
        return series, analysis.theorem_phase_time_limit(rate, d, c1, c2, c3)
    series = terms(analysis.theorem_phase_packet_bound, r, b, d, c1, c2, c3)
    return series, analysis.theorem_phase_packet_limit(rate, d, c1, c2, c3)


def _growth(formula: str, series: list[float], limit: Optional[float]) -> str:
    """The series' trend. Every closed form tends to its limit, so its label
    is read from that limit alone: DIVERGENT when it is infinite (None),
    CONVERGENT when it is 0 and BOUNDED otherwise. The `nonforward`
    recurrence has no closed form, so `classify_growth` labels its terms."""
    if formula == "nonforward":
        return analysis.classify_growth(series).label
    if limit is None:
        return analysis.DIVERGENT
    return analysis.CONVERGENT if limit == 0 else analysis.BOUNDED


def cmd_bounds(args: argparse.Namespace) -> int:
    unread = [flag for flag in dict.fromkeys(args.given) if flag not in FORMULAS[args.formula]]
    if unread:
        raise ValueError(f"the {args.formula} formula does not read {', '.join(unread)}")
    if as_count(args.i_max, "--i-max") > I_MAX_LIMIT:
        raise ValueError(f"--i-max must be at most {I_MAX_LIMIT:,}, got {args.i_max}")
    with _refuse(AdversaryError, "--r: "):
        rate = as_rate(args.r)
    for name in ("b", "d", "c1", "c2", "c3", "log_base"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    # a domain error, RecurrenceDomainError included, is a ValueError and is refused as it is
    with _refuse(OverflowError, f"a {args.formula} bound overflows a float: "):
        series, limit = _bound_series(args, rate)
        rows: list[tuple] = list(enumerate(series, start=1))
        if limit is not None:
            rows.append(("limit", limit))
        overflow = next((row for row in rows if not math.isfinite(row[1])), None)
        if overflow is not None:  # e.g. b*(d-1) for a --d near the float maximum
            raise OverflowError(f"{overflow[1]} at i={overflow[0]}")
        if len(series) >= analysis.MIN_GROWTH_TERMS:
            rows.append(("growth", _growth(args.formula, series, limit)))
    write_csv(
        sys.stdout, ["i", "value"], rows,
        f"formula={args.formula} r={args.r} b={args.b} d={args.d}"
        f" c1={args.c1} c2={args.c2} c3={args.c3} log_base={args.log_base}",
    )
    return 0


# ---- sweep -----------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    shapes = tuple(s.strip() for s in args.shapes.split(",") if s.strip())
    rows = sweep_rows(args.max_packets, args.max_edges, shapes)
    count = count_instances(args.max_packets, args.max_edges, shapes, SWEEP_LIMIT)
    if count > SWEEP_LIMIT:
        raise ValueError(
            f"the sweep has more than {SWEEP_LIMIT:,} instances (counting stopped"
            f" at {count:,}); lower --max-packets or --max-edges"
        )
    # each row is written as it is solved, so memory stays flat however many
    # instances the sweep has
    summary = SweepSummary()
    write_sweep_csv(
        summary.tally(rows), sys.stdout,
        f"sweep max_packets={args.max_packets} max_edges={args.max_edges}"
        f" shapes={','.join(shapes)}",
    )
    print(f"# {summary}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the one place a failure becomes an exit status.

    A refusal, or a ValueError from the package's domain checks, writes an
    `error: <problem>` line per problem (each of a ScenarioError's, in order)
    and returns 2. A broken runtime invariant writes a `fatal:` line and
    returns 3. Any other exception propagates, so a bug stays a traceback."""
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "bounds": cmd_bounds, "sweep": cmd_sweep}[args.command]
    try:
        return command(args)
    except EngineInvariantError as exc:
        print(f"fatal: runtime invariant broken: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        for problem in exc.problems if isinstance(exc, ScenarioError) else [exc]:
            print(f"error: {problem}", file=sys.stderr)
        return 2


def entry() -> None:
    """The `aqsim` console script. It restores the default SIGPIPE action, so
    a reader that closes stdout early (`aqsim sweep | head -1`) ends the
    process quietly, as it ends `cat`, not in a BrokenPipeError traceback.
    An interrupt (Ctrl-C) writes one `error:` line and exits 130, the
    shell's status for SIGINT; a run's CSV set is removed as it unwinds.
    `main` leaves signal handling to in-process callers."""
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        sys.exit(130)


if __name__ == "__main__":
    entry()
