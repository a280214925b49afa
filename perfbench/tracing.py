"""Traced rounds: spans around calls into each aqsim module, and the per-layer
metrics computed from them.

While `Tracer.patched()` is active, every function listed in `WRAPPED` is
replaced, in the namespace of every aqsim module that holds it, by a wrapper
that records a span: name, layer (the module that defines the function),
start, end, parent span and round. Direct engine runs also get a proxy
adversary, whose `injections_for` the engine calls exactly once per step, and a
counting wrapper around the discipline key. Spans stay in memory and are
written once, at exit, by `write_spans`.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time

import aqsim as A
import aqsim.strategies

# Functions wrapped per layer; `strategies` has no spans, only the counting key.
WRAPPED = {
    "network": ("build_network", "line_network", "in_tree_network", "congestion_dilation"),
    "adversary": (
        "verify_admissible", "saturating_adversary", "scripted_adversary", "burst_adversary",
    ),
    "sim_engine": ("run", "write_trace_csv", "write_packets_csv"),
    "interval_strategy": ("run_interval", "write_phases_csv"),
    "static_routing": (
        "run_sweep", "greedy_schedule", "bruteforce_optimal_makespan", "write_sweep_csv",
    ),
    "analysis": (
        "line_phase_time_bound", "line_delivery_bound", "tree_phase_time_bound", "classify_growth",
    ),
    "scenario": ("load_scenario", "parse_scenario", "make_adversary"),
    "cli": ("main",),
}

NETWORK_BUILDERS = ("network.build_network", "network.line_network", "network.in_tree_network")
CSV_WRITERS = (
    "sim_engine.write_trace_csv",
    "sim_engine.write_packets_csv",
    "interval_strategy.write_phases_csv",
    "static_routing.write_sweep_csv",
)

# Spans each workload must record at least once in every traced round.
COMMON_SPANS = (
    "adversary.verify_admissible",
    "adversary.injections_for",
    "sim_engine.run",
    "sim_engine.write_trace_csv",
    "sim_engine.write_packets_csv",
    "interval_strategy.run_interval",
    "interval_strategy.write_phases_csv",
    "network.congestion_dilation",
    "static_routing.run_sweep",
    "static_routing.greedy_schedule",
    "static_routing.bruteforce_optimal_makespan",
    "scenario.load_scenario",
    "scenario.make_adversary",
    "cli.main",
)
EXPECTED_SPANS = {
    "line_phased": COMMON_SPANS + (
        "network.line_network", "adversary.saturating_adversary",
        "analysis.line_phase_time_bound", "analysis.line_delivery_bound",
    ),
    "tree_sparse": COMMON_SPANS + (
        "network.in_tree_network", "adversary.scripted_adversary",
        "analysis.tree_phase_time_bound",
    ),
    "oracles_cli": COMMON_SPANS + (
        "network.build_network", "adversary.scripted_adversary", "adversary.burst_adversary",
        "adversary.saturating_adversary", "analysis.line_phase_time_bound",
        "analysis.line_delivery_bound",
    ),
}
# Workloads whose pass-through runs must deliver packets straight from holding
# (on line_phased every packet takes the whole line, so none can overtake a phase).
EXPECTS_PASSTHROUGH = ("oracles_cli",)

# Span fields: [name, layer, start, end, parent index, note].
NAME, LAYER, START, END, PARENT, NOTE = range(6)


class Tracer:
    def __init__(self, round_no: int):
        self.spans: list[list] = []
        self.round = round_no
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "adversary.verify_admissible":
                bound = sig.bind(*args, **kwargs).arguments
                self.spans[idx][NOTE] = (len(bound["events"]), bound["horizon"])
            elif name in NETWORK_BUILDERS:
                self.spans[idx][NOTE] = len(result.edges)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every WRAPPED function for its tracing wrapper in every aqsim
        module namespace that holds it; restore the originals on exit."""
        wrappers = {}
        for layer, names in WRAPPED.items():
            mod = importlib.import_module(f"aqsim.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(fn, layer))
        modules = [m for n, m in sys.modules.items() if n == "aqsim" or n.startswith("aqsim.")]
        saved = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        try:
            yield
        finally:
            for mod, attr, val in saved:
                setattr(mod, attr, val)


class TracedAdversary:
    """Forwards to the real adversary; records a span per `injections_for`
    call, so consecutive call starts delimit the engine's steps."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.r = inner.r
        self.b = inner.b
        self.calls: list[float] = []

    def injections_for(self, step: int):
        idx = self._tracer.open("adversary.injections_for", "adversary")
        self.calls.append(self._tracer.spans[idx][START])
        try:
            return self._inner.injections_for(step)
        finally:
            self._tracer.close(idx)

    def done_after(self, step: int) -> bool:
        return self._inner.done_after(step)

    def events(self, horizon: int):
        return self._inner.events(horizon)


class RunInfo:
    """What one traced engine run did, step by step."""

    def __init__(self, kind, edges, calls, span_range, spans, key_evals, out):
        first, last = span_range
        run_end = spans[first][END]  # the run's own span opens first
        self.kind = kind
        self.edges = edges
        self.key_evals = key_evals
        starts = calls + [run_end]
        self.step_s = [b - a for a, b in zip(starts, starts[1:])]
        trace, records = (out, None) if kind == "plain" else out
        self.steps = trace.last_step
        self.hops = sum(p.hops_done for p in trace.packets)
        self.phases = 0
        self.passthrough = 0
        self.boundary_s = []
        if records is not None:
            self.phases = sum(1 for rec in records if rec.phase_index >= 1)
            self.passthrough = sum(
                1 for p in trace.packets if p.delivered_at is not None and p.phase is None
            )
            # each phase start computes the new phase's congestion and dilation once
            starts_cd = [
                s[START] for s in spans[first:last] if s[NAME] == "network.congestion_dilation"
            ]
            self.boundary_s = [self.step_s[bisect.bisect_right(calls, t) - 1] for t in starts_cd]
            if len(starts_cd) < self.phases:
                raise RuntimeError(f"{len(starts_cd)} phase starts seen for {self.phases} phases")


class Traced:
    """Traced probe: direct engine runs get a proxy adversary and a counting key."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.runs: list[RunInfo] = []

    def engine_run(self, kind, network, discipline, adversary, *args):
        key = A.strategies.get_discipline(discipline)
        evals = [0]

        def counted(p):
            evals[0] += 1
            return key(p)

        proxy = TracedAdversary(adversary, self.tracer)
        fn = A.run if kind == "plain" else A.run_interval
        first = len(self.tracer.spans)
        out = fn(network, counted, proxy, *args)
        span_range = (first, len(self.tracer.spans))
        self.runs.append(
            RunInfo(kind, len(network.edges), proxy.calls, span_range, self.tracer.spans, evals[0], out)
        )
        return out


def _pct(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans: list, runs: list[RunInfo], counts: dict) -> dict:
    """Per-layer metrics of one traced round (spans of that round only)."""
    by_name = {}
    child = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    def total(name, keep=lambda s: True):
        return sum(s[END] - s[START] for s in by_name.get(name, ()) if keep(s))

    def parent_layer(s):
        return spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None

    m = {}
    verify = by_name.get("adversary.verify_admissible", [])
    events = sum(s[NOTE][0] for s in verify)
    m["adversary.inject_calls"] = sum(len(r.step_s) for r in runs)
    m["adversary.inject_s"] = total("adversary.injections_for")
    m["adversary.verify_calls"] = len(verify)
    m["adversary.verify_events"] = events
    m["adversary.verify_horizon_sum"] = sum(s[NOTE][1] for s in verify)
    m["adversary.verify_us_per_event"] = (
        1e6 * total("adversary.verify_admissible") / events if events else 0.0
    )

    hops = sum(r.hops for r in runs)
    m["strategies.key_evals"] = sum(r.key_evals for r in runs)
    m["strategies.key_evals_per_hop"] = m["strategies.key_evals"] / hops if hops else 0.0

    plain = [r for r in runs if r.kind == "plain"]
    steps = sum(r.steps for r in plain)
    plain_hops = sum(r.hops for r in plain)
    plain_step_s = [d for r in plain for d in r.step_s]
    m["sim_engine.steps"] = steps
    m["sim_engine.hops"] = plain_hops
    m["sim_engine.edges"] = sum(r.edges * r.steps for r in plain) / steps if steps else 0.0
    m["sim_engine.busy_edges_per_step"] = plain_hops / steps if steps else 0.0
    m["sim_engine.step_us_p50"] = 1e6 * _pct(plain_step_s, 50)
    m["sim_engine.step_us_p99"] = 1e6 * _pct(plain_step_s, 99)
    m["sim_engine.us_per_hop"] = 1e6 * sum(plain_step_s) / plain_hops if plain_hops else 0.0

    phased = [r for r in runs if r.kind == "interval"]
    phased_step_s = [d for r in phased for d in r.step_s]
    m["interval_strategy.phases"] = sum(r.phases for r in phased)
    m["interval_strategy.step_us_p50"] = 1e6 * _pct(phased_step_s, 50)
    m["interval_strategy.step_us_p99"] = 1e6 * _pct(phased_step_s, 99)
    m["interval_strategy.boundary_step_us_p50"] = 1e6 * _pct(
        [d for r in phased for d in r.boundary_s], 50
    )
    m["interval_strategy.passthrough_delivered"] = sum(r.passthrough for r in phased)

    top_builds = [
        s for name in NETWORK_BUILDERS for s in by_name.get(name, ()) if parent_layer(s) != "network"
    ]
    m["network.build_s"] = sum(s[END] - s[START] for s in top_builds)
    m["network.edges"] = sum(s[NOTE] for s in top_builds)

    m["scenario.load_s"] = total("scenario.load_scenario")
    m["scenario.make_adversary_s"] = total("scenario.make_adversary")

    m["static_routing.instances"] = len(by_name.get("static_routing.bruteforce_optimal_makespan", ()))
    m["static_routing.greedy_s"] = total("static_routing.greedy_schedule")
    m["static_routing.bruteforce_s"] = total("static_routing.bruteforce_optimal_makespan")

    m["cli.csv_write_s"] = sum(
        total(name, lambda s: parent_layer(s) == "cli") for name in CSV_WRITERS
    )
    m["cli.csv_bytes"] = counts["csv_bytes"]

    m["analysis.bound_checks"] = counts["bound_checks"]
    m["analysis.min_phase_slack"] = counts["min_phase_slack"]

    self_s = dict.fromkeys(WRAPPED, 0.0)
    for i, s in enumerate(spans):
        if s[LAYER] in self_s:
            self_s[s[LAYER]] += s[END] - s[START] - child[i]
    for layer, value in self_s.items():
        m[f"{layer}.self_s"] = value
    return m


def missing_spans(workload: str, spans: list, runs: list[RunInfo]) -> list[str]:
    """Wrapped calls the workload should make but recorded zero times."""
    seen = {s[NAME] for s in spans}
    missing = [name for name in EXPECTED_SPANS[workload] if name not in seen]
    if not any(r.key_evals for r in runs):
        missing.append("strategies key evaluations")
    if workload in EXPECTS_PASSTHROUGH and not any(r.passthrough for r in runs):
        missing.append("interval_strategy pass-through deliveries")
    return missing


def write_spans(path: str, workload: str, tracers: list[Tracer]) -> None:
    """All spans of the traced rounds: a header object naming the fields, then
    one JSON array per span. `id` and `parent` number spans across the file
    (-1: no parent); times are perf_counter seconds."""
    fields = ["id", "name", "start", "end", "parent", "round"]
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "fields": fields}) + "\n")
        for tracer in tracers:
            for i, s in enumerate(tracer.spans):
                parent = offset + s[PARENT] if s[PARENT] >= 0 else -1
                row = [offset + i, s[NAME], s[START], s[END], parent, tracer.round]
                fh.write(json.dumps(row) + "\n")
            offset += len(tracer.spans)
