"""The three benchmark workloads: inputs made from a seed, and one round each.

A round is one pass over a workload's fixed matrix of calls into aqsim: set-up
(networks, adversaries, scenario loads, admissibility checks), direct engine
runs, the workload's verify set, a static-routing sweep and `aqsim run` through
`cli.main`. Every output is reduced to a sha256 digest of the text the public
writers produce, so a round can be compared with the committed goldens and
with the other rounds of the same process.

Every call goes through module attributes looked up at call time (`A.run`,
`A.sim_engine.write_trace_csv`, ...) so that the traced run can swap in its
span-recording wrappers without touching this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from fractions import Fraction

import yaml

import aqsim as A
import aqsim.analysis
import aqsim.cli
import aqsim.interval_strategy
import aqsim.scenario
import aqsim.sim_engine
import aqsim.static_routing
from aqsim.adversary import Adversary, InjectionEvent
from aqsim.network import PacketPath
from clock import Clock

# ---- sizes (fixed: the seed changes which inputs, not how much work; the one
# exception is the number of distinct edge profiles the tree oracle checks) ----

LINE_D, LINE_R, LINE_B = 256, Fraction(1, 2), 4
LINE_STEPS = 3000  # ~7 completed phases of ~d/(1-r) steps without pass-through
LINE_VERIFY_HORIZON = 2500
LINE_CLI_STEPS = 1500
LINE_SWEEP = (4, 4, ("line",))

TREE_LEVELS, TREE_WIDTH = 128, 32  # 4096 edges, depth 128
TREE_R, TREE_B = Fraction(1, 2), 1
TREE_LAST_INJECTION = 399  # one path on every odd step up to here: 200 packets
TREE_VERIFY_HORIZON = TREE_LAST_INJECTION + 1  # the whole script
TREE_MAX_STEPS = 100_000  # never reached: every run drains
TREE_CLI_LEVELS, TREE_CLI_HORIZON, TREE_CLI_STEPS = 32, 80, 400
TREE_SWEEP = (4, 4, ("tree",))

ORACLE_LINE_EDGES = 8
ORACLE_DENSE_HORIZON = 600
ORACLE_DENSE_SCRIPTS = 2
ORACLE_SPARSE_HORIZON = 2000
ORACLE_SPARSE_SCRIPTS = 2
ORACLE_R, ORACLE_B = Fraction(1, 2), 2
ORACLE_SWEEP = (4, 4, ("line", "tree"))
ORACLE_LONG_STEPS = 30_000  # line_saturating.yaml, through the API and the CLI
GEN_LINE_EDGES, GEN_HORIZON, GEN_MAX_STEPS = 6, 300, 400


# `verify_admissible` is list slices, `map` and `max` and little else, so the
# time spent in its calls, inside set-up and whole rounds too, is calibrated by
# that part of the reference alone (see clock.py).
SECTION_REFERENCE = {"verify": "slices"}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def written(writer, obj) -> str:
    """Text a public CSV writer produces for `obj`."""
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def hops_of(trace) -> int:
    return sum(p.hops_done for p in trace.packets)


class Round:
    """Timings, exact counts, output digests and failed operations of one round."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock or Clock()
        self.t: dict[str, float] = {}  # calibrated seconds per section, after finish()
        self.raw: dict[str, float] = {}  # the same sections in raw seconds
        self.intervals: list[tuple[str, float, float]] = []
        self.counts: dict[str, object] = {
            "steps": 0,
            "hops": 0,
            "phases": 0,
            "bound_checks": 0,
            "min_phase_slack": None,
            "sweep_instances": 0,
            "csv_bytes": 0,
        }
        self.outputs: dict[str, str] = {}
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.messages: list[str] = []

    @contextlib.contextmanager
    def section(self, name: str):
        """Time the block; its boundaries are reference-loop marks of the clock."""
        self.clock.mark()
        start = self.clock.now()
        outer = self.clock.kind
        self.clock.use(SECTION_REFERENCE.get(name, outer))
        try:
            yield
        finally:
            self.clock.use(outer)
            self.intervals.append((name, start, self.clock.now()))
            self.clock.mark()

    def finish(self) -> None:
        """Sum each section's calibrated and raw seconds (after the last mark)."""
        for name, v0, v1 in self.intervals:
            self.t[name] = self.t.get(name, 0.0) + self.clock.calibrated(v0, v1)
            self.raw[name] = self.raw.get(name, 0.0) + v1 - v0

    def call(self, op: str, fn, *args, **kwargs):
        """One attempted operation; an exception marks it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed op, reported by name
            self.fail(op, f"raised {exc!r}")
            return None

    def fail(self, op: str, msg: str) -> None:
        self.failed_ops.add(op)
        self.messages.append(f"{op}: {msg}")

    def check(self, ok: bool, op: str, msg: str) -> None:
        if not ok:
            self.fail(op, msg)

    def output(self, name: str, text: str) -> None:
        self.outputs[name] = digest(text)

    def slack(self, value: float) -> None:
        self.counts["bound_checks"] += 1
        cur = self.counts["min_phase_slack"]
        self.counts["min_phase_slack"] = value if cur is None else min(cur, value)


class Plain:
    """Untraced probe: hands the package exactly what the caller passed."""

    def engine_run(self, kind, network, discipline, adversary, *args):
        fn = A.run if kind == "plain" else A.run_interval
        return fn(network, discipline, adversary, *args)


# ---- shared pieces --------------------------------------------------------------


def engine_run(rnd: Round, probe, op, kind, network, discipline, adversary, *args):
    """A direct engine run; returns (trace, records) or None if it raised."""
    with rnd.section("engine"):
        out = rnd.call(op, probe.engine_run, kind, network, discipline, adversary, *args)
    if out is None:
        return None
    trace, records = (out, None) if kind == "plain" else out
    rnd.counts["steps"] += trace.last_step
    rnd.counts["hops"] += hops_of(trace)
    if records is not None:
        rnd.counts["phases"] += sum(1 for rec in records if rec.phase_index >= 1)
    return trace, records


def record_run_outputs(rnd: Round, op: str, trace, records) -> dict[str, str]:
    """Digest the trace, packet and phase CSVs of a run; returns their texts."""
    texts = {
        "trace": written(A.sim_engine.write_trace_csv, trace),
        "packets": written(A.sim_engine.write_packets_csv, trace),
    }
    if records is not None:
        texts["phases"] = written(A.interval_strategy.write_phases_csv, records)
    for kind, text in texts.items():
        rnd.output(f"{op}.{kind}", text)
    check_trace(rnd, op, trace, records)
    return texts


def check_trace(rnd: Round, op: str, trace, records) -> None:
    """Invariants any correct run satisfies, whatever the seed."""
    steps = trace.steps
    injected = sum(s.injections for s in steps)
    delivered = sum(s.deliveries for s in steps)
    rnd.check(injected == len(trace.packets), op, "step injections != packets")
    rnd.check(delivered == trace.delivered_count, op, "step deliveries != delivered packets")
    rnd.check(
        all(s.step == i for i, s in enumerate(steps, start=1)), op, "steps not numbered 1..n"
    )
    for p in trace.packets:
        if p.delivered_at is not None and p.system_time < len(p.path):
            rnd.fail(op, f"packet {p.id} delivered faster than its path length")
            break
    if records is not None:
        for rec in records:
            if rec.phase_index >= 1 and rec.duration_steps > rec.n_i * rec.d_i:
                rnd.fail(op, f"phase {rec.phase_index} exceeds n*d")


def check_line_bounds(rnd: Round, op: str, trace, records, r, b, d) -> None:
    """Every phase and every delivered packet against the paper's line bounds."""
    for rec in records:
        if rec.phase_index < 1:
            continue
        bound = A.analysis.line_phase_time_bound(rec.phase_index, float(r), b, d)
        rnd.slack(bound - rec.duration_steps)
        if rec.duration_steps > bound:
            rnd.fail(op, f"phase {rec.phase_index} took {rec.duration_steps} > {bound}")
    cap = A.analysis.line_delivery_bound(float(r), d)
    for p in trace.packets:
        if p.delivered_at is None:
            continue
        rnd.counts["bound_checks"] += 1
        if p.system_time > cap:
            rnd.fail(op, f"packet {p.id} system time {p.system_time} > {cap}")


def verify(rnd: Round, op: str, events, r, b, horizon, expect_ok: bool):
    """One `verify_admissible` call, timed as verify_s; digests its verdict."""
    with rnd.section("verify"):
        res = rnd.call(op, A.verify_admissible, events, r, b, horizon)
    if res is None:
        return None
    v = res.violation
    rnd.output(op, repr((res.ok, None if v is None else (v.edge, v.start, v.end, v.count, v.allowed))))
    rnd.check(res.ok == expect_ok, op, f"verdict {res.ok}, expected {expect_ok}")
    return res


def sweep(rnd: Round, spec) -> None:
    max_packets, max_edges, shapes = spec
    with rnd.section("sweep"):
        rows = rnd.call("sweep", A.run_sweep, max_packets, max_edges, shapes)
    if rows is None:
        return
    rnd.counts["sweep_instances"] += len(rows)
    rnd.output("sweep.rows", written(A.static_routing.write_sweep_csv, rows))
    for row in rows:
        if row.optimal is None or not (
            max(row.n, row.d) <= row.optimal <= row.greedy_fifo <= row.lemma1_bound
        ):
            rnd.fail("sweep", f"row {row.instance_id} breaks max(n,d) <= opt <= greedy <= n*d")
            break


def cli_run(rnd: Round, op: str, scenario: str, out_dir: str, extra=(), expect=0, timed=False):
    """`aqsim run` through `cli.main`; digests the CSVs it writes."""
    name = os.path.splitext(os.path.basename(scenario))[0]
    produced = [os.path.join(out_dir, f"{name}_{k}.csv") for k in ("trace", "packets", "phases")]
    for f in produced:
        if os.path.exists(f):
            os.remove(f)
    argv = ["run", scenario, "--out", out_dir, *extra]
    stdout, stderr = io.StringIO(), io.StringIO()
    section = rnd.section("cli_run" if timed else "cli")
    with section, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = rnd.call(op, A.cli.main, argv)
    rnd.output(f"{op}.exit", str(code))
    rnd.check(code == expect, op, f"exit code {code}, expected {expect}: {stderr.getvalue()[-300:]}")
    texts = {}
    for f in produced:
        if os.path.exists(f):
            with open(f, encoding="utf-8") as fh:
                text = fh.read()
            kind = f.rsplit("_", 1)[1][: -len(".csv")]
            texts[kind] = text
            rnd.output(f"{op}.{kind}", text)
            rnd.counts["csv_bytes"] += len(text.encode())
    return code, texts, stderr.getvalue()


def same_body(rnd: Round, op: str, api: dict, cli: dict) -> None:
    """A CLI CSV is its API twin plus one header comment line."""
    rnd.check(set(api) == set(cli), op, f"CLI wrote {sorted(cli)}, API gave {sorted(api)}")
    for kind in set(api) & set(cli):
        body = cli[kind].split("\n", 1)[1] if cli[kind].startswith("#") else cli[kind]
        rnd.check(body == api[kind], op, f"CLI {kind} CSV differs from the API run")


def dump_yaml(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, default_flow_style=None, sort_keys=False, width=200)
    return path


def line_network_yaml(num_edges: int) -> dict:
    return {
        "nodes": [f"v{i}" for i in range(num_edges + 1)],
        "edges": [[f"v{i}", f"v{i + 1}", f"e{i + 1}"] for i in range(num_edges)],
    }


# ---- line_phased -------------------------------------------------------------------


def line_inputs(seed: int, out_dir: str, scenario_dir: str) -> dict:
    """The paper's line case is one fixed instance; the seed does not change it."""
    scenario = {
        "name": "line_d256",
        "network": line_network_yaml(LINE_D),
        "adversary": {
            "kind": "saturating",
            "r": str(LINE_R),
            "b": LINE_B,
            "path": [f"e{i}" for i in range(1, LINE_D + 1)],
        },
        "strategy": {"kind": "interval", "discipline": "FIFO", "improvement": False},
        "run": {"max_steps": LINE_CLI_STEPS},
    }
    return {"yaml": dump_yaml(os.path.join(out_dir, "line_d256.yaml"), scenario), "out": out_dir}


def line_round(inp: dict, rnd: Round, probe) -> None:
    modes = (("plain", "plain", None), ("off", "interval", False), ("on", "interval", True))
    with rnd.section("setup"):
        net = rnd.call("setup.network", A.line_network, LINE_D)
        full = A.path(*(f"e{i}" for i in range(1, LINE_D + 1)))
        advs = {
            name: rnd.call(f"setup.{name}", A.saturating_adversary, net, full, LINE_R, LINE_B)
            for name, _, _ in modes
        }
        events = A.saturating_adversary(net, full, LINE_R, LINE_B).events(LINE_VERIFY_HORIZON)
        verify(rnd, "verify.saturating", events, LINE_R, LINE_B, LINE_VERIFY_HORIZON, True)
    if net is None or None in advs.values():
        return

    runs = {}
    for name, kind, improve in modes:
        args = (LINE_STEPS,) if kind == "plain" else (LINE_STEPS, improve)
        out = engine_run(rnd, probe, name, kind, net, "FIFO", advs[name], *args)
        if out is not None:
            runs[name] = out
    injected = {len(trace.packets) for trace, _ in runs.values()}
    rnd.check(len(injected) <= 1, "off", f"the runs saw different injection counts {injected}")
    for name, (trace, records) in runs.items():
        record_run_outputs(rnd, name, trace, records)
        if records is not None:
            check_line_bounds(rnd, name, trace, records, LINE_R, LINE_B, LINE_D)

    sweep(rnd, LINE_SWEEP)
    cli_run(rnd, "cli.line_d256", inp["yaml"], inp["out"], timed=True)


# ---- tree_sparse -------------------------------------------------------------------


class TreeAdversary(Adversary):
    """One leaf-to-root path on every odd step up to `last_step`, round-robin
    over the leaf paths given. Every edge sees at most one injection in any two
    consecutive steps, so the script is (1/2, 1)-admissible by construction."""

    r = TREE_R
    b = TREE_B

    def __init__(self, leaf_paths, last_step: int):
        self._paths = [PacketPath(p) for p in leaf_paths]
        self._last = last_step

    def _path_at(self, step: int) -> PacketPath:
        return self._paths[(step // 2) % len(self._paths)]

    def injections_for(self, step: int) -> list[PacketPath]:
        if step % 2 == 1 and step <= self._last:
            return [self._path_at(step)]
        return []

    def done_after(self, step: int) -> bool:
        return step >= self._last

    def events(self, horizon: int) -> list[InjectionEvent]:
        return [
            InjectionEvent(t, self._path_at(t)) for t in range(1, min(horizon, self._last) + 1, 2)
        ]


def random_tree(seed: int, levels: int = TREE_LEVELS) -> list[int]:
    """Parent vector of a random in-tree of `levels` levels of TREE_WIDTH nodes
    below the root: each node hangs below a random node of the level above."""
    rng = random.Random(seed)
    parents = [0] * TREE_WIDTH
    for level in range(1, levels):
        above = range((level - 1) * TREE_WIDTH + 1, level * TREE_WIDTH + 1)
        parents.extend(rng.choice(above) for _ in range(TREE_WIDTH))
    return parents


def leaf_paths(parents: list[int], seed: int) -> list[tuple[str, ...]]:
    """Edge paths from the deepest leaves to the root, in a seeded shuffled
    order. Injecting only from the deepest level keeps every path the same
    length, so the seed changes the tree's shape but not the amount of work."""
    depth = [0] * (len(parents) + 1)
    for v, par in enumerate(parents, start=1):
        depth[v] = depth[par] + 1
    leaves = [v for v in range(1, len(parents) + 1) if depth[v] == max(depth)]
    random.Random(seed).shuffle(leaves)
    out = []
    for v in leaves:
        edges = []
        while v:
            edges.append(f"e{v}")
            v = parents[v - 1]
        out.append(tuple(edges))
    return out


def tree_network_yaml(parents: list[int]) -> dict:
    return {
        "nodes": [f"n{i}" for i in range(len(parents) + 1)],
        "edges": [[f"n{i}", f"n{par}", f"e{i}"] for i, par in enumerate(parents, start=1)],
    }


def tree_inputs(seed: int, out_dir: str, scenario_dir: str) -> dict:
    parents = random_tree(seed)
    paths = leaf_paths(parents, seed)
    small = parents[: TREE_CLI_LEVELS * TREE_WIDTH]  # the top levels form a tree too
    events = TreeAdversary(leaf_paths(small, seed), TREE_CLI_HORIZON).events(TREE_CLI_HORIZON)
    scenario = {
        "name": "tree_scripted",
        "network": tree_network_yaml(small),
        "adversary": {
            "kind": "scripted",
            "r": str(TREE_R),
            "b": TREE_B,
            "events": [{"step": ev.time, "path": list(ev.path.edges)} for ev in events],
        },
        "strategy": {"kind": "interval", "discipline": "FIFO", "improvement": False},
        "run": {"max_steps": TREE_CLI_STEPS},
    }
    depth = max(len(p) for p in paths)
    injected = TreeAdversary(paths, TREE_LAST_INJECTION).events(TREE_LAST_INJECTION)
    return {
        "hops": sum(len(ev.path) for ev in injected),
        "parents": parents,
        "paths": paths,
        "depth": depth,
        "yaml": dump_yaml(os.path.join(out_dir, "tree_scripted.yaml"), scenario),
        "out": out_dir,
    }


def tree_round(inp: dict, rnd: Round, probe) -> None:
    runs = [(name, "plain") for name in A.DISCIPLINES] + [("FIFO", "interval")]
    with rnd.section("setup"):
        net = rnd.call("setup.network", A.in_tree_network, inp["parents"])
        advs = [TreeAdversary(inp["paths"], TREE_LAST_INJECTION) for _ in runs]
        events = TreeAdversary(inp["paths"], TREE_LAST_INJECTION).events(TREE_VERIFY_HORIZON)
        verify(rnd, "verify.tree", events, TREE_R, TREE_B, TREE_VERIFY_HORIZON, True)
    if net is None:
        return

    total_hops = inp["hops"]
    for (disc, kind), adv in zip(runs, advs):
        op = f"{kind}.{disc}"
        args = (TREE_MAX_STEPS,) if kind == "plain" else (TREE_MAX_STEPS, False)
        out = engine_run(rnd, probe, op, kind, net, disc, adv, *args)
        if out is None:
            continue
        trace, records = out
        record_run_outputs(rnd, op, trace, records)
        rnd.check(not trace.truncated, op, "run did not drain")
        rnd.check(hops_of(trace) == total_hops, op, f"{hops_of(trace)} hops, expected {total_hops}")
        if records is not None:
            for rec in records:
                if rec.phase_index < 1:
                    continue
                bound = A.analysis.tree_phase_time_bound(
                    rec.phase_index, float(TREE_R), TREE_B, inp["depth"]
                )
                rnd.slack(bound - rec.duration_steps)
                if rec.duration_steps > bound:
                    rnd.fail(op, f"phase {rec.phase_index} took {rec.duration_steps} > {bound}")

    sweep(rnd, TREE_SWEEP)
    cli_run(rnd, "cli.tree_scripted", inp["yaml"], inp["out"], timed=True)


# ---- oracles_cli -------------------------------------------------------------------


def admissible_script(rng: random.Random, num_edges: int, horizon: int, r, b, tries=3, span=4):
    """Random subpaths of a line, each kept only if every window through each of
    its edges stays within floor(r*|I|)+b: the all-windows rule cleared of floors,
    q*(P(t)-P(u)) <= p*(t-u) + q*b, tracked per edge by the running minimum of
    q*P(u) - p*u. Returns (time, edge tuple) pairs sorted by time."""
    p, q = r.numerator, r.denominator
    low = [0] * (num_edges + 1)
    total = [0] * (num_edges + 1)
    script = []
    for t in range(1, horizon + 1):
        for e in range(1, num_edges + 1):
            low[e] = min(low[e], q * total[e] - p * (t - 1))
        for _ in range(tries):
            i = rng.randint(1, num_edges)
            j = rng.randint(i, min(num_edges, i + span))
            if all(q * (total[e] + 1) <= low[e] + p * t + q * b for e in range(i, j + 1)):
                for e in range(i, j + 1):
                    total[e] += 1
                script.append((t, tuple(f"e{e}" for e in range(i, j + 1))))
    return script


def break_script(rng: random.Random, script, horizon: int, r, b):
    """Add just enough single-edge injections at one step t0 on the edge that
    appears last to break the (r,b) rule there. Only that edge's profile changes
    and every violating window contains t0, so the oracle's witness is the
    shortest such window, earliest end first; returns (script, witness)."""
    p, q = r.numerator, r.denominator
    first_seen: dict[str, int] = {}
    for t, edges in script:
        for e in edges:
            first_seen.setdefault(e, t)
    edge = max(first_seen, key=lambda e: (first_seen[e], int(e[1:])))
    t0 = rng.randint(max(first_seen[edge] + 1, horizon // 2), horizon - 1)
    per_step = [0] * (horizon + 1)
    for t, edges in script:
        if edge in edges:
            per_step[t] += 1
    prefix = [0] * (horizon + 1)
    for t in range(1, horizon + 1):
        prefix[t] = prefix[t - 1] + per_step[t]
    low = min(q * prefix[u] - p * u for u in range(t0))
    extra = (low + p * t0 + q * b - q * prefix[t0]) // q + 1
    broken = sorted(script + [(t0, (edge,))] * extra, key=lambda ev: ev[0])
    for t in range(t0, horizon + 1):
        prefix[t] += extra
    for length in range(1, horizon + 1):
        cap = (p * length) // q + b
        for end in range(max(t0, length), min(t0 + length - 1, horizon) + 1):
            count = prefix[end] - prefix[end - length]
            if count > cap:
                return broken, (edge, end - length + 1, end, count, cap)
    raise AssertionError("break_script added no violation")


def sparse_script(rng: random.Random, horizon: int):
    """Four events far apart, alternating over two overlapping paths: two
    distinct edge profiles over a long horizon, admissible for r=1/2, b=1."""
    long = tuple(f"e{e}" for e in range(1, 7))
    short = tuple(f"e{e}" for e in range(4, 7))
    slot = horizon // 4
    times = [k * slot + rng.randint(1, slot) for k in range(4)]
    return [(t, long if k % 2 == 0 else short) for k, t in enumerate(times)]


def to_events(script):
    return [InjectionEvent(t, A.path(*edges)) for t, edges in script]


def scripted_yaml(name, script, r, b, strategy: dict) -> dict:
    return {
        "name": name,
        "network": line_network_yaml(GEN_LINE_EDGES),
        "adversary": {
            "kind": "scripted",
            "r": str(r),
            "b": b,
            "events": [{"step": t, "path": list(edges)} for t, edges in script],
        },
        "strategy": strategy,
        "run": {"max_steps": GEN_MAX_STEPS},
    }


def oracle_inputs(seed: int, out_dir: str, scenario_dir: str) -> dict:
    rng = random.Random(seed)
    r, b = ORACLE_R, ORACLE_B
    dense = [
        admissible_script(rng, ORACLE_LINE_EDGES, ORACLE_DENSE_HORIZON, r, b)
        for _ in range(ORACLE_DENSE_SCRIPTS)
    ]
    broken, witness = break_script(
        rng, admissible_script(rng, ORACLE_LINE_EDGES, ORACLE_DENSE_HORIZON, r, b),
        ORACLE_DENSE_HORIZON, r, b,
    )
    sparse = [sparse_script(rng, ORACLE_SPARSE_HORIZON) for _ in range(ORACLE_SPARSE_SCRIPTS)]

    gen = {
        "gen_interval": scripted_yaml(
            "gen_interval", admissible_script(rng, GEN_LINE_EDGES, GEN_HORIZON, r, b), r, b,
            {"kind": "interval", "discipline": "FIFO", "improvement": True},
        ),
        "gen_plain": scripted_yaml(
            "gen_plain", admissible_script(rng, GEN_LINE_EDGES, GEN_HORIZON, r, b), r, b,
            {"kind": "plain", "discipline": "LIS"},
        ),
    }
    bad_script, bad_witness = break_script(
        rng, admissible_script(rng, GEN_LINE_EDGES, GEN_HORIZON, r, b), GEN_HORIZON, r, b
    )
    bad = scripted_yaml("gen_inadmissible", bad_script, r, b, {"kind": "plain", "discipline": "FIFO"})
    files = {name: dump_yaml(os.path.join(out_dir, f"{name}.yaml"), data) for name, data in gen.items()}
    bundled = {
        name: os.path.join(scenario_dir, f"{name}.yaml")
        for name in ("burst_fifo", "improvement_tail", "line_saturating")
    }
    return {
        "dense": [to_events(s) for s in dense],
        "broken": (to_events(broken), witness),
        "sparse": [to_events(s) for s in sparse],
        "bundled": bundled,
        "generated": files,
        "bad": (dump_yaml(os.path.join(out_dir, "gen_inadmissible.yaml"), bad), bad_witness),
        "out": out_dir,
    }


def oracle_round(inp: dict, rnd: Round, probe) -> None:
    scenarios = {}
    with rnd.section("setup"):
        for name, path in {**inp["bundled"], **inp["generated"]}.items():
            sc = rnd.call(f"load.{name}", A.scenario.load_scenario, path)
            adv = None if sc is None else rnd.call(f"adversary.{name}", A.scenario.make_adversary, sc)
            if adv is not None:
                scenarios[name] = (sc, adv)

    api_texts = {}
    for name, (sc, adv) in scenarios.items():
        steps = ORACLE_LONG_STEPS if name == "line_saturating" else sc.max_steps
        kind = "plain" if sc.strategy_kind == "plain" else "interval"
        args = (steps,) if kind == "plain" else (steps, sc.improvement)
        out = engine_run(rnd, probe, f"api.{name}", kind, sc.network, sc.discipline, adv, *args)
        if out is None:
            continue
        trace, records = out
        api_texts[name] = record_run_outputs(rnd, f"api.{name}", trace, records)
        if records is not None and name in ("line_saturating", "gen_interval"):
            d = len(sc.network.edges)
            check_line_bounds(rnd, f"api.{name}", trace, records, sc.r, sc.b, d)

    for k, events in enumerate(inp["dense"]):
        verify(rnd, f"verify.dense{k}", events, ORACLE_R, ORACLE_B, ORACLE_DENSE_HORIZON, True)
    for k, events in enumerate(inp["sparse"]):
        verify(rnd, f"verify.sparse{k}", events, ORACLE_R, 1, ORACLE_SPARSE_HORIZON, True)
    events, witness = inp["broken"]
    res = verify(rnd, "verify.broken", events, ORACLE_R, ORACLE_B, ORACLE_DENSE_HORIZON, False)
    if res is not None and res.violation is not None:
        v = res.violation
        got = (v.edge, v.start, v.end, v.count, v.allowed)
        rnd.check(got == witness, "verify.broken", f"witness {got}, expected {witness}")

    sweep(rnd, ORACLE_SWEEP)

    out = inp["out"]
    for name, path in {**inp["bundled"], **inp["generated"]}.items():
        _, texts, _ = cli_run(rnd, f"cli.{name}", path, out)
        if name in api_texts and name != "line_saturating":  # API ran it longer
            same_body(rnd, f"cli.{name}", api_texts[name], texts)
    bad_path, bad_witness = inp["bad"]
    _, _, err = cli_run(rnd, "cli.gen_inadmissible", bad_path, out, expect=2)
    edge, start, end, count, cap = bad_witness
    rnd.check(
        f"edge {edge!r}: {count} injections in steps [{start},{end}]" in err,
        "cli.gen_inadmissible", f"stderr lacks the witness {bad_witness}: {err[-300:]}",
    )
    _, texts, _ = cli_run(
        rnd, "cli.line_saturating_long", inp["bundled"]["line_saturating"], out,
        extra=("--max-steps", str(ORACLE_LONG_STEPS)), timed=True,
    )
    if "line_saturating" in api_texts:
        same_body(rnd, "cli.line_saturating_long", api_texts["line_saturating"], texts)


WORKLOADS = {
    "line_phased": (line_inputs, line_round, False),
    "tree_sparse": (tree_inputs, tree_round, True),
    "oracles_cli": (oracle_inputs, oracle_round, True),
}
