#!/usr/bin/env python3
"""aqsim benchmark: one named workload, its inputs made from a seed.

    python3 perfbench/run.py --workload line_phased --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/aqsim` and `scenarios/`. The
workload is repeated in rounds, one caller waiting on each call (a closed
loop, one process, one thread), until `--seconds` have passed; every round's
outputs are checked, and each timing is the median over the rounds, in
seconds calibrated against the host's speed at the time (see clock.py). The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
of traced rounds with `--trace 1`). The exit code is 0 only when every check
passed.

    --steady N        run the workload N times in fresh processes, seeds
                      seed..seed+N-1, and print median and quartiles of each
                      end-to-end metric, flagging spreads over their bound
    --update-golden   record this seed's output digests and exact counts
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
GOLDEN = os.path.join(HERE, "golden")
OUT = os.path.join(HERE, "_out")

MIN_ROUNDS = 3
DEADLINE_S = 150.0  # stop starting rounds that could end past this
UNSEEDED = "any"  # golden key of a workload whose inputs ignore the seed

def host_facts() -> str:
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{platform.system()} {platform.machine()}"
    )


def load_package():
    """Import aqsim from this checkout's src/ and nowhere else."""
    if not (
        os.path.isfile(os.path.join(SRC, "aqsim", "__init__.py"))
        and os.path.isfile(os.path.join(SCENARIOS, "line_saturating.yaml"))
    ):
        sys.exit(f"error: {ROOT} holds no aqsim checkout (src/aqsim and scenarios/)")
    sys.path.insert(0, SRC)
    import aqsim

    if not os.path.abspath(aqsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported aqsim from {aqsim.__file__}, not from {SRC}")


def median_of(rounds, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def end_to_end(rounds) -> dict:
    values = {
        "setup_s": median_of(rounds, lambda r: r.t["setup"]),
        "wall_s": median_of(rounds, lambda r: r.t["wall"]),
        "sim_steps_per_s": median_of(rounds, lambda r: r.counts["steps"] / r.t["engine"]),
        "hops_per_s": median_of(rounds, lambda r: r.counts["hops"] / r.t["engine"]),
        "verify_s": median_of(rounds, lambda r: r.t["verify"]),
        "sweep_instances_per_s": median_of(
            rounds, lambda r: r.counts["sweep_instances"] / r.t["sweep"]
        ),
        "cli_run_s": median_of(rounds, lambda r: r.t["cli_run"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return with_units(values, "end_to_end")


def per_layer(traced, untraced_walls) -> dict:
    """Median over traced rounds of each per-layer metric, plus trace_overhead."""
    import tracing

    per_round = [
        tracing.layer_metrics(tracer.spans, probe.runs, rnd.counts) for rnd, probe, tracer in traced
    ]
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    values["trace_overhead"] = statistics.median(r.t["wall"] for r, _, _ in traced) / (
        statistics.median(untraced_walls)
    )
    return with_units(values, "per_layer")


def declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def with_units(values: dict, kind: str) -> dict:
    """Values in BENCHMARK.json's order and units; a mismatch is a benchmark bug."""
    metrics = declared(kind)
    if {m["name"] for m in metrics} != set(values):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {metrics}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def exact_counts(rnd, probe=None) -> dict:
    """Counts that must repeat bit for bit (plus per-layer ones when traced)."""
    counts = dict(rnd.counts)
    if probe is not None:
        counts["key_evals"] = sum(r.key_evals for r in probe.runs)
        counts["inject_calls"] = sum(len(r.step_s) for r in probe.runs)
        counts["passthrough_delivered"] = sum(r.passthrough for r in probe.runs)
    return counts


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN, f"{workload}.json")


def load_golden(workload: str) -> dict:
    try:
        with open(golden_path(workload), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def compare(rnd, what: str, expected: dict, got_outputs: dict, got_counts: dict) -> None:
    """Fail the producing op for every output digest or count that differs."""
    exp_out = expected.get("outputs", {})
    for name in sorted(set(exp_out) | set(got_outputs)):
        if exp_out.get(name) != got_outputs.get(name):
            rnd.fail(name, f"output differs from {what}")
    for name, value in expected.get("counts", {}).items():
        if name in got_counts and got_counts[name] != value:
            rnd.fail(f"count.{name}", f"{got_counts[name]!r} differs from {what} ({value!r})")


def run_rounds(workload: str, seed: int, seconds: float, traced: bool, min_rounds=MIN_ROUNDS):
    import tracing
    import workloads as W

    inputs_fn, round_fn, _ = W.WORKLOADS[workload]
    out_dir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    plain, with_trace = [], []
    try:
        inp = inputs_fn(seed, out_dir, SCENARIOS)
        start = time.perf_counter()
        while True:
            gc.collect()  # each round starts from the same heap state
            rnd = W.Round()
            with rnd.section("wall"):
                round_fn(inp, rnd, W.Plain())
            rnd.finish()
            plain.append(rnd)
            if traced:
                tracer = tracing.Tracer(len(with_trace))
                probe = tracing.Traced(tracer)
                rnd = W.Round()
                gc.collect()
                with tracer.patched(), rnd.section("wall"):
                    round_fn(inp, rnd, probe)
                rnd.finish()
                with_trace.append((rnd, probe, tracer))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(plain)
            if len(plain) >= min_rounds and elapsed >= seconds:
                break
            if elapsed + per_round > DEADLINE_S:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return plain, with_trace


def check_rounds(workload: str, seed: int, plain, with_trace) -> list[str]:
    """Golden gate on the first round; every other round must repeat it."""
    import tracing
    import workloads as W

    seeded = W.WORKLOADS[workload][2]
    golden = load_golden(workload).get(str(seed) if seeded else UNSEEDED)
    notes = []
    first = plain[0]
    if golden is None:
        notes.append(f"no golden for seed {seed}: invariant, bound and repeat checks only")
    else:
        compare(first, "the committed golden", golden, first.outputs, exact_counts(first))
    ref = {"outputs": first.outputs, "counts": exact_counts(first)}
    for rnd in plain[1:]:
        compare(rnd, "round 0", ref, rnd.outputs, exact_counts(rnd))
    if with_trace:
        counts = exact_counts(with_trace[0][0], with_trace[0][1])
        if golden is not None:
            counts.update(golden.get("trace_counts", {}))
        counts.update(exact_counts(first))
        traced_ref = {"outputs": first.outputs, "counts": counts}
        for rnd, probe, tracer in with_trace:
            compare(rnd, "the untraced rounds and the golden", traced_ref, rnd.outputs,
                    exact_counts(rnd, probe))
            for name in tracing.missing_spans(workload, tracer.spans, probe.runs):
                rnd.fail(f"trace.{name}", "recorded zero calls in a traced round")
    return notes


def update_golden(workload: str, seed: int) -> int:
    import workloads as W

    plain, with_trace = run_rounds(workload, seed, 0.0, traced=True, min_rounds=1)
    rnd, probe, _ = with_trace[0]
    bad = [r for r in (plain + [rnd]) if r.failed_ops]
    if bad or plain[0].outputs != rnd.outputs:
        for r in bad:
            print("\n".join(r.messages[:20]), file=sys.stderr)
        print("error: round failed; golden not written", file=sys.stderr)
        return 1
    key = str(seed) if W.WORKLOADS[workload][2] else UNSEEDED
    data = load_golden(workload)
    counts = exact_counts(rnd, probe)
    data[key] = {
        "outputs": plain[0].outputs,
        "counts": exact_counts(plain[0]),
        "trace_counts": {k: counts[k] for k in ("key_evals", "inject_calls", "passthrough_delivered")},
    }
    os.makedirs(GOLDEN, exist_ok=True)
    with open(golden_path(workload), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(data.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"golden {workload} seed {key}: {len(plain[0].outputs)} outputs")
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import clock

    plain, with_trace = run_rounds(workload, seed, seconds, trace)
    notes = check_rounds(workload, seed, plain, with_trace)
    every = plain + [rnd for rnd, _, _ in with_trace]
    attempted = sum(r.attempted for r in every)
    failed = sum(len(r.failed_ops) for r in every)
    for note in notes:
        print(f"# {note}")
    for rnd in every:
        for msg in rnd.messages[:20]:
            print(f"FAIL {msg}", file=sys.stderr)
    print(f"# host: {host_facts()}; {len(plain)} untraced and {len(with_trace)} traced rounds")
    sections = sorted({k for r in plain for k in r.t})
    for what, attr in (("calibrated", "t"), ("raw", "raw")):
        print(f"# median {what} s per round: " + ", ".join(
            f"{k} {statistics.median(getattr(r, attr).get(k, 0.0) for r in plain):.4f}"
            for k in sections))
    for kind, scale in clock.REFERENCE_S.items():
        refs = [x for r in plain for x in r.clock.ref[kind]]
        print(f"# reference {kind}: median {statistics.median(refs) * 1e3:.3f} ms over "
              f"{len(refs)} marks, min {min(refs) * 1e3:.3f}, max {max(refs) * 1e3:.3f}; "
              f"REFERENCE_S {scale * 1e3:.3f} ms")
    if trace:
        import tracing

        os.makedirs(OUT, exist_ok=True)
        tracing.write_spans(
            os.path.join(OUT, f"spans_{workload}.jsonl"), workload, [t for _, _, t in with_trace]
        )
        metrics = per_layer(with_trace, [r.t["wall"] for r in plain])
    else:
        metrics = end_to_end(plain)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def steady(workload: str, seed: int, seconds: float, runs: int) -> int:
    """Repeat the untraced workload in fresh processes and report its spread."""
    bounds = {m["name"]: m["bound"] for m in declared("end_to_end")}
    values: dict[str, list[float]] = {}
    raw_walls: list[float] = []  # uncalibrated, to show what calibration removes
    ok = True
    for k in range(runs):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed + k), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# run {k + 1}/{runs} seed {seed + k}: exit {proc.returncode}, no result")
            print(proc.stderr[-2000:], file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in proc.stdout.splitlines():
            if line.startswith("# median raw s per round:"):
                raw_walls.append(float(line.split("wall ")[1].split(",")[0]))
        print(f"# run {k + 1}/{runs} seed {seed + k}: exit {proc.returncode}, correct {result['correct']}")
    print(f"# {workload}, {runs} runs of {seconds:g} s; host: {host_facts()}")
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "OVER BOUND"
            ok = ok and name == "setup_s"  # set-up spread is exempt, its median shift is not
        elif bound is not None and spread > bound / 3:
            flag = "over bound/3"
        print(f"{name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bound!s:>6} {flag}")
        summary[name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread, "flag": flag, "values": vals,
        }
    if len(raw_walls) >= 2:
        q1, med, q3 = statistics.quantiles(raw_walls, n=4)
        print(f"{'(raw wall_s)':24} {med:14.6g} {q1:14.6g} {q3:14.6g} {(q3 - q1) / med:8.3f}")
    print(json.dumps({"workload": workload, "runs": runs, "ok": ok, "metrics": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    load_package()
    sys.path.insert(0, HERE)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(W.WORKLOADS)}")
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs to give quartiles")
        return steady(args.workload, args.seed, args.seconds, args.steady)
    if args.update_golden:
        return update_golden(args.workload, args.seed)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
