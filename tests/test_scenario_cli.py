import contextlib
import dataclasses
import io
import itertools
import os
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from aqsim import cli, scenario, static_routing
from aqsim.adversary import AdversaryError, as_rate
from aqsim.analysis import (
    line_phase_time_bound,
    line_phase_time_limit,
    tree_phase_time_bound,
    tree_phase_time_limit,
)
from aqsim.scenario import ScenarioError, load_scenario, make_adversary, parse_scenario
from aqsim.sim_engine import EngineInvariantError

# ---- scenario files ------------------------------------------------------------


def test_load_line_saturating_scenario(scenario_dir):
    sc = load_scenario(str(scenario_dir / "line_saturating.yaml"))
    assert sc.name == "line_saturating"
    assert sc.network.edge_ids == ("e1", "e2", "e3", "e4")
    assert sc.adversary_kind == "saturating"
    assert sc.r == Fraction(1, 2)
    assert sc.b == 4
    assert sc.sat_path.edges == ("e1", "e2", "e3", "e4")
    assert sc.strategy_kind == "interval"
    assert sc.discipline == "FIFO"
    assert sc.improvement is False
    assert sc.max_steps == 200


def test_load_burst_scenario(scenario_dir):
    sc = load_scenario(str(scenario_dir / "burst_fifo.yaml"))
    assert sc.adversary_kind == "burst"
    assert sc.r is None
    assert len(sc.burst_paths) == 4
    assert sc.strategy_kind == "plain"


def test_load_improvement_scenario(scenario_dir):
    sc = load_scenario(str(scenario_dir / "improvement_tail.yaml"))
    assert sc.adversary_kind == "scripted"
    assert sc.strategy_kind == "interval"
    assert sc.improvement is False
    assert len(sc.events) == 9
    assert sc.events[-1].time == 8


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree(scenario_dir, tmp_path, monkeypatch):
    broken = tmp_path / "broken.yaml"
    broken.write_text("network: {nodes: [v0, v1]\n")
    files = sorted(scenario_dir.glob("*.yaml"))
    assert files
    loaded = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(scenario, "_Loader", loader)
        loaded.append([load_scenario(str(f)) for f in files])
        with pytest.raises(yaml.YAMLError):
            load_scenario(str(broken))
    assert loaded[0] == loaded[1]


def _valid_doc():
    return {
        "name": "demo",
        "network": {
            "nodes": ["v0", "v1"],
            "edges": [["v0", "v1", "e1"]],
        },
        "adversary": {"kind": "saturating", "r": 0.5, "b": 2, "path": ["e1"]},
        "strategy": {"kind": "interval", "discipline": "FIFO"},
        "run": {"max_steps": 50},
    }


def test_parse_scenario_happy_path():
    sc = parse_scenario(_valid_doc())
    assert sc.name == "demo"
    assert sc.r == Fraction(1, 2)


def test_parse_collects_every_problem_with_field_paths():
    doc = _valid_doc()
    doc["adversary"]["r"] = 1.5
    doc["strategy"]["discipline"] = "BOGUS"
    doc["run"]["max_steps"] = 0
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    problems = err.value.problems
    assert len(problems) == 3
    assert any(p.startswith("adversary.r:") for p in problems)
    assert any(p.startswith("strategy.discipline:") for p in problems)
    assert any(p.startswith("run.max_steps:") for p in problems)


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.update(extra={"x": 1}), "extra"),
        (lambda d: d["adversary"].update(paths=[["e1"]]), "adversary"),
        (lambda d: d["adversary"].update(kind="burst"), "adversary"),
        (lambda d: d["adversary"].pop("r"), "adversary.r"),
        (lambda d: d["adversary"].update(b=True), "adversary.b"),
        (lambda d: d["adversary"].update(path=["e9"]), "adversary.path"),
        (lambda d: d["strategy"].update(wake="never"), "strategy.wake"),
        (lambda d: d["network"]["edges"].append(["v0", "v1", "e2"]), "network"),
        (lambda d: d.update(name="a/b"), "name"),
        (lambda d: d["run"].update(max_steps=True), "run.max_steps"),
    ],
)
def test_parse_rejects_structural_problems(mutate, needle):
    doc = _valid_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any(needle in p for p in err.value.problems)


def _nested(levels):
    value = []
    for _ in range(levels):
        value = [value]
    return value


def _aliased(width, levels):
    value = []
    for _ in range(levels):
        value = [value] * width
    return value


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d, v: d["run"].update(max_steps=v), "run.max_steps"),
        (lambda d, v: d["adversary"].update(b=v), "adversary.b"),
        (lambda d, v: d["adversary"].update(path=v), "adversary.path"),
        (lambda d, v: d["strategy"].update(discipline=v), "strategy.discipline"),
        (lambda d, v: d["strategy"].update(improvement=v), "strategy.improvement"),
        (lambda d, v: d["network"]["edges"][0].__setitem__(2, v), "network"),
    ],
)
def test_parse_names_a_value_nested_too_deeply_for_repr(mutate, field):
    # repr of a list 3,000 levels deep exhausts the recursion limit, and the
    # repr of 9 aliases a level over 8 levels is 9^8 lists long
    for value, quote in (
        (_nested(3_000), "[[[[[[[...]]]]]]]"),
        (_aliased(9, 8), "[[[[[[[...], [...], [...], [...], [...], [...], ...], "),
    ):
        doc = _valid_doc()
        mutate(doc, value)
        started = time.perf_counter()
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert time.perf_counter() - started < 1
        problems = err.value.problems
        assert [p.split(": ")[0] for p in problems] == [field]
        assert quote in problems[0]


def test_parse_reports_every_unknown_key_and_count_in_order():
    doc = _valid_doc()
    doc["colour"] = "red"
    doc["adversary"] = {
        "kind": "scripted", "r": 0.5, "b": True, "rate": 2,
        "events": [{"step": 0, "path": ["e1"]}],
    }
    doc["strategy"] = {"kind": "plain", "discipline": "FIFO", "queue": "LIFO"}
    doc["run"] = {"max_steps": 1.5, "seed": 7}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.problems == [
        "colour: unknown section",
        "adversary.rate: unknown field",
        "adversary.b: must be an integer >= 1, got True",
        "adversary.events[0].step: must be an integer >= 1, got 0",
        "strategy.queue: unknown field",
        "run.seed: unknown field",
        "run.max_steps: must be an integer >= 1, got 1.5",
    ]


def test_parse_rejects_improvement_on_plain_strategy():
    doc = _valid_doc()
    doc["strategy"] = {"kind": "plain", "discipline": "FIFO", "improvement": True}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any("strategy.improvement" in p for p in err.value.problems)


def test_parse_rejects_unsorted_events():
    doc = _valid_doc()
    doc["adversary"] = {
        "kind": "scripted",
        "r": 0.5,
        "b": 2,
        "events": [{"step": 5, "path": ["e1"]}, {"step": 1, "path": ["e1"]}],
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert any("sorted" in p for p in err.value.problems)


def test_name_defaults_to_file_stem(tmp_path):
    doc = textwrap.dedent(
        """
        network:
          nodes: [v0, v1]
          edges: [[v0, v1, e1]]
        adversary: {kind: burst, b: 1, paths: [[e1]]}
        strategy: {kind: plain, discipline: FIFO}
        run: {max_steps: 10}
        """
    )
    f = tmp_path / "my_case.yaml"
    f.write_text(doc)
    assert load_scenario(str(f)).name == "my_case"


def test_make_adversary_returns_fresh_instances():
    sc = parse_scenario(_valid_doc())
    assert make_adversary(sc) is not make_adversary(sc)


def test_make_adversary_rejects_an_unknown_kind():
    # parse_scenario admits only the known kinds; a hand-built Scenario may hold any
    sc = dataclasses.replace(parse_scenario(_valid_doc()), adversary_kind="periodic")
    with pytest.raises(ScenarioError) as err:
        make_adversary(sc)
    assert err.value.problems == ["adversary.kind: unknown kind 'periodic'"]


def test_make_adversary_rejects_inadmissible_script():
    doc = _valid_doc()
    doc["adversary"] = {
        "kind": "scripted",
        "r": 0.5,
        "b": 1,
        "events": [{"step": t, "path": ["e1"]} for t in (1, 2, 3)],
    }
    sc = parse_scenario(doc)  # structurally fine
    with pytest.raises(AdversaryError):
        make_adversary(sc)


# ---- argument parsing --------------------------------------------------------------


def test_parser_run_defaults():
    args = cli.build_parser().parse_args(["run", "case.yaml"])
    assert args.command == "run"
    assert args.scenario == "case.yaml"
    assert args.max_steps is None
    assert args.strategy is None
    assert args.improvement is None
    assert args.out == "."


def test_parser_bounds_defaults():
    args = cli.build_parser().parse_args(["bounds", "line"])
    assert (args.r, args.b, args.d) == ("0.5", 4.0, 4.0)  # --r is read by `as_rate` later
    assert (args.c1, args.c2, args.c3) == (1.0, 1.0, 0.0)
    assert args.i_max == 20
    assert args.log_base == 2.0


def test_parser_sweep_defaults():
    args = cli.build_parser().parse_args(["sweep"])
    assert args.max_packets == 3
    assert args.max_edges == 3
    assert args.shapes == "line,tree"


def test_parser_rejects_unknown_formula():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["bounds", "circle"])


# ---- the run command -----------------------------------------------------------------


def test_run_writes_all_csvs(tmp_path, scenario_dir, capsys):
    rc = cli.main(["run", str(scenario_dir / "line_saturating.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "phases completed" in out
    assert "phase duration growth: BOUNDED" in out
    assert "phase starts recur: step 16, period 6 steps (1 phases)\n" in out
    for suffix in ("trace", "packets", "phases"):
        f = tmp_path / f"line_saturating_{suffix}.csv"
        assert f.exists()
        first = f.read_text().splitlines()[0]
        assert first.startswith("# scenario=line_saturating")


def test_run_of_a_scripted_source_reports_no_recurrence(tmp_path, scenario_dir, capsys):
    # a script declares no period, so its phase starts are not compared
    rc = cli.main(["run", str(scenario_dir / "improvement_tail.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "phases completed" in out
    assert "phase starts recur" not in out


def test_plain_run_of_a_saturating_source_reports_its_recurrence(tmp_path, scenario_dir, capsys):
    text = (scenario_dir / "line_saturating.yaml").read_text()
    f = tmp_path / "plain.yaml"
    f.write_text(text.replace("kind: interval", "kind: plain"))
    assert cli.main(["run", str(f), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "strategy=plain(FIFO)" in out
    assert "steps recur: step 16, period 2 steps\n" in out
    assert "phase starts recur" not in out


def test_run_plain_scenario_has_no_phase_csv(tmp_path, scenario_dir):
    rc = cli.main(["run", str(scenario_dir / "burst_fifo.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "burst_fifo_trace.csv").exists()
    assert not (tmp_path / "burst_fifo_phases.csv").exists()


@pytest.mark.parametrize("under", ["", "sub"])
def test_run_out_naming_a_file_exits_2_before_running(
    scenario_dir, tmp_path, monkeypatch, capsys, under
):
    # --out is an existing file, or a directory path under one
    target = tmp_path / "taken"
    target.write_text("keep me\n")

    def explode(*args, **kwargs):
        raise EngineInvariantError("the run must not start")

    monkeypatch.setattr(cli, "run", explode)
    rc = cli.main(["run", str(scenario_dir / "burst_fifo.yaml"), "--out", str(target / under)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out: ")
    assert target.read_text() == "keep me\n"


def test_run_csv_target_that_is_a_directory_exits_2(scenario_dir, tmp_path, capsys):
    (tmp_path / "burst_fifo_packets.csv").mkdir()
    rc = cli.main(["run", str(scenario_dir / "burst_fifo.yaml"), "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out: ")
    assert "wrote" not in captured.out
    # the set is whole or absent: the trace CSV, renamed before the packets
    # rename failed, is removed again, and no temporary file is left
    assert not (tmp_path / "burst_fifo_trace.csv").exists()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["burst_fifo_packets.csv"]


def test_run_failed_csv_write_leaves_no_file(scenario_dir, tmp_path, monkeypatch, capsys):
    def failing(trace, dest, header_comment=""):
        dest.write("step,partial\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_packets_csv", failing)
    rc = cli.main(["run", str(scenario_dir / "burst_fifo.yaml"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --out: [Errno 28] No space left on device"]
    assert list(tmp_path.iterdir()) == []


def test_run_interrupted_csv_write_leaves_no_file(scenario_dir, tmp_path, monkeypatch):
    # the second of three writers is interrupted part-way: the trace CSV is
    # already written to its temporary name and the phases CSV never starts
    def interrupted(trace, dest, header_comment=""):
        dest.write("packet_id,partial\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_packets_csv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", str(scenario_dir / "line_saturating.yaml"), "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_entry_exits_130_on_an_interrupt(scenario_dir, tmp_path, monkeypatch, capsys):
    def interrupted(trace, dest, header_comment=""):
        dest.write("packet_id,partial\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_packets_csv", interrupted)
    monkeypatch.setattr(signal, "signal", lambda *args: None)  # keep this process's SIGPIPE action
    scenario_file = str(scenario_dir / "line_saturating.yaml")
    monkeypatch.setattr(sys, "argv", ["aqsim", "run", scenario_file, "--out", str(tmp_path)])
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
    except KeyboardInterrupt:  # would end the test session, not fail one test
        pytest.fail("the interrupt escaped entry()")
    assert exit_.value.code == 130
    out, err = capsys.readouterr()
    assert err == "error: interrupted\n"
    assert list(tmp_path.iterdir()) == []


def test_run_missing_file_exits_2(capsys):
    assert cli.main(["run", "no_such_file.yaml"]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_invalid_yaml_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.yaml"
    f.write_text("a: [unclosed\n")
    assert cli.main(["run", str(f)]) == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_run_scenario_problems_exit_2_and_name_fields(tmp_path, capsys):
    f = tmp_path / "bad.yaml"
    f.write_text(
        textwrap.dedent(
            """
            network:
              nodes: [v0, v1]
              edges: [[v0, v1, e1]]
            adversary: {kind: saturating, r: 1.5, b: 2, path: [e1]}
            strategy: {kind: interval, discipline: FIFO}
            run: {max_steps: 10}
            """
        )
    )
    assert cli.main(["run", str(f)]) == 2
    assert "adversary.r" in capsys.readouterr().err


def _scripted(d):
    d["adversary"] = {"kind": "scripted", "r": 0.5, "b": 1, "events": [{"step": 1, "path": ["e1"]}]}
    return d["adversary"]


@pytest.mark.parametrize(
    "mutate, argv, err",
    [
        (lambda d: d, ["--max-steps", "0"], "error: run.max_steps: must be >= 1, got 0\n"),
        (
            lambda d: d, ["--max-steps", "99999999999999999999"],
            f"error: run.max_steps: must be at most {sys.maxsize}, got 99999999999999999999\n",
        ),
        (
            lambda d: d["run"].update(max_steps=sys.maxsize + 1), [],
            f"error: run.max_steps: must be at most {sys.maxsize}, got {sys.maxsize + 1}\n",
        ),
        (lambda d: [d], [], "error: top level: expected a mapping\n"),
        (lambda d: d.update(name=7), [], "error: name: must be a non-empty string\n"),
        (
            lambda d: d.pop("network"), [],
            "error: network: required mapping with 'nodes' and 'edges'\n",
        ),
        (
            lambda d: d["network"].update(nodes=[]), [],
            "error: network.nodes: must be a non-empty list\n",
        ),
        (
            lambda d: d["network"].update(edges="e1"), [],
            "error: network.edges: must be a list of [source, target, id] triples\n",
        ),
        (
            lambda d: d["network"]["edges"].append(["v0", "v1"]), [],
            "error: network.edges[1]: must be a [source, target, id] triple\n",
        ),
        (
            lambda d: d["network"]["edges"].append(["v9", "v0", "e2"]), [],
            "error: network: edge 'e2': source node 'v9' not declared\n",
        ),
        (
            lambda d: d["adversary"].update(path=[]), [],
            "error: adversary.path: must be a non-empty list of edge ids\n",
        ),
        (lambda d: d.pop("adversary"), [], "error: adversary: required mapping with a 'kind'\n"),
        (
            lambda d: d["adversary"].update(kind="greedy"), [],
            "error: adversary.kind: must be one of scripted, burst, saturating\n",
        ),
        (
            lambda d: _scripted(d).update(events=[]), [],
            "error: adversary.events: must be a non-empty list of {step, path}\n",
        ),
        (
            lambda d: _scripted(d).update(events=[7]), [],
            "error: adversary.events[0]: must be a mapping with 'step' and 'path'\n",
        ),
        (
            lambda d: _scripted(d).update(path=["e1"]), [],
            "error: adversary: scripted takes 'events', not 'path'/'paths'\n",
        ),
        (
            lambda d: d.pop("strategy"), [],
            "error: strategy: required mapping with 'kind' and 'discipline'\n",
        ),
        (
            lambda d: d["strategy"].update(kind="batch"), [],
            "error: strategy.kind: must be one of plain, interval\n",
        ),
        (
            lambda d: d["strategy"].update(improvement="sometimes"), [],
            "error: strategy.improvement: must be a boolean, got 'sometimes'\n",
        ),
        (lambda d: d.pop("run"), [], "error: run: required mapping with 'max_steps'\n"),
        (
            # a burst is a step-1 script: two paths over e1 break b=1 on [1,1]
            lambda d: d.update(
                adversary={"kind": "burst", "b": 1, "paths": [["e1"], ["e1"]]},
                strategy={"kind": "plain", "discipline": "FIFO"},
            ),
            [],
            "error: adversary: inadmissible script: edge 'e1': 2 injections in steps [1,1]"
            " exceed floor(r*1)+b = 1\n",
        ),
        (
            # a YAML list is unhashable, so it cannot be looked up among the kinds
            lambda d: d["adversary"].update(kind=["scripted"]), [],
            "error: adversary.kind: must be one of scripted, burst, saturating\n",
        ),
        (
            lambda d: d["adversary"].update(events=[{"step": 1, "path": ["e1"]}]), [],
            "error: adversary: saturating takes 'path', not 'paths'/'events'\n",
        ),
        (
            lambda d: d["adversary"].update(kind="burst", paths=[["e1"]]), [],
            "error: adversary: burst takes 'paths', not 'path'/'events'\n",
        ),
    ],
    ids=[
        "max-steps-0", "max-steps-past-maxsize", "yaml-max-steps-past-maxsize", "top-level", "name", "no-network", "empty-nodes", "edges-not-list",
        "edge-not-triple", "undeclared-source", "empty-path", "no-adversary",
        "unknown-adversary-kind", "empty-events", "event-not-mapping", "scripted-path",
        "no-strategy", "unknown-strategy-kind", "improvement-not-bool", "no-run",
        "overloaded-burst", "unhashable-adversary-kind", "saturating-events", "burst-path",
    ],
)
def test_run_refusal_exits_2_with_exact_stderr(tmp_path, capsys, mutate, argv, err):
    # each refusal of the run command that no other test pins, message for message
    doc = _valid_doc()
    replaced = mutate(doc)  # a mutation that returns a list replaces the whole document
    f = tmp_path / "refused.yaml"
    f.write_text(yaml.safe_dump(replaced if isinstance(replaced, list) else doc))
    assert cli.main(["run", str(f), "--out", str(tmp_path / "out"), *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert not (tmp_path / "out").exists()


def _rate_scenario(tmp_path, rate: str) -> str:
    f = tmp_path / "rate.yaml"
    f.write_text(
        textwrap.dedent(
            f"""
            network:
              nodes: [v0, v1]
              edges: [[v0, v1, e1]]
            adversary: {{kind: saturating, r: {rate}, b: 2, path: [e1]}}
            strategy: {{kind: interval, discipline: FIFO}}
            run: {{max_steps: 10}}
            """
        )
    )
    return str(f)


@pytest.mark.parametrize("rate", [".nan", ".inf", '"abc"', '"1/0"'])
def test_run_unreadable_rate_exits_2(tmp_path, capsys, rate):
    assert cli.main(["run", _rate_scenario(tmp_path, rate)]) == 2
    assert "error: adversary.r: cannot read injection rate" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ['"1e5000"', '"1e-5000"', '"1e-10000000"'])
def test_run_huge_exponent_rate_exits_2(tmp_path, capsys, rate):
    assert cli.main(["run", _rate_scenario(tmp_path, rate), "--out", str(tmp_path)]) == 2
    assert "error: adversary.r: injection rate exponent exceeds 4300" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["r: 0.5", "b: 2"])
def test_run_huge_integer_literal_exits_2(tmp_path, capsys, field):
    # PyYAML builds an unquoted integer with int(), which refuses over 4,300 digits
    _rate_scenario(tmp_path, "0.5")  # writes tmp_path / "rate.yaml"
    f = tmp_path / "rate.yaml"
    name = field.split(":")[0]
    f.write_text(f.read_text().replace(field, f"{name}: 1{'0' * 5000}"))
    with pytest.raises(ScenarioError, match="cannot read a value"):
        load_scenario(str(f))
    assert cli.main(["run", str(f), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: cannot read a value: ")
    assert "4300 digits" in err and len(err) < 150


_TOO_DEEP = f"error: scenario: nested more than {scenario.MAX_DEPTH:,} levels deep\n"


@pytest.mark.parametrize(
    "text",
    ["network: " + "[" * 30_000 + "]" * 30_000 + "\n", "- " * 30_000 + "x\n"],
    ids=["flow", "compact"],
)
def test_run_of_a_deeply_nested_scenario_exits_2(tmp_path, text):
    # libyaml composes recursively in C: 30,000 levels overflowed its stack
    f = tmp_path / "deep.yaml"
    f.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    cmd = [sys.executable, "-m", "aqsim.cli", "run", str(f), "--out", str(tmp_path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", _TOO_DEEP)
    # the walk stops one level past the limit; the interpreter's start is not timed
    started = time.perf_counter()
    with pytest.raises(ScenarioError):
        load_scenario(str(f))
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("depth", [scenario.MAX_DEPTH, scenario.MAX_DEPTH + 1])
def test_depth_limit_is_exact(tmp_path, depth):
    f = tmp_path / "deep.yaml"
    f.write_text("[" * depth + "]" * depth + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    refused = [f"scenario: nested more than {scenario.MAX_DEPTH:,} levels deep"]
    if depth > scenario.MAX_DEPTH:
        assert err.value.problems == refused
    else:  # loaded, then refused for its shape
        assert err.value.problems == ["top level: expected a mapping"]


def test_depth_check_parses_no_scenario_of_ordinary_size(scenario_dir, monkeypatch):
    # the byte count bounds the depth, so only a file it does not clear is parsed twice
    def explode(*args, **kwargs):
        raise AssertionError("parsed for the depth check")

    monkeypatch.setattr(scenario.yaml, "parse", explode)
    for f in sorted(scenario_dir.glob("*.yaml")):
        load_scenario(str(f))


def test_pure_python_loader_refuses_deep_nesting(tmp_path, monkeypatch):
    # the pure-Python composer, used where libyaml is missing, recurses in
    # Python and runs out of frames long before the depth limit
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    f = tmp_path / "deep.yaml"
    f.write_text("network: " + "[" * 1_200 + "]" * 1_200 + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    assert err.value.problems == ["scenario: nested too deeply for the YAML loader"]


def test_pure_python_loader_refuses_deep_nesting_quickly(tmp_path, monkeypatch):
    # its scanner checks every open flow level at each token, so a walk to
    # the 10,000-level limit would take about 25 s; it stops at half the
    # recursion limit, past which the composer cannot go anyway
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    f = tmp_path / "deep.yaml"
    f.write_text("network: " + "[" * 30_000 + "]" * 30_000 + "\n")
    started = time.perf_counter()
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    assert time.perf_counter() - started < 2
    assert err.value.problems == ["scenario: nested too deeply for the YAML loader"]


def test_pure_python_loader_refuses_a_deep_prefix_before_a_malformed_tail(tmp_path, monkeypatch):
    # the first 2*limit characters are walked first: they are too deep, so
    # the bad character after them is never scanned (a whole walk meets it
    # within the scanner's look-ahead and raises a YAMLError instead)
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    limit = scenario._walk_limit()
    f = tmp_path / "deep.yaml"
    f.write_text("[" * (limit + 1) + " " * limit + "@\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    assert err.value.problems == ["scenario: nested too deeply for the YAML loader"]


def test_pure_python_loader_refuses_a_document_deep_only_past_its_prefix(tmp_path, monkeypatch):
    # limit levels in the first 2*limit characters, one more after them: the
    # prefix decides nothing and the whole text is walked
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    limit = scenario._walk_limit()
    text = "[ " * (limit + 1) + "]" * (limit + 1) + "\n"
    assert text[: 2 * limit].count("[") == limit
    f = tmp_path / "deep.yaml"
    f.write_text(text)
    assert scenario._deeper_than(limit, text, str(f))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    assert err.value.problems == ["scenario: nested too deeply for the YAML loader"]


def test_depth_prefix_leaves_out_a_collection_its_cut_opens(monkeypatch):
    # cut after `a:`, the prefix reads a one-pair mapping at level limit + 1;
    # the whole text reads the plain scalar `a:b` there, so it is limit deep
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    limit = scenario._walk_limit()
    text = "[" * limit + "a" * (limit - 1) + ":b" + "]" * limit + "\n"
    assert text[2 * limit - 1] == ":"
    assert not scenario._deeper_than(limit, text, "deep.yaml")


def test_pure_python_loader_refuses_what_its_walk_lets_through_too_deep(tmp_path, monkeypatch):
    # a document exactly as deep as the walk's limit passes the walk (its
    # comment lines pass the byte count), but its composition, two frames a
    # level on top of the frames already in use, runs out of frames
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    depth = scenario._walk_limit()
    f = tmp_path / "deep.yaml"
    f.write_text("#\n" * depth * 4 + "[" * depth + "]" * depth + "\n")
    assert not scenario._deeper_than(depth, f.read_text(), str(f))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    assert err.value.problems == ["scenario: nested too deeply for the YAML loader"]


def test_pure_python_loader_composes_what_its_walk_lets_through(tmp_path, monkeypatch):
    # a document walked (its comment lines pass the byte count) but under
    # the walk's limit is composed, not refused for depth
    monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    depth = sys.getrecursionlimit() // 4
    f = tmp_path / "deep.yaml"
    f.write_text("#\n" * depth * 4 + "[" * depth + "]" * depth + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(f))
    assert err.value.problems == ["top level: expected a mapping"]


# 8 levels of 9 aliases: the discipline is 9^8 = 43,046,721 strings
_ALIAS_BOMB = """\
network: {nodes: [v0, v1], edges: [[v0, v1, e1]]}
adversary: {kind: saturating, r: 1/2, b: 2, path: [e1]}
run: {max_steps: 10}
strategy:
  kind: plain
  discipline: [&g [&f [&e [&d [&c [&b [&a [x, x, x, x, x, x, x, x, x],
    *a, *a, *a, *a, *a, *a, *a, *a], *b, *b, *b, *b, *b, *b, *b, *b],
    *c, *c, *c, *c, *c, *c, *c, *c], *d, *d, *d, *d, *d, *d, *d, *d],
    *e, *e, *e, *e, *e, *e, *e, *e], *f, *f, *f, *f, *f, *f, *f, *f],
    *g, *g, *g, *g, *g, *g, *g, *g]
"""


@pytest.mark.parametrize("loader", ["default", "pure-Python"])
def test_run_refuses_an_alias_bomb_quickly(tmp_path, monkeypatch, capsys, loader):
    if loader == "pure-Python":
        monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
    f = tmp_path / "bomb.yaml"
    f.write_text(_ALIAS_BOMB)
    started = time.perf_counter()
    assert cli.main(["run", str(f), "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err) < 1_000_000
    assert err.startswith("error: strategy.discipline: must be one of")
    assert err.count("\n") == 1


def test_anchors_and_aliases_load_as_their_values(tmp_path):
    shared = textwrap.dedent(
        """\
        name: shared
        network:
          nodes: [v0, v1, v2]
          edges: [[v0, v1, e1], [v1, v2, e2]]
        adversary:
          kind: scripted
          r: 1/2
          b: 2
          events:
            - {step: 1, path: &p [e1, e2]}
            - {step: 2, path: *p}
            - {step: 4, path: *p}
        strategy: {kind: interval, discipline: FIFO}
        run: {max_steps: 20}
        """
    )
    texts = {"aliased": shared, "expanded": shared.replace("&p ", "").replace("*p", "[e1, e2]")}
    loaded, written = {}, {}
    for form, text in texts.items():
        f = tmp_path / f"{form}.yaml"
        f.write_text(text)
        loaded[form] = load_scenario(str(f))
        out = tmp_path / form
        assert cli.main(["run", str(f), "--out", str(out)]) == 0
        written[form] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "*p" not in texts["expanded"]
    assert len(loaded["aliased"].events) == 3
    assert loaded["aliased"] == loaded["expanded"]
    assert sorted(written["aliased"]) == ["shared_packets.csv", "shared_phases.csv", "shared_trace.csv"]
    assert written["aliased"] == written["expanded"]


def test_load_errors_read_as_from_the_file(tmp_path):
    # bad UTF-8 past the decoder's first chunk is named by its offset in the
    # file (a stream decoded in chunks would name 3625, its offset in a
    # chunk), and a YAML error mark names the file as a direct load does
    pad = b"# " + b"x" * 20_000 + b"\n"
    f = tmp_path / "late.yaml"
    f.write_bytes(pad + b"name: \xff\n")
    with pytest.raises(ValueError) as loaded:
        load_scenario(str(f))
    assert "0xff in position 20009: invalid start byte" in str(loaded.value)
    f.write_bytes(pad + b"name: [unclosed\n")
    with open(f, encoding="utf-8") as fh, pytest.raises(yaml.YAMLError) as direct:
        yaml.load(fh, Loader=scenario._Loader)
    with pytest.raises(yaml.YAMLError) as loaded:
        load_scenario(str(f))
    assert str(f) in str(direct.value)
    assert str(direct.value) == str(loaded.value)


@pytest.mark.parametrize("b", [10**20, scenario.SATURATING_B_LIMIT + 1])
def test_run_refuses_a_saturating_burst_over_the_limit(tmp_path, monkeypatch, capsys, b):
    # the step-1 burst is a list of b paths: 10**20 overflowed an index, and
    # any b in the billions asked for gigabytes before step 1
    def explode(*args, **kwargs):
        raise AssertionError("the source was built")

    monkeypatch.setattr(scenario, "saturating_adversary", explode)
    _rate_scenario(tmp_path, "0.5")  # writes tmp_path / "rate.yaml"
    f = tmp_path / "rate.yaml"
    f.write_text(f.read_text().replace("b: 2", f"b: {b}"))
    assert cli.main(["run", str(f), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: adversary.b: must be at most {scenario.SATURATING_B_LIMIT:,}"
        f" for the saturating adversary, got {b}\n"
    )


def test_saturating_burst_limit_is_inclusive_and_for_the_saturating_kind_only():
    doc = _valid_doc()
    doc["adversary"]["b"] = scenario.SATURATING_B_LIMIT
    assert parse_scenario(doc).b == scenario.SATURATING_B_LIMIT
    # a burst or a script only counts injections against b
    doc["adversary"] = {"kind": "burst", "b": 10**20, "paths": [["e1"]]}
    doc["strategy"] = {"kind": "plain", "discipline": "FIFO"}
    assert parse_scenario(doc).b == 10**20


@pytest.mark.parametrize(
    "nodes, edges, paths, needle",
    [
        ("[[1, 2], v1]", "[[v0, v1, e1]]", "[[e1]]", "error: network: node ids"),
        ("[v0, v1]", "[[v0, v1, [e1]]]", "[[e1]]", "error: network: edge ['e1']"),
        ("[v0, v1]", "[[v0, v1, e1]]", "[[{x: 1}]]", "error: adversary.paths[0]: not a"),
    ],
)
def test_run_unhashable_ids_exit_2(tmp_path, capsys, nodes, edges, paths, needle):
    f = tmp_path / "ids.yaml"
    f.write_text(
        textwrap.dedent(
            f"""
            network:
              nodes: {nodes}
              edges: {edges}
            adversary: {{kind: burst, b: 1, paths: {paths}}}
            strategy: {{kind: plain, discipline: FIFO}}
            run: {{max_steps: 10}}
            """
        )
    )
    assert cli.main(["run", str(f)]) == 2
    assert needle in capsys.readouterr().err


def test_run_improvement_override_needs_interval(scenario_dir, tmp_path, capsys):
    rc = cli.main([
        "run", str(scenario_dir / "burst_fifo.yaml"),
        "--improvement", "on", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "interval" in capsys.readouterr().err


def test_run_unknown_strategy_override_exits_2(scenario_dir, tmp_path, capsys):
    rc = cli.main([
        "run", str(scenario_dir / "burst_fifo.yaml"),
        "--strategy", "NOPE", "--out", str(tmp_path),
    ])
    assert rc == 2


def test_run_unknown_strategy_override_creates_no_out_dir(scenario_dir, tmp_path, capsys):
    out = tmp_path / "new"
    for name in ("BOGUS", "bogus"):  # quoted as typed
        rc = cli.main([
            "run", str(scenario_dir / "burst_fifo.yaml"), "--strategy", name, "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown discipline '{name}'; expected one of")
        assert not out.exists()


def test_run_strategy_override_reads_any_case(scenario_dir, tmp_path, capsys):
    written = []
    for name in ("LIS", "lis"):
        rc = cli.main([
            "run", str(scenario_dir / "burst_fifo.yaml"), "--strategy", name,
            "--out", str(tmp_path),
        ])
        assert rc == 0
        csvs = {f.name: f.read_bytes() for f in tmp_path.glob("*.csv")}
        written.append((capsys.readouterr().out, csvs))
    assert "strategy=plain(LIS)" in written[0][0]
    assert written[0] == written[1]


def test_run_inadmissible_script_exits_2(tmp_path, capsys):
    f = tmp_path / "hot.yaml"
    f.write_text(
        textwrap.dedent(
            """
            network:
              nodes: [v0, v1]
              edges: [[v0, v1, e1]]
            adversary:
              kind: scripted
              r: 0.5
              b: 1
              events:
                - {step: 1, path: [e1]}
                - {step: 2, path: [e1]}
                - {step: 3, path: [e1]}
            strategy: {kind: plain, discipline: FIFO}
            run: {max_steps: 10}
            """
        )
    )
    assert cli.main(["run", str(f)]) == 2
    assert "inadmissible" in capsys.readouterr().err


def test_run_sparse_long_horizon_script(tmp_path, capsys):
    # loading checks the script's admissibility; that must not scan 10**9 steps
    f = tmp_path / "sparse.yaml"
    f.write_text(
        textwrap.dedent(
            """
            name: sparse
            network:
              nodes: [v0, v1]
              edges: [[v0, v1, e1]]
            adversary:
              kind: scripted
              r: 0.5
              b: 1
              events:
                - {step: 1, path: [e1]}
                - {step: 1000000000, path: [e1]}
            strategy: {kind: plain, discipline: FIFO}
            run: {max_steps: 10}
            """
        )
    )
    rc = cli.main(["run", str(f), "--max-steps", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert "steps run: 5 (truncated)" in capsys.readouterr().out
    for suffix in ("trace", "packets"):
        assert (tmp_path / f"sparse_{suffix}.csv").exists()


def test_run_invariant_break_exits_3(scenario_dir, tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise EngineInvariantError("synthetic failure for the exit-code contract")

    monkeypatch.setattr(cli, "run_interval", explode)
    rc = cli.main(["run", str(scenario_dir / "line_saturating.yaml"), "--out", str(tmp_path)])
    assert rc == 3
    assert "invariant" in capsys.readouterr().err


# ---- the bounds command -----------------------------------------------------------------


def test_bounds_line_defaults_are_constant_eight(capsys):
    assert cli.main(["bounds", "line"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# formula=line r=0.5 b=4")
    assert lines[1] == "i,value"
    assert lines[2] == "1,8.0"
    assert lines[21] == "20,8.0"
    assert lines[22] == "limit,8.0"
    assert lines[23] == "growth,BOUNDED"


def test_bounds_default_header_equals_the_parsed_one(capsys):
    assert cli.main(["bounds", "line"]) == 0
    default = capsys.readouterr().out
    assert cli.main(["bounds", "line", "--b", "4", "--d", "4"]) == 0
    assert capsys.readouterr().out == default


def test_bounds_tree_doubling_series(capsys):
    assert cli.main(["bounds", "tree", "--r", "0.5", "--b", "1", "--d", "4",
                     "--i-max", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "1,4.0"
    assert lines[11] == "10,2048.0"
    assert lines[12] == "growth,DIVERGENT"  # no 'limit' row: it is infinite


def test_bounds_tree_limit_with_a_fraction_rate(capsys):
    # in floats, (1/49)*49 falls short of 1 and the limit would read 0.0
    assert cli.main(["bounds", "tree", "--r", "1/49", "--b", "3", "--d", "49"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# formula=tree r=1/49 b=3.0 d=49.0")
    assert "limit,147.0" in lines


def test_bounds_tree_series_with_a_fraction_rate(capsys):
    # r*d = 1 is formed exactly, so every term is b*d; in floats, r^(i-1)*d^i
    # drifted to 146.99999999999997 from i = 3 on
    assert cli.main(["bounds", "tree", "--r", "1/49", "--b", "3", "--d", "49"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [f"{i},147.0" for i in range(1, 21)] + ["limit,147.0", "growth,BOUNDED"]


def test_bounds_tree_series_falls_to_zero_without_overflow(capsys):
    # r*d = 1/5: the terms tend to 0, though d**i alone leaves the float range
    # at i = 1024
    assert cli.main(["bounds", "tree", "--r", "0.1", "--d", "2", "--i-max", "1030"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1031] == "1030,0.0"
    assert "limit,0.0" in lines


_GRID_RATES = ("1/10", "1/3", "1/2", "2/3", "0.7", "9/10", "0.99", "3/7", "0.1", "0.25")


@pytest.mark.parametrize("formula", ["line", "theorem-time", "theorem-packets", "tree"])
def test_bounds_limit_is_its_exact_value_rounded_once(formula):
    # each limit row is float() of the limit formed in Fractions from the
    # typed values; in floats, line --r 1/3 --d 4 gave 5.999999999999999
    family = formula.startswith("theorem")
    for typed, d, b, (c1, c2, c3) in itertools.product(
        _GRID_RATES, ("1", "3", "4", "7", "16", "100"), ("1", "4"),
        [("0.5", "1", "0"), ("1", "0.3", "2.5"), ("0.7", "3", "0.1")] if family else [(None,) * 3],
    ):
        argv = [formula, "--r", typed, "--b", b, "--d", d, "--i-max", "3"]
        if family:
            argv += ["--c1", c1, "--c2", c2, "--c3", c3]
        status, rows, _ = _bounds_rows(argv)
        assert status == 0
        r, dd, bb = Fraction(typed), Fraction(float(d)), Fraction(float(b))
        if formula == "tree":
            exact = 0 if r * dd < 1 else bb * dd if r * dd == 1 else None  # None: infinite
        elif formula == "line":
            exact = dd / (1 - r)
        else:
            k1, k2, k3 = (Fraction(float(c)) for c in (c1, c2, c3))
            exact = (k2 * dd + k3) / (1 - r * k1) * (r if formula == "theorem-packets" else 1)
        assert rows.get("limit") == (None if exact is None else repr(float(exact))), argv


@pytest.mark.parametrize(
    "argv, label",
    [
        # a finite, positive limit that the terms approach by less than 1% a
        # phase: no trailing ratio tells this from divergence
        (["line", "--r", "0.9"], "BOUNDED"),
        (["theorem-time", "--r", "0.9", "--d", "2"], "BOUNDED"),
        (["theorem-packets", "--r", "0.9", "--d", "1"], "BOUNDED"),
        # r*d = 1.0004 > 1: the terms grow by 0.04% a phase, but without bound
        (["tree", "--r", "0.2501", "--d", "4"], "DIVERGENT"),
        # r*d < 1: the terms underflow to 0.0, so the trailing ratios are 0/0
        (["tree", "--r", "0.01", "--d", "1", "--b", "1", "--i-max", "400"], "CONVERGENT"),
        # c2*d + c3 = 0: the limit is 0, reached at once with c1 = 0 or by a
        # factor of r*c1 = 0.999 a phase
        (["theorem-time", "--r", "0.01", "--c1", "0", "--c2", "0", "--c3", "0"], "CONVERGENT"),
        (["theorem-packets", "--r", "0.01", "--c1", "0", "--c2", "0", "--c3", "0"], "CONVERGENT"),
        (["theorem-time", "--r", "0.999", "--c2", "0", "--c3", "0"], "CONVERGENT"),
        # r*d = 1 exactly: the limit is b*d; r*d = 1/2: the limit is 0
        (["tree", "--r", "1/49", "--b", "3", "--d", "49"], "BOUNDED"),
        (["tree", "--r", "0.5", "--d", "1"], "CONVERGENT"),
    ],
)
def test_bounds_growth_follows_the_exact_limit(capsys, argv, label):
    # infinite limit: DIVERGENT; a limit of exactly 0: CONVERGENT; else BOUNDED
    assert cli.main(["bounds", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"growth,{label}"


def test_bounds_rejects_an_unreadable_rate(capsys):
    assert cli.main(["bounds", "tree", "--r", "3/2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --r: injection rate must satisfy 0 < r < 1, got '3/2'\n"


def test_bounds_tree_reads_a_decimal_rate_exactly(capsys):
    # r*d = 1.00000000000000000004 > 1, so the limit is infinite and has no
    # row; the float 0.25 would have given r*d = 1 and a limit of b*d = 16
    typed = "0.25000000000000000001"
    assert cli.main(["bounds", "tree", "--r", typed, "--b", "4", "--d", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# formula=tree r={typed} b=4.0 d=4.0 c1=1.0 c2=1.0 c3=0.0 log_base=2.0"
    assert not any(line.startswith("limit,") for line in lines)
    # 0.1 is 1/10, so r*d = 1 and the limit is b*d
    assert cli.main(["bounds", "tree", "--r", "0.1", "--b", "4", "--d", "10"]) == 0
    assert capsys.readouterr().out.splitlines().count("limit,40.0") == 1


def test_a_refused_rate_is_named_as_given(tmp_path, capsys):
    # not as its exact value, a fraction with a 400-digit denominator
    assert cli.main(["bounds", "tree", "--r=-1e-400"]) == 2
    assert capsys.readouterr().err == (
        "error: --r: injection rate must satisfy 0 < r < 1, got '-1e-400'\n"
    )
    assert cli.main(["run", _rate_scenario(tmp_path, '"-1e-400"')]) == 2
    assert capsys.readouterr().err == (
        "error: adversary.r: injection rate must satisfy 0 < r < 1, got '-1e-400'\n"
    )


@st.composite
def _rates(draw) -> tuple[str, float]:
    """A rate in (0, 1) as `--r` text, p/q or a decimal of up to 25
    significant digits, with the float nearest to it."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 10**6))
        p = draw(st.integers(1, q - 1))
        return f"{p}/{q}", p / q
    digits = str(draw(st.integers(1, 10**25 - 1)))
    places = len(digits) + draw(st.integers(0, 40))  # the value is digits * 10**-places
    text = draw(st.sampled_from([f"0.{digits.zfill(places)}", f"{digits}e-{places}"]))
    return text, float(text)


def _bounds_rows(argv) -> tuple[int, dict, str]:
    """`aqsim bounds` status, rows by their `i` column, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["bounds", *argv])
    rows = dict(line.split(",") for line in out.getvalue().splitlines()[2:])
    return status, rows, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_rates(), st.integers(1, 8), st.integers(1, 60))
@example(("0.1", 0.1), 4, 10)
@example(("1/49", 1 / 49), 3, 49)
@example(("0.25000000000000000001", 0.25), 4, 4)
@example(("0.9999999999999999999999999", 1.0), 2, 3)
def test_bounds_rate_is_read_as_the_api_reads_it(rate, b, d):
    # the tree rows and every limit read the rate exactly, by `as_rate`; the
    # line terms take the float nearest to it
    text, r = rate
    argv = ["--r", text, "--b", str(b), "--d", str(d), "--i-max", "12"]
    status, rows, _ = _bounds_rows(["tree", *argv])
    assert status == 0
    exact = as_rate(text)
    limit = tree_phase_time_limit(exact, b, d)
    assert float(rows.get("limit", "inf")) == limit
    assert [float(rows[str(i)]) for i in range(1, 13)] == [
        tree_phase_time_bound(i, exact, b, d) for i in range(1, 13)
    ]
    status, rows, err = _bounds_rows(["line", *argv])
    if r == 1.0:  # a hair under 1: the float formulas refuse it by name
        assert (status, rows) == (2, {})
        assert err == f"error: need 0 < r < 1, got r={text}, which rounds to 1.0 in double precision\n"
        return
    assert status == 0
    assert [float(rows[str(i)]) for i in range(1, 13)] == [
        line_phase_time_bound(i, r, b, d) for i in range(1, 13)
    ]
    assert float(rows["limit"]) == line_phase_time_limit(exact, d)


@pytest.mark.parametrize(
    "typed, rows",
    [
        # r*d = 4e-400 is 0.0 as a float: the first term is b*d, the rest 0
        ("1e-400", ["1,16.0", "2,0.0", "3,0.0", "limit,0.0"]),
        # r*d is a hair under 4, which rounds to 4.0; r*d > 1, so no limit
        ("0.99999999999999999999", ["1,16.0", "2,64.0", "3,256.0"]),
    ],
)
def test_bounds_tree_reads_a_rate_that_rounds_out_of_the_unit_interval(capsys, typed, rows):
    assert cli.main(["bounds", "tree", "--r", typed, "--i-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        f"# formula=tree r={typed} b=4.0 d=4.0 c1=1.0 c2=1.0 c3=0.0 log_base=2.0"
    )
    assert lines[2:] == rows


@pytest.mark.parametrize(
    "formula, typed, rounded",
    [
        ("line", "1e-400", "0.0"),
        ("theorem-time", "1e-400", "0.0"),
        ("nonforward", "0.99999999999999999999", "1.0"),
        ("theorem-packets", "0.99999999999999999999", "1.0"),
    ],
)
def test_bounds_float_formula_names_a_rate_that_rounds_out(capsys, formula, typed, rounded):
    assert cli.main(["bounds", formula, "--r", typed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: need 0 < r < 1, got r={typed}, which rounds to {rounded} in double precision\n"
    )


@pytest.mark.parametrize(
    "typed, refusal",
    [
        ("0", "must satisfy 0 < r < 1, got '0'"),
        ("1", "must satisfy 0 < r < 1, got '1'"),
        ("-1e-400", "must satisfy 0 < r < 1, got '-1e-400'"),
        ("1.00000000000000000001", "must satisfy 0 < r < 1, got '1.00000000000000000001'"),
        # inside (0, 1), but its exponent is beyond what a rate may carry
        ("1e-99999999999999999999", "exponent exceeds 4300 in '1e-99999999999999999999'"),
    ],
    ids=["0", "1", "-1e-400", "1.00000000000000000001", "1e-99999999999999999999"],
)
def test_bounds_rate_not_kept_as_typed_is_refused_as_before(capsys, typed, refusal):
    # `as_rate` refuses a rate outside (0, 1) by name, as a scenario's rate
    assert cli.main(["bounds", "tree", f"--r={typed}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --r: injection rate {refusal}\n"


def test_bounds_theorem_packets_start_at_b(capsys):
    assert cli.main(["bounds", "theorem-packets", "--b", "6", "--i-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "1,6.0"


def test_bounds_nonforward_domain_error_exits_2(capsys):
    assert cli.main(["bounds", "nonforward", "--b", "1"]) == 2
    assert "b >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["nonforward", "--b", "inf"], "--b must be finite, got inf"),
        (["line", "--r", "nan"], "--r: cannot read injection rate from 'nan'"),
        (["tree", "--d=-inf"], "--d must be finite, got -inf"),
        (["theorem-time", "--c1", "nan"], "--c1 must be finite, got nan"),
        (["theorem-time", "--c2", "inf"], "--c2 must be finite, got inf"),
        (["theorem-packets", "--c3", "inf"], "--c3 must be finite, got inf"),
        (["nonforward", "--log-base", "inf"], "--log-base must be finite, got inf"),
    ],
    ids=[f"argv{k}" for k in range(7)],
)
def test_bounds_non_finite_argument_exits_2(capsys, argv, err):
    assert cli.main(["bounds", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv, where",
    [
        (["nonforward", "--d", "1e308", "--i-max", "5"], "inf at i=1"),
        (["nonforward", "--d", "1e308", "--i-max", "12"], "inf at i=1"),
        (["nonforward", "--b", "1e308", "--d", "1e308"], "inf at i=1"),
        (["line", "--d", "1e308"], "inf at i=4"),
        (["line", "--d", "1e308", "--i-max", "3"], "inf at i=limit"),
    ],
    ids=["nonforward-short", "nonforward-growth", "nonforward-b-and-d", "line", "line-limit"],
)
def test_bounds_non_finite_value_exits_2(capsys, argv, where):
    # finite arguments, but a series value or the limit comes out inf (and the
    # nonforward series then nan); the growth label is never reached
    assert cli.main(["bounds", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a {argv[0]} bound overflows a float: {where}\n"


@pytest.mark.parametrize(
    "argv, where",
    [
        (["--i-max", "2000"], "inf at i=1021"),
        # i=2 is inf by multiplication; float pow raises only at i=3
        (["--d", "1e300", "--i-max", "3"], "inf at i=2"),
    ],
    ids=["argv0", "argv1"],
)
def test_bounds_float_overflow_exits_2(capsys, argv, where):
    # (r*d)**(i-1) leaves the float range in float pow
    assert cli.main(["bounds", "tree", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a tree bound overflows a float: {where}\n"


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["line", "--c1", "0.5"], "--c1"),
        (["tree", "--c2", "0", "--c3", "0"], "--c2, --c3"),
        (["line", "--log-base", "10"], "--log-base"),
        (["theorem-time", "--c1", "0.5", "--log-base", "10"], "--log-base"),
        (["theorem-packets", "--log-base=3"], "--log-base"),
        (["nonforward", "--c3", "1", "--c3", "2"], "--c3"),
    ],
    ids=[f"argv{k}" for k in range(6)],
)
def test_bounds_refuses_a_flag_its_formula_does_not_read(capsys, argv, unread):
    # each of these flags used to be printed in the header and then ignored
    assert cli.main(["bounds", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: the {argv[0]} formula does not read {unread}\n")


def test_bounds_flags_its_formula_reads_are_accepted(capsys):
    assert cli.main(["bounds", "theorem-time", "--c1", "0.5", "--c2", "2", "--c3", "1"]) == 0
    assert capsys.readouterr().out.startswith("# formula=theorem-time r=0.5 b=4.0 d=4.0 c1=0.5")
    assert cli.main(["bounds", "nonforward", "--log-base", "10"]) == 0
    assert "log_base=10.0" in capsys.readouterr().out


def test_bounds_bad_imax_exits_2(capsys):
    assert cli.main(["bounds", "line", "--i-max", "0"]) == 2
    capsys.readouterr()
    # one past the ceiling is refused before any term is computed
    assert cli.main(["bounds", "line", "--i-max", "100001"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --i-max must be at most 100,000, got 100001\n"


# ---- the sweep command -----------------------------------------------------------------


def test_sweep_small_table(capsys):
    assert cli.main(["sweep", "--max-packets", "1", "--max-edges", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# sweep max_packets=1 max_edges=1 shapes=line,tree"
    assert lines[1] == "instance_id,packets,edges,n,d,optimal,greedy_fifo,lemma1_bound"
    assert lines[2] == "1,1,1,1,1,1,1,1"
    assert lines[3] == "# no instance exceeded n+d (1 instances checked)"


def test_sweep_reports_greedy_gap(capsys):
    assert cli.main(["sweep", "--max-packets", "2", "--max-edges", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#") and ln[0].isdigit()]
    assert len(data) == 16
    assert any(int(row.split(",")[5]) < int(row.split(",")[6]) for row in data)


@pytest.mark.parametrize(
    "argv, checked",
    # (5,4) has 4,100 distinct patterns, each solved exactly; a state solved
    # for one pattern is looked up, not searched again, by the later ones
    [([], 222), (["--max-packets", "5", "--max-edges", "4"], 10141),
     (["--max-packets", "6", "--max-edges", "4"], 23751)],
    ids=["defaults", "5-4", "6-4"],
)
def test_sweep_summary_line(capsys, argv, checked):
    assert cli.main(["sweep", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"# no instance exceeded n+d ({checked} instances checked)"
    )


def test_sweep_writes_each_row_before_the_next_is_solved(monkeypatch):
    out = io.StringIO()
    written = []

    def rows(*args):
        for row in static_routing.sweep_rows(*args):
            written.append(out.getvalue().count("\n"))
            yield row

    monkeypatch.setattr(cli, "sweep_rows", rows)
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["sweep", "--max-packets", "2", "--max-edges", "2"]) == 0
    # the '#' line and the header, then one more line per row already yielded
    assert written == list(range(2, 18))
    assert out.getvalue().splitlines()[-1] == "# no instance exceeded n+d (16 instances checked)"


def test_sweep_rejects_unknown_shape(capsys):
    assert cli.main(["sweep", "--shapes", "circle"]) == 2


def test_sweep_rejects_an_empty_shape_list(capsys):
    assert cli.main(["sweep", "--shapes", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no shapes given")


def test_sweep_rejects_nonpositive_limits(capsys):
    assert cli.main(["sweep", "--max-packets", "0"]) == 2


def test_sweep_invariant_break_exits_3(monkeypatch, capsys):
    # the greedy runner is the engine: a broken invariant there exits 3 as in `run`
    def rows(*args, **kwargs):
        raise EngineInvariantError("synthetic failure for the exit-code contract")
        yield

    monkeypatch.setattr(cli, "sweep_rows", rows)
    assert cli.main(["sweep", "--max-packets", "1", "--max-edges", "1"]) == 3
    assert capsys.readouterr().err == (
        "fatal: runtime invariant broken: synthetic failure for the exit-code contract\n"
    )


@pytest.mark.parametrize("packets, edges", [("3", "12"), ("1", "16")])
def test_sweep_over_the_instance_limit_exits_2_before_any_work(capsys, packets, edges):
    # listing the tree shapes up to 13 edges alone takes about 3.6 s on a
    # 2-core host, and each edge more multiplies that; the count lists none
    started = time.perf_counter()
    assert cli.main(["sweep", "--max-packets", packets, "--max-edges", edges]) == 2
    assert time.perf_counter() - started < 10
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: the sweep has more than {cli.SWEEP_LIMIT:,} instances")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_sweep_ends_quietly_when_its_reader_closes_stdout():
    # 351,328 lines, far more than a pipe buffer holds, so the sweep is still
    # writing when the reader goes away
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "aqsim.cli", "sweep", "--max-packets", "2", "--max-edges", "9"]
    with subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline() == b"# sweep max_packets=2 max_edges=9 shapes=line,tree\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""
