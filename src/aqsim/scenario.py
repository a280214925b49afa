"""Scenario files: a YAML declaration of network, adversary, strategy and run
parameters, validated field by field with a path into the structure for every
problem found."""

from __future__ import annotations

import contextlib
import io
import os
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import yaml

from .adversary import (
    Adversary,
    AdversaryError,
    InjectionEvent,
    as_rate,
    burst_adversary,
    saturating_adversary,
    scripted_adversary,
)
from .network import Network, NetworkError, PacketPath, build_network, shown, validate_path
from .strategies import DISCIPLINES, discipline_name

# each adversary kind and the one field that gives its paths
ADVERSARY_KINDS = {"scripted": "events", "burst": "paths", "saturating": "path"}
STRATEGY_KINDS = ("plain", "interval")
MAX_DEPTH = 10_000  # nesting levels; a deeper document is refused before it is composed
# packets; the saturating source builds its step-1 burst as a list of b paths,
# and a run holds about 256 bytes a packet, so this is about 256 MB
SATURATING_B_LIMIT = 1_000_000


class ScenarioError(ValueError):
    """All validation problems found in a scenario, each with its field path."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class Scenario:
    name: str
    network: Network
    adversary_kind: str
    r: Optional[Fraction]
    b: int
    sat_path: Optional[PacketPath]
    burst_paths: tuple[PacketPath, ...]
    events: tuple[InjectionEvent, ...]
    strategy_kind: str
    discipline: str
    improvement: bool
    max_steps: int


# libyaml's parser when PyYAML was built with it; both accept the same documents
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOO_DEEP_FOR_LOADER = "scenario: nested too deeply for the YAML loader"
_short = reprlib.Repr()
_short.maxstring = 80


def _text(text: str, path: str) -> io.StringIO:
    """`text` as `open(path, encoding="utf-8")` reads it, newlines and name
    included, so that PyYAML's error marks name the file."""
    stream = io.StringIO(text, newline=None)
    stream.name = path
    return stream


def _walk_limit() -> int:
    """How many levels deep the depth check walks before it refuses.

    libyaml is walked to MAX_DEPTH. PyYAML's pure-Python composer takes two
    frames a level (`compose_node` and the collection's own), so it raises
    RecursionError on any document deeper than half the recursion limit. Its
    walk stops there: its scanner keeps one possible simple key per open
    flow level, up to 1,024 characters back, and checks them all at each
    token, so a walk to MAX_DEPTH would take about 25 s."""
    if _Loader is getattr(yaml, "CSafeLoader", None):
        return MAX_DEPTH
    return min(MAX_DEPTH, sys.getrecursionlimit() // 2)


def _deeper_than(limit: int, text: str, path: str) -> bool:
    """Whether the document nests collections more than `limit` levels deep.

    Each level opens with a `[`, `{`, `-`, `?` or `:` of its own, so the
    count of those characters plus the newlines is never below the depth.
    Only a document whose count passes `limit` is parsed, and the walk over
    its events stops one level past `limit`.

    Under the pure-Python loader, whose scanner slows with every open flow
    level, the first 2*limit characters are walked first. A prefix's
    collection starts are the document's own, except one opened by a `-`,
    `?` or `:` at its very end, which the next character may deny; the cut
    leaves those out. So a prefix that is too deep decides the document; a
    prefix that is not, or that the cut makes malformed, leaves the whole
    text to walk."""
    if sum(text.count(mark) for mark in "[{-?:\n") <= limit:
        return False
    if limit < MAX_DEPTH and len(text) > 2 * limit:
        with contextlib.suppress(yaml.YAMLError):  # the cut may fall inside a token
            if _walk(limit, text[: 2 * limit].rstrip("-?:"), path):
                return True
    return _walk(limit, text, path)


def _walk(limit: int, text: str, path: str) -> bool:
    """Whether the events of `text` open more than `limit` collections at once."""
    depth = 0
    for event in yaml.parse(_text(text, path), Loader=_Loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > limit:
                return True
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return False


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file. OSError and YAML errors propagate;
    a value PyYAML cannot build, a document nested more than MAX_DEPTH
    levels deep (or too deep for the pure-Python loader) and structural
    problems raise ScenarioError listing every offending field.

    The depth is checked before PyYAML composes the document: libyaml's
    composer recurses in C once per level, and a deep enough document
    overflows the stack. The file is decoded once, whole, so a bad byte is
    named by its offset in the file, not in a chunk of it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    limit = _walk_limit()
    try:
        text = raw.decode("utf-8")
        deep = _deeper_than(limit, text, path)
        data = None if deep else yaml.load(_text(text, path), Loader=_Loader)
    except RecursionError:  # the pure-Python composer recurses once per level
        raise ScenarioError([_TOO_DEEP_FOR_LOADER]) from None
    except ValueError as exc:  # bad UTF-8, or an integer literal over Python's digit limit
        problem = f"scenario: cannot read a value: {_short.repr(str(exc))}"
        raise ScenarioError([problem]) from None
    if deep:
        if limit < MAX_DEPTH:  # the pure-Python composer would run out of frames
            raise ScenarioError([_TOO_DEEP_FOR_LOADER])
        raise ScenarioError([f"scenario: nested more than {MAX_DEPTH:,} levels deep"])
    default_name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(data, default_name)


def parse_scenario(data: Any, default_name: str = "scenario") -> Scenario:
    problems: list[str] = []

    def fail(where: str, msg: str) -> None:
        problems.append(f"{where}: {msg}")

    def unknown_keys(mapping: dict, known: set, prefix: str, what="unknown field") -> None:
        for key in mapping:
            if key not in known:
                fail(f"{prefix}{key}", what)

    def positive_int(raw: Any, where: str) -> Optional[int]:
        """`raw` if it is an integer >= 1 (not a bool), else None after a problem."""
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
            fail(where, f"must be an integer >= 1, got {shown(raw)}")
            return None
        return raw

    if not isinstance(data, dict):
        raise ScenarioError(["top level: expected a mapping"])

    sections = {"name", "network", "adversary", "strategy", "run"}
    unknown_keys(data, sections, "", "unknown section")

    # -- name
    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        fail("name", "must be a non-empty string")
        name = default_name
    elif os.sep in name or "/" in name:
        fail("name", "must not contain path separators")
        name = default_name

    # -- network
    network: Optional[Network] = None
    net_data = data.get("network")
    if not isinstance(net_data, dict):
        fail("network", "required mapping with 'nodes' and 'edges'")
    else:
        nodes = net_data.get("nodes")
        edges = net_data.get("edges")
        ok = True
        if not isinstance(nodes, list) or not nodes:
            fail("network.nodes", "must be a non-empty list")
            ok = False
        if not isinstance(edges, list):
            fail("network.edges", "must be a list of [source, target, id] triples")
            ok = False
        else:
            for i, e in enumerate(edges):
                if not (isinstance(e, list) and len(e) == 3):
                    fail(f"network.edges[{i}]", "must be a [source, target, id] triple")
                    ok = False
        if ok:
            try:
                network = build_network(nodes, [tuple(e) for e in edges])
            except NetworkError as exc:
                fail("network", str(exc))

    def read_path(raw: Any, where: str) -> Optional[PacketPath]:
        if not isinstance(raw, list) or not raw:
            fail(where, "must be a non-empty list of edge ids")
            return None
        p = PacketPath(tuple(raw))
        if network is not None and not validate_path(network, p):
            fail(where, f"not a contiguous path of declared edges: {shown(raw)}")
            return None
        return p

    # -- adversary
    adv_kind = ""
    r: Optional[Fraction] = None
    b = 1
    sat_path: Optional[PacketPath] = None
    burst_paths: list[PacketPath] = []
    events: list[InjectionEvent] = []
    adv = data.get("adversary")
    if not isinstance(adv, dict):
        fail("adversary", "required mapping with a 'kind'")
    else:
        adv_kind = adv.get("kind")
        if not isinstance(adv_kind, str) or adv_kind not in ADVERSARY_KINDS:
            fail("adversary.kind", f"must be one of {', '.join(ADVERSARY_KINDS)}")
            adv_kind = ""
        unknown_keys(adv, {"kind", "r", "b", *ADVERSARY_KINDS.values()}, "adversary.")

        if "r" in adv:
            try:
                r = as_rate(adv["r"])
            except AdversaryError as exc:
                fail("adversary.r", str(exc))
        elif adv_kind in ("scripted", "saturating"):
            fail("adversary.r", f"required for the {adv_kind} adversary")

        b = positive_int(adv.get("b"), "adversary.b") or b

        if adv_kind == "saturating":
            if b > SATURATING_B_LIMIT:
                fail(
                    "adversary.b",
                    f"must be at most {SATURATING_B_LIMIT:,} for the saturating adversary, got {b}",
                )
            sat_path = read_path(adv.get("path"), "adversary.path")
        elif adv_kind == "burst":
            raw_paths = adv.get("paths")
            if not isinstance(raw_paths, list) or not raw_paths:
                fail("adversary.paths", "must be a non-empty list of paths")
            else:
                for i, raw in enumerate(raw_paths):
                    p = read_path(raw, f"adversary.paths[{i}]")
                    if p is not None:
                        burst_paths.append(p)
        elif adv_kind == "scripted":
            raw_events = adv.get("events")
            if not isinstance(raw_events, list) or not raw_events:
                fail("adversary.events", "must be a non-empty list of {step, path}")
            else:
                last_step = 0
                for i, raw in enumerate(raw_events):
                    where = f"adversary.events[{i}]"
                    if not isinstance(raw, dict):
                        fail(where, "must be a mapping with 'step' and 'path'")
                        continue
                    step_no = positive_int(raw.get("step"), f"{where}.step")
                    if step_no is None:
                        continue
                    if step_no < last_step:
                        fail(f"{where}.step", "events must be sorted by step")
                    last_step = max(last_step, step_no)
                    p = read_path(raw.get("path"), f"{where}.path")
                    if p is not None:
                        events.append(InjectionEvent(step_no, p))
        own = ADVERSARY_KINDS.get(adv_kind)  # None for a refused kind
        others = [f for f in ("path", "paths", "events") if f != own]
        if own and any(f in adv for f in others):
            fail("adversary", f"{adv_kind} takes '{own}', not {'/'.join(map(repr, others))}")

    # -- strategy
    strat_kind = "plain"
    discipline = "FIFO"
    improvement = False
    strat = data.get("strategy")
    if not isinstance(strat, dict):
        fail("strategy", "required mapping with 'kind' and 'discipline'")
    else:
        strat_kind = strat.get("kind")
        if strat_kind not in STRATEGY_KINDS:
            fail("strategy.kind", f"must be one of {', '.join(STRATEGY_KINDS)}")
            strat_kind = "plain"
        unknown_keys(strat, {"kind", "discipline", "improvement"}, "strategy.")
        raw_disc = strat.get("discipline")
        try:
            discipline = discipline_name(raw_disc)
        except ValueError:
            fail(
                "strategy.discipline",
                f"must be one of {', '.join(sorted(DISCIPLINES))}, got {shown(raw_disc)}",
            )
        raw_improve = strat.get("improvement", False)
        if not isinstance(raw_improve, bool):
            fail("strategy.improvement", f"must be a boolean, got {shown(raw_improve)}")
        elif raw_improve and strat_kind == "plain":
            fail("strategy.improvement", "only valid for the interval strategy")
        else:
            improvement = raw_improve

    # -- run
    max_steps = 1
    run_data = data.get("run")
    if not isinstance(run_data, dict):
        fail("run", "required mapping with 'max_steps'")
    else:
        unknown_keys(run_data, {"max_steps"}, "run.")
        max_steps = positive_int(run_data.get("max_steps"), "run.max_steps") or max_steps

    if problems:
        raise ScenarioError(problems)
    assert network is not None
    return Scenario(
        name=name,
        network=network,
        adversary_kind=adv_kind,
        r=r,
        b=b,
        sat_path=sat_path,
        burst_paths=tuple(burst_paths),
        events=tuple(events),
        strategy_kind=strat_kind,
        discipline=discipline,
        improvement=improvement,
        max_steps=max_steps,
    )


def make_adversary(scenario: Scenario) -> Adversary:
    """A fresh adversary for one run. No source keeps state: scripted and
    burst adversaries are both `ScriptedAdversary` replays, and the
    saturating generator is a closed form of the step.
    Raises AdversaryError for an inadmissible script or an overloaded burst."""
    if scenario.adversary_kind == "scripted":
        return scripted_adversary(
            list(scenario.events), scenario.r, scenario.b, scenario.network
        )
    if scenario.adversary_kind == "burst":
        return burst_adversary(scenario.network, list(scenario.burst_paths), scenario.b)
    if scenario.adversary_kind == "saturating":
        return saturating_adversary(
            scenario.network, scenario.sat_path, scenario.r, scenario.b
        )
    raise ScenarioError([f"adversary.kind: unknown kind {shown(scenario.adversary_kind)}"])
