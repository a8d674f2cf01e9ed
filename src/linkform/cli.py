"""Scenario ingestion, experiment orchestration, and exports.

Scenario files are JSON documents with a ``config`` object and a ``nodes``
list that mirror the domain dataclasses field for field (bitrates in bps,
powers in watts, frequencies in Hz, positions in meters). Reading is strict.
The keys of every object are exactly the fields of its dataclass: a field
with a default may be left out, every other field is required, and any other
key is an error. Each value must have its field's JSON type: a number is a
JSON number and never a boolean, an integer field takes only integers,
``internet_connected`` is a boolean, and ``position`` is a list of two
numbers. Each violation is reported with its JSON path, for example
``nodes[3].interfaces[1].antena_gain: unknown field``. The one exception is
the legacy config key ``"tie_break": "index"``, which is accepted and never
written back. A topology document has a ``links`` list of link objects and
an optional ``hash`` string.

Run artifacts are report.json, trace.jsonl, topology.json, and topology.dot.
One encoder writes the JSON ones: a dataclass becomes an object keyed by
field name, a cost becomes its value, a tuple becomes a list, and infinite
numbers become the strings "Infinity" / "-Infinity", so every artifact is
strict JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Callable, get_args, get_origin, get_type_hints

from . import criteria as criteria_mod, game
from .cost import total_cost
from .game import (
    DEFAULT_MAX_MOVES,
    Add,
    DynamicsTrace,
    StabilityReport,
    best_response_dynamics,
    is_pairwise_stable,
)
from .model import (
    Cost,
    Link,
    Scenario,
    Topology,
    ValidationIssue,
    validate_scenario,
    validate_topology,
)


class ScenarioFormatError(ValueError):
    """Malformed scenario or topology file; carries path-annotated issues."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__("; ".join(str(issue) for issue in issues))


class _InputError(Exception):
    """One-line input error; ``main`` prints it as an ``error:`` line and exits 1."""


# -- JSON codec ----------------------------------------------------------------

# Older scenario files name the only scan order there is; any other value is rejected.
LEGACY_TIE_BREAK = "index"
_INVALID = object()  # a value that failed to read; the reason is already in the issues
_SCALARS = {float: (int, float), int: int, bool: bool, str: str}  # annotated type -> accepted JSON types
_JSON_TYPES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    type(None): "null",
}


@functools.cache
def _schema(cls: type) -> dict[str, tuple[Any, bool]]:
    """Field name -> (annotated type, required) of a dataclass; required means no default."""
    hints = get_type_hints(cls)
    return {
        field.name: (
            hints[field.name],
            field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    }


def _fail(issues: list[ValidationIssue], path: str, message: str) -> object:
    issues.append(ValidationIssue(path or "$", message))
    return _INVALID


def _expected(issues: list[ValidationIssue], path: str, what: str, raw: Any) -> object:
    return _fail(issues, path, f"expected {what}, got {_JSON_TYPES.get(type(raw), type(raw).__name__)}")


def _read(raw: Any, typ: Any, path: str, issues: list[ValidationIssue]) -> Any:
    """``raw`` read as a value of ``typ``, or _INVALID after appending the reasons to ``issues``.

    ``typ`` is float (a JSON number, stored as float), int, bool, str, a
    tuple type, or a dataclass, whose fields are read by their annotations.
    """
    accepted = _SCALARS.get(typ)
    if accepted is not None:
        if not isinstance(raw, accepted) or isinstance(raw, bool) != (typ is bool):
            return _expected(issues, path, _JSON_TYPES[typ], raw)
        try:
            return float(raw) if typ is float else raw
        except OverflowError:
            return _fail(issues, path, "number out of range")
    if get_origin(typ) is tuple:
        if not isinstance(raw, list):
            return _expected(issues, path, "a list", raw)
        item_types = get_args(typ)
        if item_types[-1] is Ellipsis:
            item_types = item_types[:1] * len(raw)
        elif len(raw) != len(item_types):
            return _fail(issues, path, f"expected a list of {len(item_types)} items, got {len(raw)}")
        items = tuple([_read(item, t, f"{path}[{i}]", issues) for i, (item, t) in enumerate(zip(raw, item_types))])
        return _INVALID if _INVALID in items else items
    if not isinstance(raw, dict):
        return _expected(issues, path, "an object", raw)
    prefix = f"{path}." if path else ""
    schema = _schema(typ)
    issues.extend(ValidationIssue(prefix + key, "unknown field") for key in raw if key not in schema)
    values = {}
    for name, (field_type, required) in schema.items():
        if name in raw:
            values[name] = _read(raw[name], field_type, prefix + name, issues)
        elif required:
            values[name] = _fail(issues, prefix + name, "required")
    if _INVALID in values.values():
        return _INVALID
    try:
        return typ(**values)
    except ValueError as exc:
        return _fail(issues, path, str(exc))


def _to_json(value: Any) -> Any:
    """``value`` as JSON data: a dataclass as an object keyed by field name,
    a Cost as its value, a tuple as a list, dict keys as strings, and +/-inf
    as "Infinity" / "-Infinity"."""
    if isinstance(value, float):
        return ("Infinity" if value > 0 else "-Infinity") if math.isinf(value) else value
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _to_json(item) for key, item in value.items()}
    if isinstance(value, Cost):
        return _to_json(value.value)
    return {name: _to_json(getattr(value, name)) for name in _schema(type(value))}


def scenario_from_dict(raw: Any) -> Scenario:
    issues: list[ValidationIssue] = []
    if isinstance(raw, dict) and isinstance(raw.get("config"), dict) and "tie_break" in raw["config"]:
        config = dict(raw["config"])
        tie_break = _read(config.pop("tie_break"), str, "config.tie_break", issues)
        if tie_break is not _INVALID and tie_break != LEGACY_TIE_BREAK:
            issues.append(ValidationIssue("config.tie_break", f"unknown policy {tie_break!r}"))
        raw = {**raw, "config": config}
    scenario = _read(raw, Scenario, "", issues)
    if issues:
        raise ScenarioFormatError(issues)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    return _to_json(scenario)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_dict(json.load(handle))


def topology_to_dict(topology: Topology) -> dict:
    return {"links": _to_json(sorted(topology.links)), "hash": topology.canonical_hash()}


def topology_from_dict(raw: Any, scenario: Scenario) -> Topology:
    if not isinstance(raw, dict) or not isinstance(raw.get("links"), list):
        raise ScenarioFormatError([ValidationIssue("$", "topology document must have a 'links' list")])
    issues = [ValidationIssue(key, "unknown field") for key in raw if key not in ("links", "hash")]
    if "hash" in raw:
        _read(raw["hash"], str, "hash", issues)
    links = _read(raw["links"], tuple[Link, ...], "links", issues)
    if links is not _INVALID:
        first: dict[Link, int] = {}  # index of each link's first entry; Link ignores endpoint order
        issues += [
            ValidationIssue(f"links[{k}]", f"duplicate of links[{first[link]}]")
            for k, link in enumerate(links)
            if first.setdefault(link, k) != k
        ]
    if issues:
        raise ScenarioFormatError(issues)
    topology = Topology(scenario.nodes, frozenset(links))
    semantic = validate_topology(topology)
    if semantic:
        raise ScenarioFormatError(semantic)
    return topology


def load_topology(path: str | Path, scenario: Scenario) -> Topology:
    with open(path, "r", encoding="utf-8") as handle:
        return topology_from_dict(json.load(handle), scenario)


# -- report assembly -----------------------------------------------------------


def stability_to_dict(report: StabilityReport) -> dict:
    """The report as JSON data, each severance as a ``{"node", "link"}`` object rather than a pair."""
    severances = [{"node": node_id, "link": link} for node_id, link in report.severance_violations]
    return {**_to_json(report), "severance_violations": _to_json(severances)}


def trace_to_jsonl(trace: DynamicsTrace) -> str:
    lines = []
    for step_index, step in enumerate(trace.steps):
        move = {"kind": "add" if isinstance(step.move, Add) else "remove", **_to_json(step.move)}
        row = {"step": step_index, "move": move, "topology_hash": step.topology_hash, "costs": _to_json(dict(step.costs))}
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def build_run_report(scenario: Scenario, seed: int, topology: Topology, trace: DynamicsTrace) -> dict:
    stability = is_pairwise_stable(topology, scenario.config)
    costs = {node.id: total_cost(node, topology, scenario.config) for node in scenario.nodes}
    return {
        "seed": seed,
        "gamma": scenario.config.gamma,
        "converged": trace.converged,
        "moves": len(trace.steps),
        "topology_hash": topology.canonical_hash(),
        "topology": topology_to_dict(topology),
        "costs": _to_json(costs),
        "stability": stability_to_dict(stability),
        "criteria": _to_json(criteria_mod.criteria_report(scenario)),
        "structure": _to_json(criteria_mod.check_structure(topology)),
    }


def topology_to_dot(topology: Topology) -> str:
    lines = ["graph topology {"]
    for node in topology.nodes:
        shape = "box" if node.internet_connected else "ellipse"
        lines.append(f'  {node.id} [shape={shape}];')
    for link in sorted(topology.links):
        kind = topology.node(link.node_a).interfaces[link.iface_a].kind
        label = kind.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {link.node_a} -- {link.node_b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'smart_home_gamma570.json')."""
    return Path(str(resources.files("linkform") / "fixtures" / name))


# -- commands ------------------------------------------------------------------


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Create ``out_dir`` and write each named text into it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from None


def _read_input(what: str, path: str, load: Callable[[str], Any]) -> Any:
    """``load(path)``: ScenarioFormatError when the file is malformed or invalid, _InputError when it cannot be read."""
    try:
        return load(path)
    except ScenarioFormatError:
        raise
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read {what} {path}: {exc}") from None


def _checked(scenarios: list[Scenario]) -> None:
    """Raise ScenarioFormatError with every issue ``validate_scenario`` finds in ``scenarios``."""
    issues = [issue for scenario in scenarios for issue in validate_scenario(scenario.nodes, scenario.config)]
    if issues:
        raise ScenarioFormatError(issues)


def cmd_run(args: argparse.Namespace, scenario: Scenario) -> int:
    out_dir = Path(args.out)
    _write_files(out_dir, {})  # an unusable --out fails before the run
    topology, trace = best_response_dynamics(scenario, seed=args.seed, max_moves=args.max_moves)
    report = build_run_report(scenario, args.seed, topology, trace)
    artifacts = {
        "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
        "trace.jsonl": trace_to_jsonl(trace),
        "topology.json": json.dumps(topology_to_dict(topology), indent=2, sort_keys=True) + "\n",
        "topology.dot": topology_to_dot(topology),
    }
    _write_files(out_dir, artifacts)
    status = "converged" if trace.converged else "did not converge"
    print(
        f"{status} after {len(trace.steps)} moves; stable={report['stability']['stable']}; "
        f"ic_clique={report['structure']['ic_clique']}; artifacts in {out_dir}"
    )
    return 0 if trace.converged else 2


def cmd_check(args: argparse.Namespace, scenario: Scenario) -> int:
    topology = _read_input("topology", args.topology, lambda path: load_topology(path, scenario))
    report = is_pairwise_stable(topology, scenario.config)
    payload = json.dumps(stability_to_dict(report), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        _write_files(Path(args.out), {"stability.json": payload + "\n"})
    return 0 if report.stable else 2


def _parse_gamma_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError("gamma range must be A:B:STEP or a single value")
    start, stop, step = (float(part) for part in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"gamma range start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("gamma step must be positive")
    if start > stop:
        raise ValueError(f"gamma range {text!r} is empty: start exceeds stop")
    if start + step == start or stop + step == stop:
        raise ValueError(f"gamma step {step!r} is too small to advance past {max(abs(start), abs(stop))!r}")
    values = []
    current = start
    while current <= stop + 1e-9:
        values.append(round(current, 9))
        current += step
    return values


def cmd_sweep(args: argparse.Namespace, scenario: Scenario) -> int:
    try:
        gammas = _parse_gamma_range(args.gamma)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    sweep = [Scenario(scenario.nodes, dataclasses.replace(scenario.config, gamma=gamma)) for gamma in gammas]
    _checked(sweep)

    try:  # opened before the sweep so that an unwritable path fails fast
        handle = open(args.out, "w", newline="", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise _InputError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    with handle as out:
        writer = None  # the header is the first row's keys
        with game._sharing():  # the rows price each link set's gamma-free passes once
            for swept in sweep:
                report = criteria_mod.criteria_report(swept)
                for seed in range(args.seeds):
                    topology, trace = best_response_dynamics(swept, seed=seed, max_moves=args.max_moves)
                    structure = criteria_mod.check_structure(topology)
                    row = {
                        "gamma": swept.config.gamma,
                        "seed": seed,
                        "converged": trace.converged,
                        "moves": len(trace.steps),
                        "clique_criterion": report.clique.holds,
                        "single_ic_link_criterion": report.single_ic_link.holds,
                        "star_criterion": report.star.holds,
                        "ic_clique": structure.ic_clique,
                        "max_ic_links_per_non_ic": structure.max_ic_links_per_non_ic,
                        "max_non_ic_degree": structure.max_non_ic_degree,
                        "relay_count": len(structure.relays),
                    }
                    if writer is None:
                        writer = csv.DictWriter(out, fieldnames=list(row))
                        writer.writeheader()
                    writer.writerow(row)
    return 0


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name, str(default))
    try:
        return int(text)
    except ValueError:
        raise _InputError(f"{name} must be an integer, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="linkform",
        description="Deterministic bilateral link-formation game simulator for multi-radio networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    env_out = os.environ.get("LINKFORM_OUT", "out")

    run_parser = subparsers.add_parser("run", help="run dynamics on a scenario and export artifacts")
    run_parser.add_argument("--scenario", required=True)
    run_parser.add_argument("--seed", type=int)
    run_parser.add_argument("--out", default=env_out)
    run_parser.add_argument("--max-moves", type=int)
    run_parser.set_defaults(func=cmd_run)

    check_parser = subparsers.add_parser("check", help="check a topology file for pairwise stability")
    check_parser.add_argument("--scenario", required=True)
    check_parser.add_argument("--topology", required=True)
    check_parser.add_argument("--out", default=None)
    check_parser.set_defaults(func=cmd_check)

    sweep_parser = subparsers.add_parser("sweep", help="sweep gamma values and summarize structure per run")
    sweep_parser.add_argument("--scenario", required=True)
    sweep_parser.add_argument("--gamma", required=True, help="A:B:STEP range or a single value")
    sweep_parser.add_argument("--seeds", type=int, default=1)
    sweep_parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sweep_parser.add_argument("--max-moves", type=int)
    sweep_parser.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:  # the one place an input error becomes error lines; any other exception is a bug and keeps its traceback
        for flag, name, default in (("seed", "LINKFORM_SEED", 0), ("max_moves", "LINKFORM_MAX_MOVES", DEFAULT_MAX_MOVES)):
            if getattr(args, flag, 0) is None:  # an integer default is read only where its flag is absent
                setattr(args, flag, _env_int(name, default))
        for flag, minimum in (("max_moves", 0), ("seeds", 1)):
            value = getattr(args, flag, minimum)
            if value < minimum:
                raise _InputError(f"--{flag.replace('_', '-')} must be >= {minimum}, got {value}")
        scenario = _read_input("scenario", args.scenario, load_scenario)
        _checked([scenario])
        return args.func(args, scenario)
    except ScenarioFormatError as exc:
        errors = exc.issues
    except _InputError as exc:
        errors = [exc]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
