"""Scenario ingestion, experiment orchestration, and exports.

Scenario files are JSON documents with a ``config`` object and a ``nodes``
list mirroring the domain types field-for-field (bitrates in bps, powers in
watts, frequencies in Hz, positions in meters). Run artifacts are report.json,
trace.jsonl, topology.json, and topology.dot. Infinite numbers are encoded as
the strings "Infinity" / "-Infinity".
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any

from . import criteria as criteria_mod
from .cost import CostBreakdown, total_cost
from .game import (
    DEFAULT_MAX_MOVES,
    Add,
    DynamicsTrace,
    StabilityReport,
    best_response_dynamics,
    is_pairwise_stable,
)
from .model import (
    GameConfig,
    InterfaceSpec,
    Link,
    Node,
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


# -- JSON helpers --------------------------------------------------------------

CONFIG_FIELDS = {"gamma": float, "alpha": float, "h_max": int, "path_loss_exponent": float, "tie_break": str}
# Older scenario files name the only scan order there is; any other value is rejected.
LEGACY_TIE_BREAK = "index"


def _num(value: float) -> float | str:
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _expect(obj: Any, typ: type | tuple[type, ...], path: str, issues: list[ValidationIssue]) -> bool:
    if typ is float:
        typ = (int, float)
    if isinstance(obj, bool) and typ != bool and not (isinstance(typ, tuple) and bool in typ):
        issues.append(ValidationIssue(path, f"expected {typ}, got bool"))
        return False
    if not isinstance(obj, typ):
        issues.append(ValidationIssue(path, f"expected {typ}, got {type(obj).__name__}"))
        return False
    return True


def scenario_from_dict(raw: Any) -> Scenario:
    issues: list[ValidationIssue] = []
    if not isinstance(raw, dict):
        raise ScenarioFormatError([ValidationIssue("$", "scenario document must be a JSON object")])

    config_raw = raw.get("config")
    config = GameConfig(gamma=1.0)
    if not isinstance(config_raw, dict):
        issues.append(ValidationIssue("config", "missing or not an object"))
    else:
        typed: dict[str, Any] = {}
        for key, value in config_raw.items():
            if key not in CONFIG_FIELDS:
                issues.append(ValidationIssue(f"config.{key}", "unknown field"))
            elif key == "gamma" and value is None:
                continue  # reported as required below
            elif _expect(value, CONFIG_FIELDS[key], f"config.{key}", issues):
                typed[key] = value
        if config_raw.get("gamma") is None:
            issues.append(ValidationIssue("config.gamma", "required"))
        if typed.get("tie_break", LEGACY_TIE_BREAK) != LEGACY_TIE_BREAK:
            issues.append(ValidationIssue("config.tie_break", f"unknown policy {typed['tie_break']!r}"))
        if not issues:
            config = GameConfig(
                gamma=float(typed["gamma"]),
                alpha=float(typed.get("alpha", 1.0)),
                h_max=typed.get("h_max", 5),
                path_loss_exponent=float(typed.get("path_loss_exponent", 2.0)),
            )

    nodes: list[Node] = []
    nodes_raw = raw.get("nodes")
    if not isinstance(nodes_raw, list):
        issues.append(ValidationIssue("nodes", "missing or not a list"))
        nodes_raw = []
    for n_index, node_raw in enumerate(nodes_raw):
        node_path = f"nodes[{n_index}]"
        if not _expect(node_raw, dict, node_path, issues):
            continue
        ok = True
        ok &= _expect(node_raw.get("id"), int, f"{node_path}.id", issues)
        position_raw = node_raw.get("position")
        if not (
            isinstance(position_raw, list)
            and len(position_raw) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in position_raw)
        ):
            issues.append(ValidationIssue(f"{node_path}.position", "expected [x, y] numbers"))
            ok = False
        ok &= _expect(node_raw.get("min_required_bitrate_bps"), float, f"{node_path}.min_required_bitrate_bps", issues)
        interfaces_raw = node_raw.get("interfaces")
        interfaces: list[InterfaceSpec] = []
        if not isinstance(interfaces_raw, list):
            issues.append(ValidationIssue(f"{node_path}.interfaces", "expected a list"))
            ok = False
        else:
            for i_index, iface_raw in enumerate(interfaces_raw):
                iface_path = f"{node_path}.interfaces[{i_index}]"
                if not _expect(iface_raw, dict, iface_path, issues):
                    ok = False
                    continue
                fields_ok = _expect(iface_raw.get("kind"), str, f"{iface_path}.kind", issues)
                for field_name in ("frequency_hz", "max_bitrate_bps", "max_tx_power_w", "rx_sensitivity_w"):
                    fields_ok &= _expect(iface_raw.get(field_name), float, f"{iface_path}.{field_name}", issues)
                if not fields_ok:
                    ok = False
                    continue
                interfaces.append(
                    InterfaceSpec(
                        kind=iface_raw["kind"],
                        frequency_hz=float(iface_raw["frequency_hz"]),
                        max_bitrate_bps=float(iface_raw["max_bitrate_bps"]),
                        max_tx_power_w=float(iface_raw["max_tx_power_w"]),
                        rx_sensitivity_w=float(iface_raw["rx_sensitivity_w"]),
                        antenna_gain=float(iface_raw.get("antenna_gain", 1.0)),
                    )
                )
        if not ok:
            continue
        nodes.append(
            Node(
                id=node_raw["id"],
                position=(float(position_raw[0]), float(position_raw[1])),
                interfaces=tuple(interfaces),
                min_required_bitrate_bps=float(node_raw["min_required_bitrate_bps"]),
                energy_weight=float(node_raw.get("energy_weight", 1.0)),
                internet_connected=bool(node_raw.get("internet_connected", False)),
            )
        )

    if issues:
        raise ScenarioFormatError(issues)
    return Scenario(nodes=tuple(nodes), config=config)


def scenario_to_dict(scenario: Scenario) -> dict:
    cfg = scenario.config
    return {
        "config": {
            "gamma": cfg.gamma,
            "alpha": cfg.alpha,
            "h_max": cfg.h_max,
            "path_loss_exponent": cfg.path_loss_exponent,
        },
        "nodes": [
            {
                "id": node.id,
                "position": list(node.position),
                "internet_connected": node.internet_connected,
                "min_required_bitrate_bps": node.min_required_bitrate_bps,
                "energy_weight": node.energy_weight,
                "interfaces": [
                    {
                        "kind": iface.kind,
                        "frequency_hz": iface.frequency_hz,
                        "max_bitrate_bps": iface.max_bitrate_bps,
                        "max_tx_power_w": iface.max_tx_power_w,
                        "rx_sensitivity_w": iface.rx_sensitivity_w,
                        "antenna_gain": iface.antenna_gain,
                    }
                    for iface in node.interfaces
                ],
            }
            for node in scenario.nodes
        ],
    }


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_dict(json.load(handle))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def link_to_dict(link: Link) -> dict:
    return {
        "node_a": link.node_a,
        "iface_a": link.iface_a,
        "node_b": link.node_b,
        "iface_b": link.iface_b,
    }


def topology_to_dict(topology: Topology) -> dict:
    return {
        "links": [link_to_dict(link) for link in sorted(topology.links)],
        "hash": topology.canonical_hash(),
    }


def topology_from_dict(raw: Any, scenario: Scenario) -> Topology:
    issues: list[ValidationIssue] = []
    if not isinstance(raw, dict) or not isinstance(raw.get("links"), list):
        raise ScenarioFormatError([ValidationIssue("$", "topology document must have a 'links' list")])
    links = []
    for index, link_raw in enumerate(raw["links"]):
        path = f"links[{index}]"
        if not _expect(link_raw, dict, path, issues):
            continue
        ok = True
        for field_name in ("node_a", "iface_a", "node_b", "iface_b"):
            ok &= _expect(link_raw.get(field_name), int, f"{path}.{field_name}", issues)
        if not ok:
            continue
        if link_raw["node_a"] == link_raw["node_b"]:
            issues.append(ValidationIssue(path, "endpoints must differ"))
            continue
        links.append(Link(link_raw["node_a"], link_raw["iface_a"], link_raw["node_b"], link_raw["iface_b"]))
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


def breakdown_to_dict(breakdown: CostBreakdown) -> dict:
    return {
        "link_cost_total": _num(breakdown.link_cost_total.value),
        "ic_distance_term": _num(breakdown.ic_distance_term.value),
        "non_ic_distance_term": _num(breakdown.non_ic_distance_term.value),
        "bridging": _num(breakdown.bridging),
        "total": _num(breakdown.total.value),
    }


def stability_to_dict(report: StabilityReport) -> dict:
    return {
        "stable": report.stable,
        "severance_violations": [
            {"node": node_id, "link": link_to_dict(link)}
            for node_id, link in report.severance_violations
        ],
        "addition_violations": [link_to_dict(link) for link in report.addition_violations],
    }


def criteria_to_dict(report: criteria_mod.CriteriaReport) -> dict:
    def result(res: criteria_mod.CriterionResult) -> dict:
        return {
            "holds": res.holds,
            "witnesses": [
                {
                    "nodes": list(witness.nodes),
                    "cost": _num(witness.cost),
                    "threshold": _num(witness.threshold),
                    "note": witness.note,
                }
                for witness in res.witnesses
            ],
        }

    return {
        "clique": result(report.clique),
        "single_ic_link": result(report.single_ic_link),
        "star": result(report.star),
        "notes": list(report.notes),
    }


def structure_to_dict(report: criteria_mod.StructureReport) -> dict:
    return {
        "ic_clique": report.ic_clique,
        "missing_ic_pairs": [list(pair) for pair in report.missing_ic_pairs],
        "max_ic_links_per_non_ic": report.max_ic_links_per_non_ic,
        "max_non_ic_degree": report.max_non_ic_degree,
        "relays": list(report.relays),
        "hierarchy_tiers": report.hierarchy_tiers,
        "unattached_non_ic": list(report.unattached_non_ic),
    }


def move_to_dict(move) -> dict:
    if isinstance(move, Add):
        return {
            "kind": "add",
            "link": link_to_dict(move.link),
            "delta_a": _num(move.delta_a),
            "delta_b": _num(move.delta_b),
        }
    return {
        "kind": "remove",
        "link": link_to_dict(move.link),
        "initiator": move.initiator,
        "delta": _num(move.delta),
    }


def trace_to_jsonl(trace: DynamicsTrace) -> str:
    lines = []
    for step_index, step in enumerate(trace.steps):
        lines.append(
            json.dumps(
                {
                    "step": step_index,
                    "move": move_to_dict(step.move),
                    "topology_hash": step.topology_hash,
                    "costs": {str(node_id): _num(value) for node_id, value in step.costs},
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def build_run_report(scenario: Scenario, seed: int, topology: Topology, trace: DynamicsTrace) -> dict:
    stability = is_pairwise_stable(topology, scenario.config)
    report = criteria_mod.criteria_report(scenario)
    structure = criteria_mod.check_structure(topology)
    costs = {
        str(node.id): breakdown_to_dict(total_cost(node, topology, scenario.config))
        for node in scenario.nodes
    }
    return {
        "seed": seed,
        "gamma": scenario.config.gamma,
        "converged": trace.converged,
        "moves": len(trace.steps),
        "topology_hash": topology.canonical_hash(),
        "topology": topology_to_dict(topology),
        "costs": costs,
        "stability": stability_to_dict(stability),
        "criteria": criteria_to_dict(report),
        "structure": structure_to_dict(structure),
    }


def topology_to_dot(topology: Topology) -> str:
    lines = ["graph topology {"]
    for node in topology.nodes:
        shape = "box" if node.internet_connected else "ellipse"
        lines.append(f'  {node.id} [shape={shape}];')
    for link in sorted(topology.links):
        kind = topology.node(link.node_a).interfaces[link.iface_a].kind
        lines.append(f'  {link.node_a} -- {link.node_b} [label="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'smart_home_gamma570.json')."""
    return Path(str(resources.files("linkform") / "fixtures" / name))


# -- commands ------------------------------------------------------------------


def _fail_issues(issues: list[ValidationIssue]) -> int:
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    return 1


def _load_validated_scenario(path: str) -> Scenario | None:
    try:
        scenario = load_scenario(path)
    except ScenarioFormatError as exc:
        _fail_issues(exc.issues)
        return None
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario {path}: {exc}", file=sys.stderr)
        return None
    issues = validate_scenario(scenario.nodes, scenario.config)
    if issues:
        _fail_issues(issues)
        return None
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_validated_scenario(args.scenario)
    if scenario is None:
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    topology, trace = best_response_dynamics(scenario, seed=args.seed, max_moves=args.max_moves)
    report = build_run_report(scenario, args.seed, topology, trace)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (out_dir / "trace.jsonl").write_text(trace_to_jsonl(trace))
    (out_dir / "topology.json").write_text(
        json.dumps(topology_to_dict(topology), indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "topology.dot").write_text(topology_to_dot(topology))
    status = "converged" if trace.converged else "did not converge"
    print(
        f"{status} after {len(trace.steps)} moves; stable={report['stability']['stable']}; "
        f"ic_clique={report['structure']['ic_clique']}; artifacts in {out_dir}"
    )
    return 0 if trace.converged else 2


def cmd_check(args: argparse.Namespace) -> int:
    scenario = _load_validated_scenario(args.scenario)
    if scenario is None:
        return 1
    try:
        topology = load_topology(args.topology, scenario)
    except ScenarioFormatError as exc:
        return _fail_issues(exc.issues)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: cannot read topology {args.topology}: {exc}", file=sys.stderr)
        return 1
    report = is_pairwise_stable(topology, scenario.config)
    payload = json.dumps(stability_to_dict(report), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "stability.json").write_text(payload + "\n")
    return 0 if report.stable else 2


def _parse_gamma_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError("gamma range must be A:B:STEP or a single value")
    start, stop, step = (float(part) for part in parts)
    if step <= 0:
        raise ValueError("gamma step must be positive")
    values = []
    current = start
    while current <= stop + 1e-9:
        values.append(round(current, 9))
        current += step
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_validated_scenario(args.scenario)
    if scenario is None:
        return 1
    try:
        gammas = _parse_gamma_range(args.gamma)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bad = [g for g in gammas if g < 1]
    if bad:
        print(f"error: gamma must be >= 1, rejected {bad}", file=sys.stderr)
        return 1

    fieldnames = [
        "gamma",
        "seed",
        "converged",
        "moves",
        "clique_criterion",
        "single_ic_link_criterion",
        "star_criterion",
        "ic_clique",
        "max_ic_links_per_non_ic",
        "max_non_ic_degree",
        "relay_count",
    ]
    rows = []
    for gamma in gammas:
        swept = Scenario(nodes=scenario.nodes, config=dataclasses.replace(scenario.config, gamma=gamma))
        report = criteria_mod.criteria_report(swept)
        for seed in range(args.seeds):
            topology, trace = best_response_dynamics(swept, seed=seed, max_moves=args.max_moves)
            structure = criteria_mod.check_structure(topology)
            rows.append(
                {
                    "gamma": gamma,
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
            )

    if args.out:
        handle = open(args.out, "w", newline="", encoding="utf-8")
    else:
        handle = sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            handle.close()
    return 0


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name, str(default))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="linkform",
        description="Deterministic bilateral link-formation game simulator for multi-radio networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    try:
        env_seed = _env_int("LINKFORM_SEED", 0)
        env_max_moves = _env_int("LINKFORM_MAX_MOVES", DEFAULT_MAX_MOVES)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_out = os.environ.get("LINKFORM_OUT", "out")

    run_parser = subparsers.add_parser("run", help="run dynamics on a scenario and export artifacts")
    run_parser.add_argument("--scenario", required=True)
    run_parser.add_argument("--seed", type=int, default=env_seed)
    run_parser.add_argument("--out", default=env_out)
    run_parser.add_argument("--max-moves", type=int, default=env_max_moves)
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
    sweep_parser.add_argument("--max-moves", type=int, default=env_max_moves)
    sweep_parser.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
