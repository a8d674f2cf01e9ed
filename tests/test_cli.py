import contextlib
import copy
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from generators import clique_suite_scenario, free_scenario, random_graph_scenario, random_topology, uplink_suite_scenario
import linkform
from linkform import game
from linkform.cli import (
    ScenarioFormatError,
    _parse_gamma_range,
    fixture_path,
    load_scenario,
    main,
    scenario_from_dict,
    scenario_to_dict,
    topology_from_dict,
    topology_to_dict,
    topology_to_dot,
)
from linkform.game import best_response_dynamics
from linkform.model import Link, Topology, validate_scenario

FIXTURE_570 = str(fixture_path("smart_home_gamma570.json"))
FIXTURE_600 = str(fixture_path("smart_home_gamma600.json"))

REPORT_KEYS = {
    "converged",
    "costs",
    "criteria",
    "gamma",
    "moves",
    "seed",
    "stability",
    "structure",
    "topology",
    "topology_hash",
}


def run_cli(*argv):
    return main(list(argv))


def test_a_command_builds_one_pairing_table(monkeypatch, tmp_path):
    # the table depends only on the nodes and the path-loss exponent, so one serves every run, check and criterion;
    # the engine checks each config object once
    builds, checks, table, check = [], [], game.pairing_table, game.validate_scenario
    monkeypatch.setattr(game, "_memo", ((), None, {}))
    monkeypatch.setattr(game, "pairing_table", lambda scenario: builds.append(scenario.config.gamma) or table(scenario))
    monkeypatch.setattr(game, "validate_scenario", lambda nodes, config: checks.append(config.gamma) or check(nodes, config))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "560:570:10", "--seeds", "2", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 and builds == [560.0] and checks == [560.0, 570.0]
    builds.clear()
    checks.clear()
    assert run_cli("run", "--scenario", FIXTURE_570, "--out", str(tmp_path / "run")) == 0
    assert builds == checks == [570.0]


def test_run_gamma570_fixture(tmp_path):
    out = tmp_path / "run570"
    assert run_cli("run", "--scenario", FIXTURE_570, "--out", str(out)) == 0
    for artifact in ("report.json", "trace.jsonl", "topology.json", "topology.dot"):
        assert (out / artifact).exists()
    report = json.loads((out / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert set(report["stability"]) == {"stable", "severance_violations", "addition_violations"}
    assert set(report["criteria"]) == {"clique", "single_ic_link", "star", "notes"}
    assert set(report["structure"]) == {
        "ic_clique",
        "missing_ic_pairs",
        "max_ic_links_per_non_ic",
        "max_non_ic_degree",
        "relays",
        "hierarchy_tiers",
        "unattached_non_ic",
    }
    assert set(next(iter(report["costs"].values()))) == {
        "link_cost_total",
        "ic_distance_term",
        "non_ic_distance_term",
        "bridging",
        "total",
    }
    assert report["converged"] is True
    assert report["stability"]["stable"] is True
    assert report["structure"]["ic_clique"] is True
    # self-consistency: hash in the report matches the exported graph
    topology = json.loads((out / "topology.json").read_text())
    assert report["topology_hash"] == topology["hash"]


def test_run_gamma600_fixture(tmp_path):
    out = tmp_path / "run600"
    assert run_cli("run", "--scenario", FIXTURE_600, "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["structure"]["ic_clique"] is True
    assert report["structure"]["max_ic_links_per_non_ic"] <= 1
    assert len(report["structure"]["relays"]) >= 1


def test_check_accepts_own_output(tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--scenario", FIXTURE_570, "--out", str(out))
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(out / "topology.json")) == 0


def test_check_flags_broken_clique(tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--scenario", FIXTURE_570, "--out", str(out))
    topology = json.loads((out / "topology.json").read_text())
    pruned = [
        link
        for link in topology["links"]
        if not (link["node_a"] == 0 and link["node_b"] == 1)
    ]
    assert len(pruned) == len(topology["links"]) - 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({"links": pruned}))
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(edited)) == 2


def test_check_empty_topology_unstable(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"links": []}))
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(empty)) == 2


def test_check_dangling_reference(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"links": [{"node_a": 0, "iface_a": 0, "node_b": 99, "iface_b": 0}]}))
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(bad)) == 1


def test_sweep_two_regimes(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert (
        run_cli(
            "sweep", "--scenario", FIXTURE_570, "--gamma", "570:600:30", "--seeds", "1",
            "--out", str(out),
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
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
    assert len(lines) == 3  # header + 570 + 600
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["converged"] == "True"
        assert row["ic_clique"] == "True"
        assert int(row["max_ic_links_per_non_ic"]) <= 1
        assert int(row["relay_count"]) >= 1


def test_sweep_rejects_gamma_below_one(capsys):
    assert run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "0.5:0.9:0.1") == 1
    assert "gamma" in capsys.readouterr().err


def test_sweep_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "570", "--seeds", "3", "--out", str(first))
    run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "570", "--seeds", "3", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_run_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "capped"
    assert run_cli(
        "run", "--scenario", FIXTURE_570, "--out", str(out), "--max-moves", "1"
    ) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False


def test_run_rejects_empty_node_list(tmp_path, capsys):
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps({"config": {"gamma": 10.0}, "nodes": []}))
    assert run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == 1
    assert "at least one node" in capsys.readouterr().err


def test_malformed_scenario_reports_json_paths(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps(
            {
                "config": {"gamma": 10.0},
                "nodes": [
                    {
                        "id": 0,
                        "position": [0.0],
                        "min_required_bitrate_bps": 1e5,
                        "interfaces": [{"kind": "mesh"}],
                    }
                ],
            }
        )
    )
    assert run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "nodes[0].position" in err
    assert "nodes[0].interfaces[0].frequency_hz" in err


def test_scenario_round_trip_lossless():
    scenarios = [
        load_scenario(FIXTURE_570),
        load_scenario(FIXTURE_600),
        clique_suite_scenario(3),
        uplink_suite_scenario(5),
        free_scenario(7),
        random_graph_scenario(11)[0],
    ]
    for scenario in scenarios:
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_topology_round_trip_lossless():
    fixture = load_scenario(FIXTURE_570)
    free = free_scenario(7)
    graph_scenario, graph, _, _ = random_graph_scenario(11)
    cases = [
        (fixture, best_response_dynamics(fixture)[0]),
        (graph_scenario, graph),
        (free, random_topology(free, random.Random(7))),
    ]
    for scenario, topology in cases:
        assert topology.links
        assert topology_from_dict(topology_to_dict(topology), scenario) == topology


def document_paths(value, path=()):
    """Every path in a JSON document, the root's () first."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from document_paths(child, path + (key,))


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def mutations(document):
    """Drop a key or list item, add an unknown key to an object, or replace any value."""
    paths = list(document_paths(document))
    objects = [path for path in paths if isinstance(reduce(getitem, path, document), dict)]
    return st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(paths[1:]), st.none()),
        st.tuples(st.just("add"), st.sampled_from(objects), JSON_VALUES),
        st.tuples(st.just("replace"), st.sampled_from(paths), JSON_VALUES),
    )


def mutated(document, mutation):
    kind, path, value = mutation
    document = copy.deepcopy(document)
    if kind == "add":
        reduce(getitem, path, document)["unknown_key"] = value
    elif not path:
        document = value
    elif kind == "drop":
        del reduce(getitem, path[:-1], document)[path[-1]]
    else:
        reduce(getitem, path[:-1], document)[path[-1]] = value
    return document


FIXTURE_DOCUMENT = json.loads(Path(FIXTURE_570).read_text())
FIXTURE_SCENARIO = scenario_from_dict(FIXTURE_DOCUMENT)
TOPOLOGY_DOCUMENT = topology_to_dict(best_response_dynamics(FIXTURE_SCENARIO)[0])


@settings(max_examples=300, deadline=None)
@given(mutations(FIXTURE_DOCUMENT))
def test_mutated_scenario_is_read_or_rejected(mutation):
    try:
        scenario = scenario_from_dict(mutated(FIXTURE_DOCUMENT, mutation))
    except ScenarioFormatError:
        return
    assert isinstance(validate_scenario(scenario.nodes, scenario.config), list)


@settings(max_examples=200, deadline=None)
@given(mutations(TOPOLOGY_DOCUMENT))
def test_mutated_topology_is_read_or_rejected(mutation):
    try:
        topology = topology_from_dict(mutated(TOPOLOGY_DOCUMENT, mutation), FIXTURE_SCENARIO)
    except ScenarioFormatError:
        return
    assert isinstance(topology, Topology)


def quiet_exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(*argv)


@settings(max_examples=50, deadline=None)
@given(mutations(FIXTURE_DOCUMENT))
@example(("replace", ("nodes", 4, "position", 0), 1.3327766554689647e152))
def test_cli_exit_code_on_mutated_scenario(mutation):
    with tempfile.TemporaryDirectory() as work:
        scenario, topology = Path(work, "scenario.json"), Path(work, "topology.json")
        scenario.write_text(json.dumps(mutated(FIXTURE_DOCUMENT, mutation)))
        topology.write_text(json.dumps(TOPOLOGY_DOCUMENT))
        run = ("run", "--scenario", str(scenario), "--max-moves", "20", "--out", str(Path(work, "out")))
        assert quiet_exit_code(*run) in {0, 1, 2}
        assert quiet_exit_code("check", "--scenario", str(scenario), "--topology", str(topology)) in {0, 1, 2}


@settings(max_examples=50, deadline=None)
@given(mutations(TOPOLOGY_DOCUMENT))
def test_cli_exit_code_on_mutated_topology(mutation):
    with tempfile.TemporaryDirectory() as work:
        topology = Path(work, "topology.json")
        topology.write_text(json.dumps(mutated(TOPOLOGY_DOCUMENT, mutation)))
        assert quiet_exit_code("check", "--scenario", FIXTURE_570, "--topology", str(topology)) in {0, 1, 2}


def set_at(path, value):
    def edit(document):
        reduce(getitem, path[:-1], document)[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        (set_at(("nodes", 3, "energy_weight"), "x"), "nodes[3].energy_weight: expected a number, got a string"),
        (set_at(("nodes", 3, "energy_weight"), None), "nodes[3].energy_weight: expected a number, got null"),
        (
            set_at(("nodes", 0, "interfaces", 1, "antenna_gain"), "x"),
            "nodes[0].interfaces[1].antenna_gain: expected a number, got a string",
        ),
        (set_at(("nodes", 3, "internet_connected"), "no"), "nodes[3].internet_connected: expected a boolean"),
        (set_at(("nodes", 3, "energy_wieght"), 2.0), "nodes[3].energy_wieght: unknown field"),
        (set_at(("nodes", 0, "interfaces", 1, "antena_gain"), 2.0), "nodes[0].interfaces[1].antena_gain: unknown field"),
        (set_at(("nodez",), []), "nodez: unknown field"),
        (set_at(("config", "gamma"), 1e308), "config.gamma: gamma * h_max * (nodes - 1) must be finite"),
        (set_at(("config", "gamma"), 10**400), "config.gamma: number out of range"),
        (set_at(("config", "h_max"), 10**400), "config.gamma: gamma * h_max * (nodes - 1) must be finite"),
        (set_at(("config", "alpha"), 0), "config.alpha: must be positive, got 0.0"),
        (set_at(("config", "alpha"), 1e308), "config.alpha: alpha * (nodes - 1) must be finite"),
        (set_at(("config", "h_max"), 0), "config.h_max: must be a positive integer, got 0"),
        (set_at(("config", "path_loss_exponent"), 1.5), "config.path_loss_exponent: must be >= 2, got 1.5"),
        (set_at(("nodes", 3, "position", 0), float("nan")), "node 3.position: must be a finite (x, y) pair"),
        (set_at(("nodes", 0, "interfaces", 1, "kind"), ""), "node 0.interfaces[1].kind: must be a non-empty string"),
    ],
    ids=[
        "weight-string",
        "weight-null",
        "gain-string",
        "ic-string",
        "weight-typo",
        "gain-typo",
        "nodez",
        "gamma-1e308",
        "gamma-1e400",
        "h_max-1e400",
        "alpha-0",
        "alpha-1e308",
        "h_max-0",
        "exponent-1.5",
        "position-nan",
        "kind-empty",
    ],
)
def test_bad_scenario_exits_1_with_path(tmp_path, capsys, edit, error):
    document = copy.deepcopy(FIXTURE_DOCUMENT)
    edit(document)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    assert run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == 1
    assert f"error: {error}" in capsys.readouterr().err


def edit_nodes(node_ids, iface_fields, **node_fields):
    def edit(document):
        for node in document["nodes"]:
            if node["id"] in node_ids:
                node.update(node_fields)
                for iface in node["interfaces"]:
                    iface.update(iface_fields)

    return edit


@pytest.mark.parametrize(
    "edit, code, errors",
    [
        (
            edit_nodes({0}, {"max_bitrate_bps": 1e-300}, min_required_bitrate_bps=1e300),
            1,
            [
                f"error: node 0.interfaces[{k}].max_bitrate_bps: ratio to min_required_bitrate_bps underflows to 0"
                for k in range(3)
            ],
        ),
        (edit_nodes({0, 1}, {"antenna_gain": 1e-200}), 0, []),
        (
            edit_nodes({0}, {"max_bitrate_bps": 1e300}, min_required_bitrate_bps=1e-300),
            1,
            [
                f"error: node 0.interfaces[{k}].max_bitrate_bps: ratio to min_required_bitrate_bps overflows to inf"
                for k in range(3)
            ],
        ),
    ],
    ids=["bandwidth-ratio", "gain-product", "bandwidth-ratio-overflow"],
)
def test_underflowing_valid_numbers_end_without_a_traceback(tmp_path, capsys, edit, code, errors):
    document = copy.deepcopy(FIXTURE_DOCUMENT)
    edit(document)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    assert run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == errors


def test_sweep_rejects_overflowing_gamma(capsys):
    assert run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "1e308") == 1
    assert "error: config.gamma: gamma * h_max * (nodes - 1) must be finite" in capsys.readouterr().err


def test_unreadable_scenario_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("run", "--scenario", str(missing), "--out", str(tmp_path / "o")) == 1
    assert f"error: cannot read scenario {missing}: " in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("run", "--scenario", str(broken), "--out", str(tmp_path / "o")) == 1
    assert f"error: cannot read scenario {broken}: " in capsys.readouterr().err


def test_sweep_of_an_unreadable_scenario_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("sweep", "--scenario", str(missing), "--gamma", "570") == 1
    assert f"error: cannot read scenario {missing}: " in capsys.readouterr().err


def test_check_of_a_missing_topology_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(missing)) == 1
    assert f"error: cannot read topology {missing}: " in capsys.readouterr().err


def test_check_rejects_unknown_link_key(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("run", "--scenario", FIXTURE_570, "--out", str(out))
    topology = json.loads((out / "topology.json").read_text())
    topology["links"][2]["weight"] = 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(topology))
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(edited)) == 1
    assert "error: links[2].weight: unknown field" in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_artifacts_are_strict_json(tmp_path):
    out = tmp_path / "capped"
    assert run_cli("run", "--scenario", FIXTURE_570, "--out", str(out), "--max-moves", "1") == 2
    report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
    for line in (out / "trace.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=reject_constant)
    linked = {link[end] for link in report["topology"]["links"] for end in ("node_a", "node_b")}
    isolated = [node_id for node_id in report["costs"] if int(node_id) not in linked]
    assert isolated
    assert all(report["costs"][node_id]["total"] == "Infinity" for node_id in isolated)


def test_dot_export_content(tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--scenario", FIXTURE_570, "--out", str(out))
    dot = (out / "topology.dot").read_text()
    report = json.loads((out / "report.json").read_text())
    assert dot.count(" -- ") == len(report["topology"]["links"])
    assert dot.count("shape=box") == 4  # internet-connected nodes
    assert dot.count("shape=ellipse") == 6
    assert 'label="wlan"' in dot
    assert 'label="zwave"' in dot


def test_dot_edge_labels_match_kinds():
    scenario = load_scenario(FIXTURE_570)
    topo = Topology(scenario.nodes, frozenset({Link(0, 1, 4, 0)}))
    dot = topology_to_dot(topo)
    assert '0 -- 4 [label="bluetooth"];' in dot


def test_dot_labels_are_escaped():
    document = copy.deepcopy(FIXTURE_DOCUMENT)
    for node in document["nodes"]:
        for iface in node["interfaces"]:
            if iface["kind"] == "wlan":
                iface["kind"] = 'wlan "5" \\'
    scenario = scenario_from_dict(document)
    assert validate_scenario(scenario.nodes, scenario.config) == []
    dot = topology_to_dot(best_response_dynamics(scenario)[0])
    assert '[label="wlan \\"5\\" \\\\"];' in dot
    edges = [line for line in dot.splitlines() if " -- " in line]
    assert all(re.fullmatch(r'  \d+ -- \d+ \[label="(?:[^"\\]|\\.)*"\];', line) for line in edges)


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    # a valid non-ASCII kind, under the C locale and with a default-encoding read or write an error
    document = copy.deepcopy(FIXTURE_DOCUMENT)
    for node in document["nodes"]:
        for iface in node["interfaces"]:
            if iface["kind"] == "wlan":
                iface["kind"] = "wlan\u2011ac"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "run"
    src = str(Path(linkform.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    python = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "linkform.cli"]
    for argv in (
        ["run", "--scenario", str(scenario), "--out", str(out)],
        ["check", "--scenario", str(scenario), "--topology", str(out / "topology.json"), "--out", str(out / "check")],
    ):
        result = subprocess.run(python + argv, capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
    assert 'label="wlan\u2011ac"' in (out / "topology.dot").read_text(encoding="utf-8")


def test_repeat_runs_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_cli("run", "--scenario", FIXTURE_570, "--seed", "4", "--out", str(first))
    run_cli("run", "--scenario", FIXTURE_570, "--seed", "4", "--out", str(second))
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "trace.jsonl").read_bytes() == (second / "trace.jsonl").read_bytes()


def test_env_seed_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LINKFORM_SEED", "7")
    out = tmp_path / "env"
    run_cli("run", "--scenario", FIXTURE_570, "--out", str(out))
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7


def scenario_with_config(tmp_path, **config):
    """The 570 fixture with ``config`` fields overridden, written to a file."""
    document = json.loads(Path(FIXTURE_570).read_text())
    document["config"].update(config)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_tie_break_is_a_legacy_key(tmp_path, capsys):
    # the fixtures carry "tie_break": "index"; it is read, never written back
    assert json.loads(Path(FIXTURE_570).read_text())["config"]["tie_break"] == "index"
    assert "tie_break" not in scenario_to_dict(load_scenario(FIXTURE_570))["config"]
    scenario = scenario_with_config(tmp_path, tie_break="random")
    assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "o")) == 1
    assert "config.tie_break: unknown policy 'random'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("alpha", "x"), ("alpha", None), ("h_max", True), ("path_loss_exponent", "2.0"), ("tie_break", 1)],
)
def test_config_field_of_wrong_type_is_rejected(tmp_path, capsys, field, value):
    scenario = scenario_with_config(tmp_path, **{field: value})
    assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "o")) == 1
    assert f"error: config.{field}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["LINKFORM_SEED", "LINKFORM_MAX_MOVES"])
def test_non_integer_env_default_is_rejected(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv(name, "abc")
    assert run_cli("run", "--scenario", FIXTURE_570, "--out", str(tmp_path / "o")) == 1
    assert f"error: {name} must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "names, argv, code",
    [
        (("LINKFORM_SEED", "LINKFORM_MAX_MOVES"), ["check", "--topology", "{empty}"], 2),
        (("LINKFORM_SEED",), ["sweep", "--gamma", "570", "--out", "{out}.csv"], 0),
        (("LINKFORM_MAX_MOVES",), ["sweep", "--gamma", "570", "--max-moves", "50", "--out", "{out}.csv"], 0),
        (("LINKFORM_SEED", "LINKFORM_MAX_MOVES"), ["run", "--seed", "0", "--max-moves", "50", "--out", "{out}"], 0),
    ],
    ids=["check", "sweep", "sweep-flag", "run-flags"],
)
def test_non_integer_env_default_is_read_only_where_used(tmp_path, monkeypatch, capsys, names, argv, code):
    for name in names:
        monkeypatch.setenv(name, "abc")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"links": []}))
    argv = [arg.format(empty=empty, out=tmp_path / "o") for arg in argv]
    assert run_cli(argv[0], "--scenario", FIXTURE_570, *argv[1:]) == code
    assert "must be an integer" not in capsys.readouterr().err


def capped_argv(command, tmp_path):
    if command == "run":
        return ["run", "--scenario", FIXTURE_570, "--out", str(tmp_path / "o")]
    return ["sweep", "--scenario", FIXTURE_570, "--gamma", "570", "--out", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_move_cap_is_rejected(tmp_path, monkeypatch, capsys, command, source):
    argv = capped_argv(command, tmp_path)
    if source == "flag":
        argv += ["--max-moves", "-1"]
    else:
        monkeypatch.setenv("LINKFORM_MAX_MOVES", "-1")
    assert run_cli(*argv) == 1
    assert "error: --max-moves must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seed_count_below_one_is_rejected(tmp_path, capsys, seeds):
    assert run_cli(*capped_argv("sweep", tmp_path), "--seeds", seeds) == 1
    assert f"error: --seeds must be >= 1, got {seeds}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def swapped(link):
    return {"node_a": link["node_b"], "iface_a": link["iface_b"], "node_b": link["node_a"], "iface_b": link["iface_a"]}


@pytest.mark.parametrize(
    "links, error",
    [
        (lambda links: links + [dict(links[0])], f"links[{len(TOPOLOGY_DOCUMENT['links'])}]: duplicate of links[0]"),
        (lambda links: [links[0], swapped(links[0])], "links[1]: duplicate of links[0]"),
        (
            lambda links: links + [dict(links[0], iface_a=1, iface_b=1)],
            f"link ({TOPOLOGY_DOCUMENT['links'][0]['node_a']}, {TOPOLOGY_DOCUMENT['links'][0]['node_b']}): "
            "node pair linked more than once",
        ),
        (
            lambda links: [{"node_a": 2, "iface_a": 0, "node_b": 2, "iface_b": 0}],
            "links[0]: link endpoints must differ, got node 2 twice",
        ),
    ],
    ids=["repeated", "swapped", "other-interfaces", "self-link"],
)
def test_duplicate_link_entry_is_rejected(tmp_path, capsys, links, error):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"links": links(copy.deepcopy(TOPOLOGY_DOCUMENT["links"]))}))
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", str(topology)) == 1
    assert f"error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, error",
    [
        ("570:inf:10", "must be finite"),
        ("-inf:570:10", "must be finite"),
        ("570:600:nan", "must be finite"),
        ("700:500:10", "is empty"),
        ("1e17:1e17:1", "too small to advance"),
        ("500:700", "must be A:B:STEP or a single value"),
        ("500:700:0", "step must be positive"),
    ],
)
def test_bad_gamma_range_is_rejected(text, error):
    with pytest.raises(ValueError, match=error):
        _parse_gamma_range(text)


def test_gamma_ranges_keep_their_values():
    assert _parse_gamma_range("570") == [570.0]
    assert _parse_gamma_range("570:570:10") == [570.0]
    assert _parse_gamma_range("500:700:10") == [500.0 + 10 * k for k in range(21)]


def test_sweep_rejects_empty_gamma_range(capsys):
    assert run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "700:500:10") == 1
    assert "error: gamma range '700:500:10' is empty" in capsys.readouterr().err


def test_run_out_that_is_a_file_is_rejected(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("")
    assert run_cli("run", "--scenario", FIXTURE_570, "--out", str(out)) == 1
    assert f"error: cannot write {out}: " in capsys.readouterr().err


def test_check_out_that_is_a_file_is_rejected(tmp_path, capsys):
    run_cli("run", "--scenario", FIXTURE_570, "--out", str(tmp_path / "run"))
    out = tmp_path / "file"
    out.write_text("")
    topology = str(tmp_path / "run" / "topology.json")
    assert run_cli("check", "--scenario", FIXTURE_570, "--topology", topology, "--out", str(out)) == 1
    assert f"error: cannot write {out}: " in capsys.readouterr().err


def test_sweep_out_in_a_missing_directory_is_rejected(tmp_path, capsys):
    out = tmp_path / "missing" / "sweep.csv"
    assert run_cli("sweep", "--scenario", FIXTURE_570, "--gamma", "570", "--out", str(out)) == 1
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()
