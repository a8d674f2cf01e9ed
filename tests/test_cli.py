import json
from pathlib import Path

import pytest

from linkform.cli import (
    fixture_path,
    load_scenario,
    main,
    scenario_from_dict,
    scenario_to_dict,
    topology_to_dot,
)
from linkform.model import Link, Topology

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
    scenario = load_scenario(FIXTURE_570)
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


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
