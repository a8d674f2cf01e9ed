"""Byte identity of ``linkform run`` and ``linkform sweep`` artifacts and of enumerated stable sets.

The fixture and tiled n = 20 run digests, the sweep digest and the first
analyze_small stable sets are entries of ``perfbench/goldens.json``, which the
benchmark also checks; these tests only read them, and build their inputs
with the benchmark's own generators. The cycling run's digests are literals,
recorded before cycles were completed by repetition, and so are the tiled
n = 60 runs', recorded before the scans' certificates at scan seed 0 and
before the single hop search at scan seed 1.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from linkform import cli, model, propagation
from linkform.cli import fixture_path, main
from linkform.game import brute_force_stable_set

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import goldens  # noqa: E402
import scenarios  # noqa: E402
import tiling  # noqa: E402

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("fixture", ["smart_home_gamma570.json", "smart_home_gamma600.json"])
def test_run_artifacts_match_golden_digests(tmp_path, capsys, fixture, seed):
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(fixture_path(fixture)), "--seed", str(seed), "--out", str(out)]) in (0, 2)
    expected = GOLDENS["run"][f"{fixture}@{seed}"]
    actual = {name: sha256(out / name) for name in expected}
    assert actual == expected


@pytest.mark.parametrize("seed", range(3))
def test_tiled_run_artifacts_match_golden_digests(tmp_path, capsys, seed):
    scenario = goldens.write_tiled(cli, "tiled20", tmp_path, GOLDENS["tiled_inputs"])  # raises if the input drifted
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out)]) in (0, 2)
    expected = GOLDENS["run"][f"tiled20@{seed}"]
    assert {name: sha256(out / name) for name in expected} == expected


# unit 2 is the first whose stable set changes when the enumeration leaves out the absent pairs that its
# certificates neither accept nor refute
@pytest.mark.parametrize("unit", range(3))
def test_stable_sets_match_golden_digests(unit):
    case = scenarios.generate(model, propagation, 0, unit + 1)[unit]  # analyze_small seed 0
    assert goldens.stable_set_digest(brute_force_stable_set(case.scenario)) == GOLDENS["analyze_small"]["0"][unit]


def test_sweep_matches_golden_digest(tmp_path, capsys):
    # four of these 105 runs (gamma 610-640, seed 2) cycle until the 1,000-move cap
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", str(fixture_path("smart_home_gamma570.json")), "--gamma", "500:700:10",
            "--seeds", "5", "--max-moves", "1000", "--out", str(out)]
    assert main(argv) == 0
    assert {"sweep.csv": sha256(out)} == GOLDENS["sweep_fixture"]


def test_cycling_run_artifacts_match_recorded_digests(tmp_path, capsys):
    # enters a 6-move cycle at move 21; 1,003 is not a multiple of the cycle length
    document = json.loads(fixture_path("smart_home_gamma570.json").read_text())
    document["config"]["gamma"] = 610.0
    scenario = tmp_path / "gamma610.json"
    scenario.write_text(json.dumps(document))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--seed", "2", "--max-moves", "1003", "--out", str(out)]) == 2
    assert {name: sha256(out / name) for name in ("report.json", "trace.jsonl")} == {
        "report.json": "cb662d866d9c152085206294a429ab33d55d9f072139ea2d4494d98746e48660",
        "trace.jsonl": "61ade93c753f77eb68565fc43dd375f0f31a7865e8e860e33766cd71015cf0a9",
    }


TILED60_DIGESTS = {
    # scan seed 0 converges after 392 moves
    0: {
        "report.json": "6d4b21246d80c7fa08e313042337516c4fc0a132c9fac8e43be6976ba88fb9c0",
        "trace.jsonl": "802b4e34429e7e4a1e617926fba5fec9b01f6c619cd4c82b43ade1e216a912db",
        "topology.json": "7ea10bf96aed9a389106f62fae2eaf0a70cc397efc9f1b78bb2f4f7446ee81ca",
    },
    # scan seed 1 converges after 872 moves, 277 of them severances; its scans price 25,442 cuts exactly
    1: {
        "report.json": "2d011387d4b9fe0d09b34c0f131deb74ef65952653cbe9a8622bf34617de7b37",
        "trace.jsonl": "1262d1f8389f9be98e16eda4691d23b0590ab65211dc89e3758709253f8a9097",
        "topology.json": "5cca99b251d3820784c163756f2a32a55eff1df4aa1842d091471b731544aff5",
    },
}


def test_tiled60_run_artifacts_match_recorded_digests(tmp_path, capsys):
    # the 570 fixture tiled 6x, at two scan seeds
    data = tiling.tiled_bytes(fixture_path(goldens.TILED_FIXTURE), 6)
    assert tiling.sha256(data) == "cdada5058e6678d7dd2dfa30828de52a8915ba5010396965df68ac27be20ded0"
    scenario = tmp_path / "tiled60.json"
    scenario.write_bytes(data)
    for seed, expected in TILED60_DIGESTS.items():
        out = tmp_path / f"run{seed}"
        assert main(["run", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in expected} == expected
