"""Byte identity of ``linkform run`` and ``linkform sweep`` artifacts.

The fixture run and sweep digests are entries of ``perfbench/goldens.json``,
which the benchmark also checks; these tests only read them. The cycling run's
digests are literals, recorded before cycles were completed by repetition.
"""

import hashlib
import json
from pathlib import Path

import pytest

from linkform.cli import fixture_path, main

GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text())


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
