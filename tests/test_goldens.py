"""Byte identity of ``linkform run`` artifacts on the shipped fixtures.

The digests are the ``run`` entries of ``perfbench/goldens.json``, which the
benchmark also checks; this test only reads them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from linkform.cli import fixture_path, main

GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("fixture", ["smart_home_gamma570.json", "smart_home_gamma600.json"])
def test_run_artifacts_match_golden_digests(tmp_path, capsys, fixture, seed):
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(fixture_path(fixture)), "--seed", str(seed), "--out", str(out)]) in (0, 2)
    expected = GOLDENS["run"][f"{fixture}@{seed}"]
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert actual == expected
