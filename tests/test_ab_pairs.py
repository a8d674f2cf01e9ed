"""The A/B pair tool's arithmetic (``tools/ab_pairs.py``), on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def test_summary_gives_medians_inclusive_quartiles_wins_and_percent_change():
    result = ab_pairs.summary([4.0, 1.0, 3.0, 2.0], [3.0, 1.5, 2.0, 2.5])
    assert result == {
        "parent": [4.0, 1.0, 3.0, 2.0],
        "change": [3.0, 1.5, 2.0, 2.5],
        "parent_median": 2.5,
        "change_median": 2.25,
        "parent_quartiles": [1.75, 3.25],  # the exclusive method would give [1.25, 3.75]
        "change_quartiles": [1.875, 2.625],
        "change_wins": 2,  # strictly lower only: pairs 1 and 3
        "median_change_pct": -10.0,
        "parent_iqr": 1.5,
        "gain_claimable": False,
    }


def test_a_gain_is_claimable_at_nine_tenths_of_pairs_won_and_a_median_gap_beyond_the_parent_iqr():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]  # median 2.2, inclusive quartiles 2.1 and 2.3
    claimed = ab_pairs.summary(parent, [1.0] * 9 + [2.4])  # the last pair ties
    assert (claimed["change_wins"], claimed["parent_iqr"], claimed["gain_claimable"]) == (9, 0.2, True)
    tied = ab_pairs.summary(parent, [1.0] * 8 + [2.3, 2.4])  # two ties: 8 of 10 won, however far the medians
    assert (tied["change_wins"], tied["gain_claimable"]) == (8, False)
    close = ab_pairs.summary(parent, [value - 0.1 for value in parent])  # every pair won, medians 0.1 apart
    assert (close["change_wins"], close["gain_claimable"]) == (10, False)


def test_compile_ms_times_each_source_file_of_each_side_and_their_sum(tmp_path):
    sources = {"parent": {"a.py": "x = 1\n"}, "change": {"a.py": "x = 2\n", "b.py": "def f():\n    return 2\n"}}
    for side, files in sources.items():
        package = tmp_path / side / "src" / "linkform"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    result = ab_pairs.compile_ms({side: tmp_path / side for side in sources})
    assert {side: list(times) for side, times in result.items()} == {
        "parent": ["a.py", "total"],
        "change": ["a.py", "b.py", "total"],
    }
    assert all(value >= 0.0 for times in result.values() for value in times.values())
    assert result["change"]["total"] == pytest.approx(result["change"]["a.py"] + result["change"]["b.py"], abs=2e-3)
    assert ab_pairs.source_lines({side: tmp_path / side for side in sources}) == {
        "parent": {"a.py": 1, "total": 1},
        "change": {"a.py": 1, "b.py": 2, "total": 3},
    }
