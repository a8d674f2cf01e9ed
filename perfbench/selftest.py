"""Tests of the benchmark's own code: the tiled-fixture generator and the cycle counter.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import goldens  # noqa: E402
import tiling  # noqa: E402
from workloads import cycle_moves, fresh_import  # noqa: E402

lf = fresh_import()


def node(node_id: int, x: float) -> dict:
    return {"id": node_id, "position": [x, 3.0], "interfaces": [{"kind": "wlan"}]}


class TilingTest(unittest.TestCase):
    def test_copies_are_shifted_and_renumbered_by_rank(self):
        document = {"config": {"gamma": 570.0}, "nodes": [node(9, 1.0), node(2, 5.0), node(5, 0.0)]}
        tiled = tiling.tile_document(document, 3)
        self.assertEqual(tiled["config"], document["config"])
        self.assertEqual([n["id"] for n in tiled["nodes"]], [2, 0, 1, 5, 3, 4, 8, 6, 7])
        self.assertEqual(
            [n["position"] for n in tiled["nodes"][3:6]], [[41.0, 3.0], [45.0, 3.0], [40.0, 3.0]]
        )
        self.assertEqual(tiled["nodes"][8]["interfaces"], document["nodes"][2]["interfaces"])
        self.assertEqual(document["nodes"][0]["id"], 9, "the input document is left unchanged")

    def test_rejects_zero_copies(self):
        with self.assertRaises(ValueError):
            tiling.tile_document({"config": {}, "nodes": []}, 0)

    def test_tiled_inputs_match_their_pins_and_load(self):
        fixture = lf.cli.fixture_path(goldens.TILED_FIXTURE)
        pins = goldens.load()["tiled_inputs"]
        for name, copies in goldens.TILED_COPIES.items():
            data = tiling.tiled_bytes(fixture, copies)
            self.assertEqual(tiling.sha256(data), pins[name])
            scenario = lf.cli.scenario_from_dict(json.loads(data))
            self.assertEqual(scenario.ids, tuple(range(10 * copies)))
            self.assertEqual(lf.model.validate_scenario(scenario.nodes, scenario.config), [])


def link(a: int, b: int):
    return lf.model.Link(a, 0, b, 0)


def hashes_of(moves: list[tuple[str, int, int]]) -> list[str]:
    links: set = set()
    hashes = []
    for kind, a, b in moves:
        (links.add if kind == "+" else links.remove)(link(a, b))
        hashes.append(lf.model.links_digest(links))
    return hashes


EMPTY = lf.model.links_digest(())
CYCLE = [("-", 1, 8), ("+", 7, 8), ("-", 6, 8), ("+", 1, 8), ("-", 7, 8), ("+", 6, 8)]


class CycleMovesTest(unittest.TestCase):
    def test_six_move_cycle_counts_from_its_closing_move(self):
        # steps 0-2 build S = {(0,1), (1,8), (6,8)} without visiting a state of the
        # cycle; its sixth move, step 8, is the first to return to an earlier state
        hashes = hashes_of([("+", 1, 8), ("+", 6, 8), ("+", 0, 1)] + CYCLE + CYCLE)
        self.assertEqual(len(hashes), 15)
        self.assertEqual(cycle_moves(hashes, EMPTY), 15 - 8)

    def test_earlier_repeat_inside_the_cycle_counts_first(self):
        # building S from {(1,8)} makes the cycle's fifth state a repeat of step 0
        hashes = hashes_of([("+", 1, 8), ("+", 6, 8)] + CYCLE)
        self.assertEqual(cycle_moves(hashes, EMPTY), 8 - 6)

    def test_no_repeat_counts_zero(self):
        self.assertEqual(cycle_moves(hashes_of([("+", 1, 8), ("+", 6, 8), ("+", 7, 8)]), EMPTY), 0)
        self.assertEqual(cycle_moves([], EMPTY), 0)

    def test_return_to_the_empty_topology_is_a_repeat(self):
        self.assertEqual(cycle_moves(hashes_of([("+", 1, 8), ("-", 1, 8), ("+", 6, 8)]), EMPTY), 2)

    def test_cycling_fixture_run(self):
        """gamma 610, scan seed 2 on the fixture enters the six-move cycle above."""
        base = lf.cli.load_scenario(lf.cli.fixture_path(goldens.FIXTURES[0]))
        scenario = lf.model.Scenario(base.nodes, dataclasses.replace(base.config, gamma=610.0))
        _, trace = lf.game.best_response_dynamics(scenario, seed=2, max_moves=100)
        hashes = [step.topology_hash for step in trace.steps]
        entry = len(hashes) - cycle_moves(hashes, EMPTY)
        self.assertEqual(entry, 26)
        pairs = {(type(step.move).__name__, step.move.link.pair) for step in trace.steps[entry - 5 : entry + 1]}
        self.assertEqual(pairs, {("Remove" if kind == "-" else "Add", (a, b)) for kind, a, b in CYCLE})


if __name__ == "__main__":
    unittest.main()
