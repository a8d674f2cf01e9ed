"""The deviation engine against the reference cost path, with no tolerance.

The engine prices states from hop balls and sums peers in ascending id order;
``cost.total_cost`` and ``oracles.stability_oracle`` walk each topology
afresh. Every trace cost must equal the reference bit for bit, and the
stability check must report exactly the oracle's deviations, on both a
family that severs links (``fixture_sample_scenario``) and one that does not
(``free_scenario``). So must every single-deviation query, and the parts
that the enumeration reads from each pair subset's neighbourhood masks must
equal the engine's grown and severed parts, and its addition certificates must
agree with exact pricing at every pairing combination they decide. Parts hold no
gamma: they must be the same at every gamma, which only ``_state`` applies.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import random
import sys
import time
from bisect import bisect_left
from operator import add, or_
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from linkform import game, model, propagation
from linkform.cli import fixture_path, load_scenario, scenario_from_dict
from linkform.cost import bridging_coefficient, total_cost
from linkform.game import (
    Add,
    Rejection,
    Remove,
    best_response_dynamics,
    delta_cost_add,
    delta_cost_remove,
    is_pairwise_stable,
    propose_add,
)
from linkform.model import IncomparableCostError, Link, Scenario, Topology

from generators import (
    feasible_pairings,
    fixture_sample_scenario,
    free_scenario,
    isolated_scenario,
    multi_radio_scenario,
    overflowing_unit_scenario,
    random_topology,
    split_scenario,
)
from oracles import improves_naive, node_state_naive, resolved_delta_naive, stability_oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import scenarios as workload_scenarios  # noqa: E402
import tiling  # noqa: E402

FIXTURES = [load_scenario(fixture_path(name)) for name in ("smart_home_gamma570.json", "smart_home_gamma600.json")]


def bits(value: float) -> str:
    return value.hex()


def assert_matches_oracle(topology, config):
    report = is_pairwise_stable(topology, config)
    stable, severances, additions = stability_oracle(topology, config)
    assert set(report.severance_violations) == severances
    assert set(report.addition_violations) == additions
    assert report.stable == stable
    assert len(report.severance_violations) == len(severances)
    assert len(report.addition_violations) == len(additions)


def applied(topology, move):
    return topology.with_link(move.link) if isinstance(move, Add) else topology.without_link(move.link)


@settings(max_examples=24, deadline=None)
@given(
    severing=st.booleans(),
    seed=st.integers(0, 10_000),
    scan_seed=st.integers(0, 3),
    probe=st.floats(0.0, 1.0),
)
def test_engine_equals_reference_exactly(severing, seed, scan_seed, probe):
    if severing:
        scenario, scan_seed = fixture_sample_scenario(seed)
    else:
        scenario = free_scenario(seed, max_nodes=12)
        assume(len(scenario.nodes) >= 6)
    _, trace = best_response_dynamics(scenario, seed=scan_seed, max_moves=200)
    probe_step = int(probe * (len(trace.steps) - 1)) if trace.steps else -1
    topology = Topology.empty(scenario.nodes)
    for index, step in enumerate(trace.steps):
        topology = applied(topology, step.move)
        for node_id, cost in step.costs:
            assert bits(cost) == bits(total_cost(topology.node(node_id), topology, scenario.config).total.value)
        if index == probe_step:
            assert_matches_oracle(topology, scenario.config)
    assert_matches_oracle(topology, scenario.config)
    if trace.converged:
        assert stability_oracle(topology, scenario.config)[0]


def test_severing_family_severs():
    runs = [fixture_sample_scenario(seed) for seed in range(20)]
    traces = [best_response_dynamics(scenario, seed=scan_seed, max_moves=200)[1] for scenario, scan_seed in runs]
    assert sum(any(isinstance(step.move, Remove) for step in trace.steps) for trace in traces) >= 10
    assert all(6 <= len(scenario.nodes) <= 9 for scenario, _ in runs)
    assert all(scenario.ids == tuple(range(len(scenario.nodes))) for scenario, _ in runs)
    assert all(500.0 <= scenario.config.gamma <= 700.0 and 0 <= scan_seed <= 3 for scenario, scan_seed in runs)


def expect_delta(query, before, after):
    """Run a ``delta_cost_*`` query and check it against the reference states, bit for bit."""
    if before[0] == after[0] == float("inf"):
        with pytest.raises(IncomparableCostError):
            query()
    else:
        assert bits(query()) == bits(after[0] - before[0])


def test_single_queries_equal_reference_exactly():
    for seed in range(3):
        scenario, scan_seed = fixture_sample_scenario(seed)
        config = scenario.config
        final, trace = best_response_dynamics(scenario, seed=scan_seed, max_moves=200)
        middle = Topology.empty(scenario.nodes)
        for step in trace.steps[: len(trace.steps) // 2]:
            middle = applied(middle, step.move)
        for topology in (Topology.empty(scenario.nodes), middle, final):
            base = {i: node_state_naive(topology, i, config) for i in scenario.ids}
            for link in sorted(topology.links):
                reduced = topology.without_link(link)
                for i in link.pair:
                    after = node_state_naive(reduced, i, config)
                    expect_delta(lambda: delta_cost_remove(scenario.node(i), topology, link, config), base[i], after)
            for (a, b), options in feasible_pairings(scenario).items():
                if topology.has_pair(a, b):
                    continue
                bystander = next(i for i in scenario.ids if i not in (a, b))
                for r_a, r_b in options:
                    link = Link(a, r_a, b, r_b)
                    grown = topology.with_link(link)
                    after = {i: node_state_naive(grown, i, config) for i in (a, b, bystander)}
                    for i in (a, b, bystander):
                        expect_delta(lambda: delta_cost_add(scenario.node(i), topology, link, config), base[i], after[i])
                    decision = propose_add(topology, b, r_b, a, r_a, config)
                    decliners = tuple(i for i in (a, b) if not improves_naive(base[i], after[i]))
                    if decliners:
                        assert decision == Rejection(kind="declined", declined_by=decliners)
                    else:
                        assert decision.link == link
                        assert bits(decision.delta_a) == bits(resolved_delta_naive(base[a], after[a]))
                        assert bits(decision.delta_b) == bits(resolved_delta_naive(base[b], after[b]))


def components(ids, pairs):
    """Each node's component as a frozenset, by a plain search over ``pairs``."""
    adjacent = {i: set() for i in ids}
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    label = {}
    for start in ids:
        seen, stack = {start}, [start]
        while stack:
            for j in adjacent[stack.pop()] - seen:
                seen.add(j)
                stack.append(j)
        label[start] = frozenset(seen)
    return label


def test_parts_table_equals_grown_and_severed():
    # the enumeration's parts, read on demand from each subset's masks, against the evaluator's own
    scenarios = [Scenario(fixture_sample_scenario(seed)[0].nodes[:5], FIXTURES[0].config) for seed in range(2)]
    scenarios += [free_scenario(seed, max_nodes=5) for seed in (5, 12)]
    # nodes 3 and 4 moved 100 km away: two clusters, so closedness must look past node 0's component
    far = tuple(
        dataclasses.replace(node, position=(node.position[0] + 1e5, node.position[1])) for node in scenarios[0].nodes[3:]
    )
    scenarios.append(Scenario(scenarios[0].nodes[:3] + far, FIXTURES[0].config))
    split = game.pairing_table(scenarios[-1])
    assert (3, 4) in split and not any(a < 3 <= b for a, b in split)
    for scenario in scenarios:
        pairings = game.pairing_table(scenario)
        pair_order = sorted(pairings)
        empty = game._Evaluator(scenario)
        nears, closed = game._subset_masks(empty, pair_order)
        assert len(nears) == len(closed) == 1 << len(pair_order)
        for subset, near in enumerate(nears):
            linked = [pair for k, pair in enumerate(pair_order) if subset >> k & 1]
            links = [Link(a, pairings[a, b][0].r_a, b, pairings[a, b][0].r_b) for a, b in linked]
            evaluator = game._Evaluator(scenario, links)
            assert evaluator.states() == {i: evaluator.state(i) for i in scenario.ids}
            assert all(empty.masked_parts(near, i) == evaluator.reach(i, evaluator.ends[i]) for i in scenario.ids)
            for k, (a, b) in enumerate(pair_order):
                for i, j in ((a, b), (b, a)):
                    if subset >> k & 1:
                        own = evaluator.ends[i]
                        at = bisect_left(own, (j,))
                        severed = empty.masked_parts(nears[subset ^ 1 << k], i)
                        assert evaluator.reach(i, own[:at] + own[at + 1 :]) == severed
                    else:
                        assert evaluator.grown(i, j)[1] == empty.masked_parts(nears[subset | 1 << k], i)
            # skipped exactly when an absent feasible pair joins two components
            label = components(scenario.ids, linked)
            assert closed[subset] == all(label[a] == label[b] for a, b in pair_order)


GAMMA_TIE = float.fromhex("0x1.87d048e1628dbp+9")  # 783.627224...: the fixture topology's addition tie in test_game.py


def test_parts_are_the_same_at_every_gamma():
    # parts count IC hops as a whole number, and gamma weighs them only where ``_state`` sums a state; the
    # level-synchronous pass in ``states()`` gives every node the state that the search in ``state(i)`` does
    tiled20 = scenario_from_dict(json.loads(tiling.tiled_bytes(fixture_path("smart_home_gamma570.json"), 2)))
    for scenario in (FIXTURES[0], tiled20):
        links = best_response_dynamics(scenario)[0].links
        seen = []
        for gamma in (1.0, 570.0, GAMMA_TIE):
            config = dataclasses.replace(scenario.config, gamma=gamma)
            evaluator = game._Evaluator(Scenario(scenario.nodes, config), links)
            states, near = evaluator.states(), tuple(evaluator.near)
            reached = {i: evaluator.reach(i, own) for i, own in evaluator.ends.items()}
            for i, parts in reached.items():
                assert type(parts[0]) is int
                expected = game._state(gamma, game._link_cost(config.alpha, game._unit_sums(evaluator.ends[i])), *parts)
                assert (bits(states[i][0]), states[i][1]) == (bits(expected[0]), expected[1])
                searched = evaluator.state(i)
                assert (bits(states[i][0]), states[i][1]) == (bits(searched[0]), searched[1])
            masked, grown, reach = {}, {}, {}
            for i, own in evaluator.ends.items():
                masked[i] = evaluator.masked_parts(near, i)
                for j in evaluator.ids:
                    if not near[evaluator.rank[i]] & evaluator.bit[j]:  # absent pairs only
                        grown[i, j] = evaluator.grown(i, j)[1]
                for at in range(len(own)):  # each cut
                    reach[i, at] = evaluator.reach(i, own[:at] + own[at + 1 :])
            seen.append((reached, evaluator.balls, masked, grown, reach))
        assert grown and reach and any(parts[0] for parts in reached.values())  # some node has IC hops
        assert seen[0] == seen[1] == seen[2]


def test_join_certificates_agree_with_exact_pricing():
    # for every closed subset, node and absent pair of the node: each pairing of the pair that the certificates
    # accept improves the node at every pairing combination of its links, and each they rule out at none
    scenarios = [free_scenario(seed, max_nodes=4) for seed in range(8)]
    scenarios += [multi_radio_scenario(), split_scenario(), isolated_scenario()]
    cases = [Scenario(s.nodes, dataclasses.replace(s.config, h_max=h_max)) for s in scenarios for h_max in (1, 2, 5)]
    cases += [overflowing_unit_scenario(), overflowing_unit_scenario(3)]
    # links priced near the hop terms, so that gamma decides verdicts: the first 4 and 5 nodes of analyze_small
    # scenarios (workload seed 0) and the first 4 of fixture samples
    small = [case.scenario for case in workload_scenarios.generate(model, propagation, 0, 4)]
    cases += [Scenario(s.nodes[:count], s.config) for s in small for count in (4, 5)]
    cases += [Scenario(sample.nodes[:4], sample.config) for sample, _ in map(fixture_sample_scenario, range(4))]
    decided = collections.Counter()
    for scenario in cases:
        alpha, gamma, pairings = scenario.config.alpha, scenario.config.gamma, game.pairing_table(scenario)
        pair_order = sorted(pairings)
        empty = game._Evaluator(scenario)
        nears, closed = game._subset_masks(empty, pair_order)

        def ends(i, pair):  # i's end of ``pair``, per pairing
            side = pair.index(i)
            return [(pair[1 - side], option[side], option[side + 2]) for option in pairings[pair]]

        def price(own, parts):
            return game._state(gamma, game._link_cost(alpha, game._unit_sums(sorted(own))), *parts)

        for subset in itertools.compress(range(len(nears)), closed):
            for k, pair in enumerate(pair_order):
                if subset >> k & 1:
                    continue
                for i in pair:
                    linked = [ends(i, other) for m, other in enumerate(pair_order) if subset >> m & 1 and i in other]
                    before, after = empty.masked_parts(nears[subset], i), empty.masked_parts(nears[subset | 1 << k], i)
                    bounds = game._interface_bounds(alpha, linked)
                    accepted, possible = game._join_certificates(
                        alpha, gamma, empty.tolerance, bounds, before, after, ends(i, pair)
                    )
                    for j, end in enumerate(ends(i, pair)):
                        improves = {price([*own, end], after) < price(own, before) for own in itertools.product(*linked)}
                        if accepted >> j & 1:
                            assert improves == {True}, (scenario, subset, k, i, j)
                            decided["accepted"] += 1
                        if not possible >> j & 1:
                            assert improves == {False}, (scenario, subset, k, i, j)
                            decided["ruled out"] += 1
                        decided["pairings"] += 1
    assert decided["accepted"] > 100 and decided["ruled out"] > 10, decided


def test_stability_equals_oracle_at_small_hop_caps():
    # at h_max 1 and 2 every ball row has only 2 or 3 levels
    for seed in range(30):
        scenario = fixture_sample_scenario(seed)[0]
        rng = random.Random(seed)
        for topology in [random_topology(scenario, rng) for _ in range(4)]:
            for h_max in (1, 2):
                assert_matches_oracle(topology, dataclasses.replace(scenario.config, h_max=h_max))


# -- summation order -----------------------------------------------------------------


@functools.cache
def order_runs():
    """(scenario, scan seed, final topology, trace) of fixture and severing-family runs of at most 200 moves."""
    runs = [(fixture, seed) for fixture in FIXTURES for seed in (0, 1, 2)]
    runs += [fixture_sample_scenario(seed) for seed in range(6)]
    return [(scenario, seed, *best_response_dynamics(scenario, seed=seed, max_moves=200)) for scenario, seed in runs]


@functools.cache
def order_cases():
    """(scenario, link set) pairs: the ``order_runs``, their midpoints, random link sets."""
    cases = []
    for scenario, scan_seed, topology, trace in order_runs():
        middle = Topology.empty(scenario.nodes)
        for step in trace.steps[: len(trace.steps) // 2]:
            middle = applied(middle, step.move)
        dense = random_topology(scenario, random.Random(scan_seed + len(cases)))
        cases += [(scenario, topology.links), (scenario, middle.links), (scenario, dense.links)]
    return cases


def test_states_do_not_depend_on_link_insertion_order():
    for scenario, links in order_cases():
        forward, backward = sorted(links), sorted(links, reverse=True)
        states = []
        for order in (forward, backward):
            evaluator = game._Evaluator(scenario, order)
            states.append([(bits(cost), unreachable) for cost, unreachable in map(evaluator.state, scenario.ids)])
            rebuilt = evaluator.states()
            assert states[-1] == [(bits(rebuilt[i][0]), rebuilt[i][1]) for i in scenario.ids]
        assert states[0] == states[1]


def test_bridging_terms_equal_the_reference_in_peer_order():
    # the engine sums inverse degrees in ascending peer id order, as cost.bridging_coefficient does; for some
    # of these nodes the opposite order rounds differently, and a term below the total's last bit can still
    # flip a near tie, so the parts must match bit for bit, not only the totals
    reordered = 0
    for scenario, links in order_cases():
        topology = Topology(scenario.nodes, frozenset(links))
        evaluator = game._Evaluator(scenario, links)
        evaluator.states()
        for node in scenario.nodes:
            own = evaluator.ends[node.id]
            parts = evaluator.reach(node.id, own)
            if not parts[3]:
                assert bits(parts[2]) == bits(bridging_coefficient(node, topology))
                inverse = [1.0 / len(evaluator.ends[j]) for j, _, _ in own]
                reordered += functools.reduce(add, inverse, 0.0) != functools.reduce(add, inverse[::-1], 0.0)
            for j in scenario.ids:
                if j == node.id or topology.has_pair(node.id, j):
                    continue
                grown = evaluator.grown(node.id, j)[1]
                if not grown[3]:
                    assert bits(grown[2]) == bits(bridging_coefficient(node, topology.with_link(Link(node.id, 0, j, 0))))
    assert reordered


def test_near_masks_follow_every_toggle():
    # each node's closed-neighbourhood mask, which the exact search reads, against its ends after every move
    tiled20 = scenario_from_dict(json.loads(tiling.tiled_bytes(fixture_path("smart_home_gamma570.json"), 2)))
    runs = [(scenario, trace) for scenario, _, _, trace in order_runs()]
    runs.append((tiled20, best_response_dynamics(tiled20, seed=2)[1]))
    assert sum(isinstance(step.move, Remove) for step in runs[-1][1].steps) == 45
    for scenario, trace in runs:
        evaluator = game._Evaluator(scenario)
        for step in trace.steps:
            evaluator.toggle(step.move.link)
            for i in scenario.ids:
                expected = functools.reduce(or_, (evaluator.bit[j] for j, _, _ in evaluator.ends[i]), evaluator.bit[i])
                assert evaluator.near[evaluator.rank[i]] == expected


def test_stability_does_not_depend_on_link_insertion_order():
    for scenario, links in order_cases():
        reports = [
            is_pairwise_stable(Topology(scenario.nodes, frozenset(order)), scenario.config)
            for order in (sorted(links), sorted(links, reverse=True))
        ]
        assert reports[0] == reports[1]


def test_dynamics_do_not_depend_on_pairing_table_order(monkeypatch):
    runs = [(fixture, seed) for fixture in FIXTURES for seed in (0, 2)] + [fixture_sample_scenario(3)]
    expected = [best_response_dynamics(scenario, seed=seed, max_moves=200) for scenario, seed in runs]
    table = game.pairing_table
    monkeypatch.setattr(game, "pairing_table", lambda scenario: dict(reversed(table(scenario).items())))
    monkeypatch.setattr(game, "_memo", ((), None, {}))  # a table remembered from the runs above would bypass the patch
    assert [best_response_dynamics(scenario, seed=seed, max_moves=200) for scenario, seed in runs] == expected


# -- hop cap -------------------------------------------------------------------------


def test_huge_hop_cap_equals_n_minus_one():
    for scenario, scan_seed in [(FIXTURES[0], 0), (FIXTURES[0], 2), fixture_sample_scenario(4)]:
        results = []
        for h_max in (len(scenario.nodes) - 1, 10**9):
            config = dataclasses.replace(scenario.config, h_max=h_max)
            start = time.perf_counter()
            topology, trace = best_response_dynamics(Scenario(scenario.nodes, config), seed=scan_seed, max_moves=200)
            reports = [is_pairwise_stable(topology, config), is_pairwise_stable(Topology.empty(scenario.nodes), config)]
            # no hop distance exceeds n - 1, so a larger cap must cost no more
            assert time.perf_counter() - start < 1.0
            results.append((topology, trace, reports))
        assert results[0] == results[1]
