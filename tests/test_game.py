import collections
import contextvars
import dataclasses
import itertools
import json
import math
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from linkform import game
from linkform.cli import fixture_path, load_scenario, trace_to_jsonl
from linkform.cost import total_cost
from linkform.criteria import criteria_report
from linkform.game import (
    DEFAULT_MAX_MOVES,
    Add,
    Rejection,
    Remove,
    best_response_dynamics,
    brute_force_stable_set,
    delta_cost_add,
    delta_cost_remove,
    is_pairwise_stable,
    propose_add,
    replay_trace,
)
from linkform.model import (
    GameConfig,
    IncomparableCostError,
    Link,
    Scenario,
    Topology,
    links_digest,
    validate_scenario,
)

from conftest import WLAN, make_iface, make_node
from generators import (
    MESH,
    clique_suite_scenario,
    feasible_pairings,
    fixture_sample_scenario,
    free_scenario,
    isolated_scenario,
    multi_radio_scenario,
    overflowing_unit_scenario,
    pinned_order_nodes,
    random_graph_scenario,
    random_topology,
    split_scenario,
    uplink_suite_scenario,
)
from oracles import improves_naive, node_state_naive, resolved_delta_naive, stability_oracle


def ic_trio(gamma=570.0, spacing=10.0):
    cfg = GameConfig(gamma=gamma)
    nodes = tuple(
        make_node(i, pos, (WLAN,), b_min=10e6, ic=True)
        for i, pos in enumerate([(0.0, 0.0), (spacing, 0.0), (spacing / 2, spacing)])
    )
    return Scenario(nodes, cfg)


def square_with_expensive_diagonal():
    """Four mesh nodes in a square; the diagonal saves one hop but costs ~5."""
    nodes = tuple(
        make_node(i, pos, (MESH,), b_min=1e5, rho=rho)
        for i, (pos, rho) in enumerate(
            [((0.0, 0.0), 3.5e4), ((20.0, 0.0), 1.0), ((20.0, 20.0), 3.5e4), ((0.0, 20.0), 1.0)]
        )
    )
    cfg = GameConfig(gamma=10.0)
    ring = Topology(nodes, frozenset(Link(a, 0, b, 0) for a, b in [(0, 1), (1, 2), (2, 3), (0, 3)]))
    return Scenario(nodes, cfg), ring


# -- deviation deltas --------------------------------------------------------------


def test_delta_add_first_path_is_negative_infinity():
    scenario = ic_trio()
    pair_only = Scenario(scenario.nodes[:2], scenario.config)
    topo = Topology.empty(pair_only.nodes)
    delta = delta_cost_add(pair_only.nodes[0], topo, Link(0, 0, 1, 0), pair_only.config)
    assert delta == -math.inf


def test_delta_add_incomparable_when_still_disconnected():
    scenario = ic_trio()
    topo = Topology.empty(scenario.nodes)
    with pytest.raises(IncomparableCostError):
        delta_cost_add(scenario.nodes[0], topo, Link(0, 0, 1, 0), scenario.config)


def test_delta_add_closing_ic_triangle():
    scenario = ic_trio(gamma=570.0)
    cfg = scenario.config
    path = Topology(scenario.nodes, frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0)}))
    missing = Link(0, 0, 2, 0)
    expected = (
        total_cost(scenario.nodes[0], path.with_link(missing), cfg).total.value
        - total_cost(scenario.nodes[0], path, cfg).total.value
    )
    got = delta_cost_add(scenario.nodes[0], path, missing, cfg)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got < 0  # link cost is far below gamma - 1


def test_delta_add_redundant_expensive_link_positive():
    scenario, ring = square_with_expensive_diagonal()
    diagonal = Link(0, 0, 2, 0)
    expected = (
        total_cost(scenario.nodes[0], ring.with_link(diagonal), scenario.config).total.value
        - total_cost(scenario.nodes[0], ring, scenario.config).total.value
    )
    got = delta_cost_add(scenario.nodes[0], ring, diagonal, scenario.config)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_delta_add_preconditions():
    scenario = ic_trio()
    topo = Topology(scenario.nodes, frozenset({Link(0, 0, 1, 0)}))
    with pytest.raises(ValueError):
        delta_cost_add(scenario.nodes[0], topo, Link(0, 0, 1, 0), scenario.config)


@pytest.mark.parametrize("link", [Link(0, 0, 1, 0), Link(0, 1, 1, 1)], ids=["same-link", "other-interfaces"])
def test_delta_add_of_a_linked_pair_is_a_value_error(link):
    # one link per node pair: a pair linked on one pairing cannot gain a second on another
    nodes = tuple(make_node(i, (10.0 * i, 0.0), (WLAN, WLAN), b_min=1e7) for i in range(2))
    topo = Topology(nodes, frozenset({Link(0, 0, 1, 0)}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(link))} already present$"):
        delta_cost_add(nodes[0], topo, link, GameConfig(gamma=10.0))


def test_delta_add_of_an_infeasible_link_is_a_value_error():
    zw = make_iface("zwave", 0.9e9, 4e4, 1e-3, 6.3e-13)
    a = make_node(0, (0.0, 0.0), (WLAN,), b_min=1e7)
    b = make_node(1, (10.0, 0.0), (zw,), b_min=5e3)
    with pytest.raises(ValueError, match="is not physically feasible"):
        delta_cost_add(a, Topology.empty((a, b)), Link(0, 0, 1, 0), GameConfig(gamma=10.0))


def test_delta_add_for_a_node_outside_the_topology_is_a_value_error():
    scenario = ic_trio()
    pair_only = Topology.empty(scenario.nodes[:2])
    with pytest.raises(ValueError, match="unknown node id 2"):
        delta_cost_add(scenario.nodes[2], pair_only, Link(0, 0, 1, 0), scenario.config)


def test_delta_remove_bridge_is_positive_infinity():
    scenario = ic_trio()
    pair_only = Scenario(scenario.nodes[:2], scenario.config)
    link = Link(0, 0, 1, 0)
    topo = Topology(pair_only.nodes, frozenset({link}))
    assert delta_cost_remove(pair_only.nodes[0], topo, link, pair_only.config) == math.inf


def test_delta_remove_clique_edge_positive():
    scenario = ic_trio(gamma=570.0)
    triangle = Topology(
        scenario.nodes,
        frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0), Link(0, 0, 2, 0)}),
    )
    link = Link(0, 0, 2, 0)
    got = delta_cost_remove(scenario.nodes[0], triangle, link, scenario.config)
    expected = (
        total_cost(scenario.nodes[0], triangle.without_link(link), scenario.config).total.value
        - total_cost(scenario.nodes[0], triangle, scenario.config).total.value
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_delta_remove_expensive_redundant_link_negative():
    scenario, ring = square_with_expensive_diagonal()
    diagonal = Link(0, 0, 2, 0)
    with_diag = ring.with_link(diagonal)
    got = delta_cost_remove(scenario.nodes[0], with_diag, diagonal, scenario.config)
    assert got < 0


def test_delta_remove_preconditions():
    scenario = ic_trio()
    link = Link(0, 0, 1, 0)
    topo = Topology(scenario.nodes, frozenset({link}))
    with pytest.raises(ValueError):
        delta_cost_remove(scenario.nodes[0], topo, Link(0, 0, 2, 0), scenario.config)
    with pytest.raises(ValueError):
        delta_cost_remove(scenario.nodes[2], topo, link, scenario.config)


# -- proposals ---------------------------------------------------------------------


def test_propose_add_mutual_consent():
    scenario = ic_trio(gamma=570.0)
    path = Topology(scenario.nodes, frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0)}))
    move = propose_add(path, 0, 0, 2, 0, scenario.config)
    assert isinstance(move, Add)
    assert move.delta_a < 0 and move.delta_b < 0
    assert move.link == Link(0, 0, 2, 0)


def test_propose_add_one_side_declines():
    scenario, ring = square_with_expensive_diagonal()
    # node 0 carries rho=3.5e4 so the diagonal is too expensive for it,
    # while node 2's gain decides nothing without 0's consent
    decision = propose_add(ring, 0, 0, 2, 0, scenario.config)
    assert isinstance(decision, Rejection)
    assert decision.kind == "declined"
    assert 0 in decision.declined_by


def test_propose_add_infeasible_without_common_interface():
    zw = make_iface("zwave", 0.9e9, 4e4, 1e-3, 6.3e-13)
    a = make_node(0, (0.0, 0.0), (WLAN,), b_min=1e7)
    b = make_node(1, (10.0, 0.0), (zw,), b_min=5e3)
    topo = Topology.empty((a, b))
    decision = propose_add(topo, 0, 0, 1, 0, GameConfig(gamma=10.0))
    assert decision == Rejection(kind="infeasible")


def test_propose_add_of_a_self_link_or_a_linked_pair_is_infeasible():
    scenario = ic_trio(gamma=570.0)
    path = Topology(scenario.nodes, frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0)}))
    assert propose_add(path, 0, 0, 0, 0, scenario.config) == Rejection(kind="infeasible")
    assert propose_add(path, 1, 0, 0, 0, scenario.config) == Rejection(kind="infeasible")


def test_propose_add_symmetric_in_arguments():
    scenario = ic_trio(gamma=570.0)
    path = Topology(scenario.nodes, frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0)}))
    forward = propose_add(path, 0, 0, 2, 0, scenario.config)
    backward = propose_add(path, 2, 0, 0, 0, scenario.config)
    assert forward == backward

    scenario2, ring = square_with_expensive_diagonal()
    assert propose_add(ring, 0, 0, 2, 0, scenario2.config) == propose_add(
        ring, 2, 0, 0, 0, scenario2.config
    )


# -- stability ---------------------------------------------------------------------


def test_clique_is_stable():
    scenario = ic_trio(gamma=570.0)
    triangle = Topology(
        scenario.nodes,
        frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0), Link(0, 0, 2, 0)}),
    )
    report = is_pairwise_stable(triangle, scenario.config)
    assert report.stable
    assert report.severance_violations == ()
    assert report.addition_violations == ()


def test_disconnected_pair_is_unstable():
    scenario = ic_trio()
    pair_only = Scenario(scenario.nodes[:2], scenario.config)
    report = is_pairwise_stable(Topology.empty(pair_only.nodes), pair_only.config)
    assert not report.stable
    assert Link(0, 0, 1, 0) in report.addition_violations


def test_severance_violation_reported():
    scenario, ring = square_with_expensive_diagonal()
    with_diag = ring.with_link(Link(0, 0, 2, 0))
    report = is_pairwise_stable(with_diag, scenario.config)
    assert not report.stable
    assert any(link == Link(0, 0, 2, 0) for _, link in report.severance_violations)


def test_stability_matches_oracle_on_examples():
    scenario, ring = square_with_expensive_diagonal()
    for topo in (ring, ring.with_link(Link(0, 0, 2, 0)), Topology.empty(scenario.nodes)):
        report = is_pairwise_stable(topo, scenario.config)
        stable, severances, additions = stability_oracle(topo, scenario.config)
        assert report.stable == stable
        assert set(report.severance_violations) == severances
        assert set(report.addition_violations) == additions


def test_stability_at_the_float_ties_of_its_gamma_interval_matches_the_oracle():
    # the fixture's converged seed-0 topology is stable for gamma in about (9.576147, 783.627224); at the two
    # adjacent floats where the verdict flips, the deciding delta is a few ulps from 0, inside any certificate margin
    scenario = load_scenario(fixture_path("smart_home_gamma570.json"))
    topology, _ = best_response_dynamics(scenario)

    def config(gamma):
        return dataclasses.replace(scenario.config, gamma=gamma)

    flips = []
    for inside, outside in ((100.0, 9.0), (100.0, 800.0)):
        assert is_pairwise_stable(topology, config(inside)).stable and not is_pairwise_stable(topology, config(outside)).stable
        while math.nextafter(inside, outside) != outside:
            middle = (inside + outside) / 2
            if is_pairwise_stable(topology, config(middle)).stable:
                inside = middle
            else:
                outside = middle
        flips += [inside, outside]
    assert 9.5761 < flips[0] < 9.5762 and 783.6272 < flips[2] < 783.6273
    for gamma in flips:
        report = is_pairwise_stable(topology, config(gamma))
        expected = (report.stable, set(report.severance_violations), set(report.addition_violations))
        assert stability_oracle(topology, config(gamma)) == expected


def test_certificates_decide_a_clearly_stable_topology_without_pricing(monkeypatch):
    # on the fixture's converged seed-2 topology, each of the 26 cuts and 32 absent pairs is refuted in O(1)
    scenario = load_scenario(fixture_path("smart_home_gamma570.json"))
    topology, _ = best_response_dynamics(scenario, seed=2)

    def priced(*args):
        raise AssertionError("a candidate was priced exactly")

    monkeypatch.setattr(game._Evaluator, "reach", priced)
    monkeypatch.setattr(game._Evaluator, "grown", priced)
    assert is_pairwise_stable(topology, scenario.config).stable


@pytest.mark.parametrize("h_max", [0, -1, None])
def test_stability_rejects_a_hop_cap_below_1(h_max):
    # None would reach the evaluator's ball rows as a TypeError if the scenario were not checked first
    nodes = ic_trio().nodes
    config = GameConfig(gamma=570.0, h_max=h_max)
    message = f"config.h_max: must be a positive integer, got {h_max}"
    with pytest.raises(ValueError, match=message):
        is_pairwise_stable(Topology(nodes, frozenset({Link(0, 0, 1, 0)})), config)
    with pytest.raises(ValueError, match=message):
        best_response_dynamics(Scenario(nodes, config))
    with pytest.raises(ValueError, match=message):
        brute_force_stable_set(Scenario(nodes, config))
    with pytest.raises(ValueError, match=message):
        criteria_report(Scenario(nodes, config))


@pytest.mark.parametrize("iface", [-1, 1])  # every node of the trio has one interface
def test_an_interface_index_out_of_range_is_a_value_error(iface):
    scenario = ic_trio()
    topology = Topology(scenario.nodes, frozenset({Link(0, iface, 1, 0)}))
    message = f"node 0 has no interface {iface}"
    with pytest.raises(ValueError, match=message):
        total_cost(scenario.nodes[0], topology, scenario.config)
    with pytest.raises(ValueError, match=message):
        is_pairwise_stable(topology, scenario.config)


def malformed_queries(topology, config):
    """Every library call that prices ``topology``: the stability check and one query of each kind."""
    present = min(topology.links)
    node = topology.node(present.node_a)
    absent = next(
        Link(a, option.r_a, b, option.r_b)
        for (a, b), options in sorted(game.pairing_table(Scenario(topology.nodes, config)).items())
        for option in options
        if not topology.has_pair(a, b) and node.id in (a, b)
    )
    return [
        lambda: is_pairwise_stable(topology, config),
        lambda: delta_cost_remove(node, topology, present, config),
        lambda: delta_cost_add(node, topology, absent, config),
        lambda: propose_add(topology, absent.node_a, absent.iface_a, absent.node_b, absent.iface_b, config),
    ]


def test_a_pair_linked_twice_is_a_value_error():
    # validate_topology rejects this input; the library calls must not price it from a duplicated end
    fixture = load_scenario(fixture_path("smart_home_gamma570.json"))
    first, second = game.pairing_table(fixture)[0, 1][:2]
    topology = Topology(fixture.nodes, frozenset({Link(0, first.r_a, 1, first.r_b), Link(0, second.r_a, 1, second.r_b)}))
    for query in malformed_queries(topology, fixture.config):
        with pytest.raises(ValueError, match=re.escape("node pair (0, 1) linked more than once")):
            query()


def test_a_link_to_an_unknown_node_is_a_value_error():
    fixture = load_scenario(fixture_path("smart_home_gamma570.json"))
    topology = Topology(fixture.nodes, frozenset({Link(0, 0, 1, 0), Link(0, 0, 99, 0)}))
    for query in malformed_queries(topology, fixture.config):
        with pytest.raises(ValueError, match="unknown node id 99"):
            query()


def test_a_feasible_pairing_with_an_infinite_unit_cost_is_a_candidate():
    scenario = overflowing_unit_scenario()
    assert validate_scenario(scenario.nodes, scenario.config) == []
    empty, link = Topology.empty(scenario.nodes), Link(0, 0, 1, 0)
    assert propose_add(empty, 0, 0, 1, 0, scenario.config) == Add(link, -math.inf, -math.inf)
    assert stability_oracle(empty, scenario.config) == (False, set(), {link})
    assert is_pairwise_stable(empty, scenario.config).addition_violations == (link,)
    assert {topology.links for topology in brute_force_stable_set(scenario)} == {frozenset({link})}
    topology, trace = best_response_dynamics(scenario)
    assert trace.converged and [step.move.link for step in trace.steps] == [link]
    assert total_cost(scenario.nodes[0], topology, scenario.config).total.value == math.inf


def test_a_cut_from_an_infinite_link_cost_is_priced_exactly():
    # node 0's state is (inf, 0): every peer is in reach, but its unit on 0-1 is inf
    radio = make_iface("lr", 1.0e9, 1.0e5, 1.0e12, 1.0e-3)
    nodes = (
        make_node(0, (0.0, 0.0), (radio,), b_min=1.0e6, rho=1.0e300, ic=True),
        make_node(1, (1.0e4, 0.0), (radio,), b_min=1.0e6, ic=True),
        make_node(2, (0.0, 0.0), (radio,), b_min=1.0e6),  # co-located with node 0: its unit on 0-2 is 0
    )
    config = GameConfig(gamma=10.0)
    links = frozenset({Link(0, 0, 1, 0), Link(0, 0, 2, 0), Link(1, 0, 2, 0)})
    topology = Topology(nodes, links)
    assert node_state_naive(topology, 0, config) == (math.inf, 0)
    report = is_pairwise_stable(topology, config)
    assert (0, Link(0, 0, 1, 0)) in report.severance_violations
    assert stability_oracle(topology, config) == (
        report.stable,
        set(report.severance_violations),
        set(report.addition_violations),
    )
    assert delta_cost_remove(nodes[0], topology, Link(0, 0, 1, 0), config) == -math.inf


def test_pairing_table_holds_exactly_the_feasible_pairings():
    scenarios = [
        overflowing_unit_scenario(),
        *(free_scenario(seed, max_nodes=6) for seed in range(12)),
        *(clique_suite_scenario(seed) for seed in range(4)),
        *(uplink_suite_scenario(seed, lateral) for seed in range(2) for lateral in ("none", "one-cheap")),
        *(fixture_sample_scenario(seed)[0] for seed in range(4)),
        *(random_graph_scenario(seed)[0] for seed in range(4)),
    ]
    for scenario in scenarios:
        table = {pair: [option[:2] for option in options] for pair, options in game.pairing_table(scenario).items()}
        assert table == feasible_pairings(scenario)


def test_the_engine_remembers_the_last_scenario_by_identity(monkeypatch):
    builds, table = [], game.pairing_table
    monkeypatch.setattr(game, "_memo", ((), None, {}))
    monkeypatch.setattr(game, "pairing_table", lambda scenario: builds.append(scenario) or table(scenario))
    fixture = load_scenario(fixture_path("smart_home_gamma570.json"))
    again = load_scenario(fixture_path("smart_home_gamma570.json"))
    assert again == fixture and again.nodes[0] is not fixture.nodes[0]
    for scenario in (fixture, again, fixture):  # equal, but each read afresh: a table keyed by == would serve all three
        criteria_report(scenario)
        best_response_dynamics(scenario, max_moves=50)
    assert len(builds) == 3
    # warm, with the fixture remembered, as cold: a new table for other nodes or exponent, the same for another gamma
    moved = dataclasses.replace(fixture.nodes[0], position=(1.0, 1.0))
    others = [
        Scenario((moved, *fixture.nodes[1:]), fixture.config),
        Scenario(fixture.nodes[:-1], fixture.config),  # a prefix of the remembered nodes
        Scenario(fixture.nodes, dataclasses.replace(fixture.config, path_loss_exponent=3.0)),
        Scenario(fixture.nodes, dataclasses.replace(fixture.config, gamma=500.0)),
    ]
    runs = [criteria_report, lambda scenario: best_response_dynamics(scenario, seed=2, max_moves=200)]
    for other in others:
        for run in runs:
            criteria_report(fixture)
            warm = run(other)
            monkeypatch.setattr(game, "_memo", ((), None, {}))
            assert warm == run(other)
            assert warm != run(fixture)
    # remembered nodes do not excuse a config from its check: 5.0 == 5, but only 5 is a valid h_max
    empty = Topology.empty(fixture.nodes)
    checked = [
        criteria_report,
        best_response_dynamics,
        lambda scenario: is_pairwise_stable(empty, scenario.config),
        lambda scenario: propose_add(empty, 0, 0, 1, 0, scenario.config),
    ]
    for h_max in (0, 5.0):
        scenario = Scenario(fixture.nodes, dataclasses.replace(fixture.config, h_max=h_max))
        for call in checked:
            criteria_report(fixture)
            with pytest.raises(ValueError, match=f"config.h_max: must be a positive integer, got {h_max}"):
                call(scenario)


def test_single_queries_check_their_scenario():
    # they priced invalid configs: h_max=0 declined the link, alpha=-1.0 and gamma=0.5 accepted it at -inf, and
    # delta_cost_add and delta_cost_remove raised IncomparableCostError; wlan to bluetooth was rejected as infeasible
    fixture = load_scenario(fixture_path("smart_home_gamma570.json"))
    link = Link(0, 0, 1, 0)
    empty, linked = Topology.empty(fixture.nodes), Topology(fixture.nodes, frozenset({link}))
    issues = {
        "h_max": (0, "config.h_max: must be a positive integer, got 0"),
        "alpha": (-1.0, "config.alpha: must be positive, got -1.0"),
        "gamma": (0.5, "config.gamma: must be >= 1, got 0.5"),
    }
    for field, (value, message) in issues.items():
        config = dataclasses.replace(fixture.config, **{field: value})
        queries = [
            lambda: propose_add(empty, 0, 0, 1, 0, config),
            lambda: propose_add(empty, 0, 0, 1, 1, config),  # a pairing the table lacks
            lambda: delta_cost_add(fixture.nodes[0], empty, link, config),
            lambda: delta_cost_remove(fixture.nodes[0], linked, link, config),
        ]
        for query in queries:
            with pytest.raises(ValueError, match=re.escape(message)):
                query()


def test_single_queries_read_the_topology_first():
    # a topology with a link the evaluator cannot place raises its error whatever the query; they used to answer
    # i == j with an infeasible Rejection, an absent severance with "not present" and name the query's unknown node
    fixture = load_scenario(fixture_path("smart_home_gamma570.json"))
    id0, id1, id2, id3 = fixture.ids[:4]
    unplaceable = {
        "unknown node id 999": {Link(id0, 0, 999, 0)},
        f"node {id0} has no interface 9": {Link(id0, 9, id1, 0)},
        f"node pair {(id0, id1)} linked more than once": {Link(id0, 0, id1, 0), Link(id0, 1, id1, 1)},
    }
    invalid = dataclasses.replace(fixture.config, gamma=0.5)
    for message, links in unplaceable.items():
        topology = Topology(fixture.nodes, frozenset(links))
        # an invalid scenario still raises before the topology is read
        for config, expected in ((fixture.config, message), (invalid, "config.gamma: must be >= 1, got 0.5")):
            queries = [
                lambda: propose_add(topology, id0, 0, id0, 0, config),
                lambda: propose_add(topology, id2, 0, id3, 0, config),
                lambda: delta_cost_add(fixture.nodes[0], topology, Link(id0, 0, 777, 0), config),
                lambda: delta_cost_remove(fixture.nodes[0], topology, Link(id2, 0, id3, 0), config),
            ]
            for query in queries:
                with pytest.raises(ValueError, match=re.escape(expected)):
                    query()


def single_queries(topology, config):
    """Every single query on ``topology``, as calls: each interface pairing of each node pair proposed, and added for
    both ends and a bystander (priced, or raising for a linked pair or an infeasible pairing); each link severed by
    both ends and a bystander (who raises); a node outside the topology and a link that is not there."""
    node, ids = topology.node, topology.ids
    calls = []
    for a, b in itertools.combinations(ids, 2):
        bystander = next(i for i in ids if i not in (a, b))
        for r_a, r_b in itertools.product(range(len(node(a).interfaces)), range(len(node(b).interfaces))):
            link = Link(a, r_a, b, r_b)
            calls.append(lambda a=a, r_a=r_a, b=b, r_b=r_b: propose_add(topology, b, r_b, a, r_a, config))
            calls += [lambda i=i, link=link: delta_cost_add(node(i), topology, link, config) for i in (a, b, bystander)]
    for link in sorted(topology.links):
        severing = (*link.pair, next(i for i in ids if not link.touches(i)))  # both ends, then a bystander
        calls += [lambda i=i, link=link: delta_cost_remove(node(i), topology, link, config) for i in severing]
    stranger, absent = dataclasses.replace(topology.nodes[0], id=max(ids) + 1), Link(ids[0], 9, ids[1], 9)
    calls.append(lambda: delta_cost_add(stranger, topology, absent, config))
    calls.append(lambda: delta_cost_remove(node(ids[0]), topology, absent, config))
    return calls


def answer(call):
    """A query's outcome, its kind first, every float as ``float.hex``: an Add, a Rejection, a delta or an error."""
    try:
        result = call()
    except (ValueError, IncomparableCostError) as error:
        return "raised", type(error), str(error)
    if isinstance(result, Add):
        return "added", result.link, result.delta_a.hex(), result.delta_b.hex()
    return ("delta", result.hex()) if isinstance(result, float) else ("rejected", result)


def fresh_answer(call):
    """``call``'s answer from an evaluator built for it alone, as every query once had; the thread's slot is kept."""
    slot, game._queried.slot = getattr(game._queried, "slot", (None, None, None, None)), (None, None, None, None)
    try:
        return answer(call)
    finally:
        game._queried.slot = slot


def assert_query_slot_holds_a_fresh_build(topology, config):
    held, cfg, evaluator, _ = game._queried.slot
    assert held is topology and cfg is config
    fresh = game._Evaluator(Scenario(topology.nodes, config), topology.links)
    assert (evaluator.links, evaluator.ends, evaluator.near) == (fresh.links, fresh.ends, fresh.near)


def test_interleaved_single_queries_are_exact(monkeypatch):
    # each query runs twice: with an evaluator of its own, and from the slot, which keeps one evaluator across the
    # queries on the same topology and config objects
    scenario, _ = fixture_sample_scenario(2)
    rng = random.Random(2)
    first, second = random_topology(scenario, rng), random_topology(scenario, rng)
    copy = Topology(first.nodes, set(first.links))
    assert copy == first and copy is not first and first != second
    configs = (scenario.config, dataclasses.replace(scenario.config, gamma=2.0 * scenario.config.gamma))
    runs = [[(topology, config, call) for call in single_queries(topology, config)]
            for topology, config in itertools.product((first, second, copy), configs)]
    queries = []
    while any(runs):  # runs of 1 to 8 queries on one topology and config, then another
        run = rng.choice([run for run in runs if run])
        queries += [run.pop() for _ in range(min(len(run), rng.randint(1, 8)))]
    outcomes = collections.Counter()
    for topology, config, call in queries:
        expected = fresh_answer(call)
        assert answer(call) == expected
        assert_query_slot_holds_a_fresh_build(topology, config)
        outcomes[expected[:2] if expected[0] == "raised" else expected[0]] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 5, outcomes
    # a query whose pricing raises after its toggle leaves the link set as it was built
    link = min(first.links)
    delta_cost_remove(first.node(link.node_a), first, link, configs[0])
    monkeypatch.setattr(game._Evaluator, "reach", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        delta_cost_remove(first.node(link.node_a), first, link, configs[0])
    monkeypatch.undo()
    assert_query_slot_holds_a_fresh_build(first, configs[0])


def test_single_queries_build_one_evaluator_per_topology_and_config_object(monkeypatch):
    builds, init = [], game._Evaluator.__init__
    monkeypatch.setattr(game._Evaluator, "__init__", lambda self, *args: builds.append(args) or init(self, *args))
    scenario, _ = fixture_sample_scenario(2)
    rng = random.Random(2)
    first, second = random_topology(scenario, rng), random_topology(scenario, rng)
    config = scenario.config
    for call in single_queries(first, config):
        answer(call)
    assert len(builds) == 1
    for topology in (second, first, second, first):
        link = min(topology.links)
        answer(lambda: delta_cost_remove(topology.node(link.node_a), topology, link, config))
        propose_add(topology, 0, 0, 1, 0, config)
    assert len(builds) == 5
    copied = dataclasses.replace(config)  # equal, but another object
    for cfg in (copied, copied, config):
        propose_add(first, 0, 0, 1, 0, cfg)
    assert len(builds) == 7
    invalid = dataclasses.replace(config, gamma=0.5)
    for _ in range(2):  # a build that raises leaves the slot as it was
        with pytest.raises(ValueError, match="config.gamma"):
            propose_add(first, 0, 0, 1, 0, invalid)
    propose_add(first, 0, 0, 1, 0, config)
    assert len(builds) == 9


def test_the_query_slot_is_per_thread():
    # four threads price queries on one shared topology object, each in its own order, and in the second half one on a
    # topology of its own after every eighth. Each starts in a copy of this thread's context, whose last query was on
    # the shared topology, as ``asyncio.to_thread`` starts one: a slot shared between threads, or one kept in a context
    # variable, would let two of them toggle links on the shared topology's one evaluator at once
    scenario, _ = fixture_sample_scenario(2)
    rng = random.Random(2)
    shared, config = random_topology(scenario, rng), scenario.config

    def priced(topology):  # the queries that toggle a link and return a delta or an Add
        return [call for call in single_queries(topology, config) if answer(call)[0] in ("delta", "added")]

    work = []
    for _ in range(4):
        calls, own, queries = priced(shared) * 25, priced(random_topology(scenario, rng)), []
        rng.shuffle(calls)
        for k, call in enumerate(calls):
            queries += [call, own[k % len(own)]] if 2 * k > len(calls) and k % 8 == 0 else [call]
        work.append(queries)
    serial = [[answer(call) for call in queries] for queries in work]
    answers, barrier = [None] * len(work), threading.Barrier(len(work))

    def run(thread):
        barrier.wait()
        try:
            answers[thread] = [answer(call) for call in work[thread]]
        except Exception as error:  # a query that raises what no query should
            answers[thread] = error

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        answer(work[0][0])
        threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, k)) for k in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert answers == serial


# -- dynamics ----------------------------------------------------------------------


def test_single_node_dynamics():
    node = make_node(0, (0.0, 0.0))
    scenario = Scenario((node,), GameConfig(gamma=10.0))
    topology, trace = best_response_dynamics(scenario)
    assert trace.converged
    assert trace.steps == ()
    assert topology.links == frozenset()


def test_two_ic_nodes_single_add():
    scenario = ic_trio()
    pair_only = Scenario(scenario.nodes[:2], scenario.config)
    topology, trace = best_response_dynamics(pair_only)
    assert trace.converged
    assert len(trace.steps) == 1
    assert isinstance(trace.steps[0].move, Add)
    assert topology.links == frozenset({Link(0, 0, 1, 0)})
    assert is_pairwise_stable(topology, pair_only.config).stable


def test_dynamics_deterministic_per_seed():
    scenario = free_scenario(11)
    for seed in (0, 3):
        _, first = best_response_dynamics(scenario, seed=seed)
        _, second = best_response_dynamics(scenario, seed=seed)
        assert first == second
        assert trace_to_jsonl(first) == trace_to_jsonl(second)


def test_dynamics_respects_move_cap():
    scenario = ic_trio()
    topology, trace = best_response_dynamics(scenario, max_moves=1)
    assert not trace.converged
    assert len(trace.steps) == 1


def test_replay_reproduces_final_topology():
    for seed in range(8):
        scenario = free_scenario(seed)
        topology, trace = best_response_dynamics(scenario, seed=seed % 3)
        assert replay_trace(scenario, trace) == topology


def test_add_moves_always_mutually_consented():
    for seed in range(10):
        scenario = free_scenario(seed + 100)
        _, trace = best_response_dynamics(scenario, seed=seed)
        for step in trace.steps:
            if isinstance(step.move, Add):
                assert step.move.delta_a < 0
                assert step.move.delta_b < 0
            else:
                assert isinstance(step.move, Remove)
                assert step.move.delta < 0


def expected_move(topology, config, node_order, pair_order, pairings):
    """The first deviation in scan order, recomputed on the reference cost path.

    Severances by node, then peer, come before additions in pair order; an
    addition is its pair's best mutually improving pairing (lowest delta for
    the lower-id endpoint, then lowest interfaces).
    """
    base = {i: node_state_naive(topology, i, config) for i in node_order}
    for i in node_order:
        for link in sorted(topology.links_of(i), key=lambda link: link.peer_of(i)):
            after = node_state_naive(topology.without_link(link), i, config)
            if improves_naive(base[i], after):
                return Remove(link=link, initiator=i, delta=resolved_delta_naive(base[i], after))
    for a, b in pair_order:
        if topology.has_pair(a, b):
            continue
        improving = []
        for r_a, r_b in pairings[(a, b)]:
            grown = topology.with_link(Link(a, r_a, b, r_b))
            after_a, after_b = node_state_naive(grown, a, config), node_state_naive(grown, b, config)
            if improves_naive(base[a], after_a) and improves_naive(base[b], after_b):
                delta_b = resolved_delta_naive(base[b], after_b)
                improving.append((resolved_delta_naive(base[a], after_a), r_a, r_b, delta_b))
        if improving:
            delta_a, r_a, r_b, delta_b = min(improving)
            return Add(link=Link(a, r_a, b, r_b), delta_a=delta_a, delta_b=delta_b)
    return None


def assert_close(actual, expected):
    if math.isinf(expected):
        assert actual == expected
    else:
        assert actual == pytest.approx(expected, rel=1e-9)


def check_moves_against_reference(scenario, scan_seed, max_moves):
    """Assert each trace step of one run against ``expected_move``; return the moves."""
    pairings = feasible_pairings(scenario)
    node_order, pair_order = list(scenario.ids), sorted(pairings)
    if scan_seed:
        rng = random.Random(scan_seed)
        rng.shuffle(node_order)
        rng.shuffle(pair_order)
    _, trace = best_response_dynamics(scenario, seed=scan_seed, max_moves=max_moves)
    topology = Topology.empty(scenario.nodes)
    for step in trace.steps:
        move = step.move
        expected = expected_move(topology, scenario.config, node_order, pair_order, pairings)
        assert type(move) is type(expected) and move.link == expected.link, (step, expected)
        if isinstance(move, Add):
            assert_close(move.delta_a, expected.delta_a)
            assert_close(move.delta_b, expected.delta_b)
            topology = topology.with_link(move.link)
        else:
            assert move.initiator == expected.initiator
            assert_close(move.delta, expected.delta)
            topology = topology.without_link(move.link)
        for node_id, cost in step.costs:
            assert_close(cost, total_cost(topology.node(node_id), topology, scenario.config).total.value)
    if trace.converged:
        assert expected_move(topology, scenario.config, node_order, pair_order, pairings) is None
    return [step.move for step in trace.steps]


@pytest.mark.parametrize("scan_seed", [0, 7])
def test_every_move_follows_the_documented_rule(scan_seed):
    moves = []
    for seed in range(40):
        moves += check_moves_against_reference(free_scenario(seed, max_nodes=6), scan_seed, max_moves=40)
    assert any(isinstance(move, Add) for move in moves)


@pytest.mark.parametrize("scan_seed, severances", [(1, 10), (2, 19)])
def test_every_severance_follows_the_documented_rule(scan_seed, severances):
    # free scenarios never sever under dynamics; these fixture runs do, and at
    # scan seed 2 some node has two improving severances at once
    scenario = load_scenario(fixture_path("smart_home_gamma570.json"))
    moves = check_moves_against_reference(scenario, scan_seed, max_moves=60)
    assert sum(isinstance(move, Remove) for move in moves) == severances


def cycling_fixture():
    """The 570 fixture at gamma 610: scan seed 2 enters a 6-move cycle at move 21."""
    scenario = load_scenario(fixture_path("smart_home_gamma570.json"))
    return Scenario(scenario.nodes, dataclasses.replace(scenario.config, gamma=610.0))


def test_repeated_cycle_moves_follow_the_documented_rule():
    # the link set after move 27 is the one after move 21, so moves 28-40 are repeated, not scanned
    scenario = cycling_fixture()
    check_moves_against_reference(scenario, 2, max_moves=40)
    assert not best_response_dynamics(scenario, seed=2, max_moves=40)[1].converged


@pytest.fixture(scope="module")
def cycling_run():
    return best_response_dynamics(cycling_fixture(), seed=2, max_moves=1000)


@pytest.mark.parametrize("cap", [*range(27, 34), 1000])
def test_a_capped_cycle_is_the_prefix_of_a_longer_run(cycling_run, cap):
    full = cycling_run[1].steps
    assert full[21:27] == full[27:33]
    scenario = cycling_fixture()
    topology, trace = best_response_dynamics(scenario, seed=2, max_moves=cap)
    assert len(trace.steps) == cap and trace.steps == full[:cap]
    assert replay_trace(scenario, trace) == topology


def test_a_digest_collision_does_not_fake_a_cycle(monkeypatch):
    runs = [(cycling_fixture(), 60), (load_scenario(fixture_path("smart_home_gamma570.json")), DEFAULT_MAX_MOVES)]

    def outcome(scenario, max_moves):
        topology, trace = best_response_dynamics(scenario, seed=2, max_moves=max_moves)
        return topology, [step.move for step in trace.steps], [step.costs for step in trace.steps]

    expected = [outcome(*run) for run in runs]
    monkeypatch.setattr(game, "links_digest", lambda links: "0" * 16)
    assert [outcome(*run) for run in runs] == expected


def assert_running_form(nodes, toggles):
    """Toggles each link through ``game._moved`` as the dynamics move (a linked pair's stored link is removed, else the
    link is added); after every step the running form is the current link set's canonical form and digest."""
    form, links = [], {}
    for link in toggles:
        stored = links.pop(link.pair, None)
        if stored is None:
            links[link.pair] = link
        move = Add(link, -1.0, -1.0) if stored is None else Remove(stored, stored.node_a, -1.0)
        canonical, current = game._moved(form, move), frozenset(links.values())
        assert canonical == json.dumps(sorted(link.as_tuple() for link in current))
        assert links_digest(canonical) == links_digest(current) == Topology(nodes, current).canonical_hash()


RUNNING_FORM_SCENARIOS = [
    Scenario(pinned_order_nodes(), GameConfig(gamma=10.0)), split_scenario(), free_scenario(3), free_scenario(7)
]


@settings(deadline=None)
@given(st.data())
def test_the_running_form_is_the_canonical_form(data):
    # random adds and removes over multi-interface scenarios' feasible pairings
    scenario = data.draw(st.sampled_from(RUNNING_FORM_SCENARIOS))
    links = [Link(a, r_a, b, r_b) for (a, b), options in feasible_pairings(scenario).items() for r_a, r_b in options]
    assert_running_form(scenario.nodes, data.draw(st.lists(st.sampled_from(links), max_size=40)))


def test_the_running_form_keeps_tuple_order():
    # (0, 1, 1, 0) sorts after (0, 0, 4, 0) and (0, 0, 2, 1), though pair (0, 1) sorts first; the set empties twice
    nodes = pinned_order_nodes()
    toggles = [Link(0, 1, 1, 0), Link(0, 0, 4, 0), Link(0, 0, 2, 0), Link(0, 1, 1, 0), Link(0, 0, 4, 0), Link(0, 0, 2, 0)]
    assert_running_form(nodes, toggles + [Link(0, 0, 1, 1), Link(1, 1, 4, 1), Link(0, 0, 1, 1), Link(1, 1, 4, 1)])


def test_invalid_scenario_rejected():
    node = make_node(0, (0.0, 0.0))
    with pytest.raises(ValueError):
        best_response_dynamics(Scenario((node,), GameConfig(gamma=0.2)))


# -- brute force -------------------------------------------------------------------


def test_brute_force_single_node():
    node = make_node(0, (0.0, 0.0))
    scenario = Scenario((node,), GameConfig(gamma=10.0))
    assert brute_force_stable_set(scenario) == {Topology.empty((node,))}


def test_brute_force_two_ic_nodes():
    scenario = ic_trio()
    pair_only = Scenario(scenario.nodes[:2], scenario.config)
    stable = brute_force_stable_set(pair_only)
    assert stable == {Topology(pair_only.nodes, frozenset({Link(0, 0, 1, 0)}))}


def test_brute_force_triangle_member():
    scenario = ic_trio(gamma=570.0)
    stable = brute_force_stable_set(scenario)
    triangle = Topology(
        scenario.nodes,
        frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0), Link(0, 0, 2, 0)}),
    )
    assert triangle in stable


def test_brute_force_refuses_large_scenarios():
    nodes = tuple(make_node(i, (i * 3.0, 0.0)) for i in range(7))
    scenario = Scenario(nodes, GameConfig(gamma=10.0))
    with pytest.raises(ValueError):
        brute_force_stable_set(scenario, max_nodes=6)


def all_link_sets(scenario):
    """Every link set over the scenario's feasible pairings, from the public feasibility check."""
    choices = [
        [None, *(Link(a, r_a, b, r_b) for r_a, r_b in options)]
        for (a, b), options in feasible_pairings(scenario).items()
    ]
    return [frozenset(filter(None, combo)) for combo in itertools.product(*choices)]


def mirrored(scenario):
    """The scenario with node ids renumbered in reverse, so pairs and peer sums run the other way."""
    top = max(scenario.ids)
    return Scenario(tuple(dataclasses.replace(node, id=top - node.id) for node in scenario.nodes), scenario.config)


def test_brute_force_equals_oracle_over_every_link_set():
    multi_radio, split = multi_radio_scenario(), split_scenario()
    assert len(feasible_pairings(multi_radio)[(0, 1)]) == 4 and (2, 3) not in feasible_pairings(split)
    scenarios = [free_scenario(seed, max_nodes=4) for seed in range(16)] + [multi_radio, split]
    scenarios += [overflowing_unit_scenario(), overflowing_unit_scenario(3)]  # node 0's unit is inf on every pairing
    for scenario in scenarios + [mirrored(scenario) for scenario in scenarios]:
        expected = {
            links
            for links in all_link_sets(scenario)
            if stability_oracle(Topology(scenario.nodes, links), scenario.config)[0]
        }
        assert {topology.links for topology in brute_force_stable_set(scenario)} == expected


def test_brute_force_equals_oracle_at_small_hop_caps():
    # at h_max 1 and 2 a link set with every feasible pair inside one component can still leave
    # peers out of reach; node 4 has no feasible pair, so every state is infinite and the count rule decides
    isolated = isolated_scenario()
    assert len(feasible_pairings(isolated)) == 6 and all(4 not in pair for pair in feasible_pairings(isolated))
    for scenario in [free_scenario(seed, max_nodes=4) for seed in range(8)] + [isolated]:
        for h_max in (1, 2):
            config = dataclasses.replace(scenario.config, h_max=h_max)
            expected = {
                links
                for links in all_link_sets(scenario)
                if stability_oracle(Topology(scenario.nodes, links), config)[0]
            }
            assert {topology.links for topology in brute_force_stable_set(Scenario(scenario.nodes, config))} == expected


def test_fixed_points_belong_to_stable_set():
    for base_seed in (0, 5, 9):
        scenario = free_scenario(base_seed, max_nodes=4)
        stable = brute_force_stable_set(scenario, max_nodes=5)
        for seed in range(20):
            topology, trace = best_response_dynamics(scenario, seed=seed)
            if trace.converged:
                assert topology in stable


def test_stability_report_order_is_pinned():
    # Reports and `linkform check` serialise these tuples in order: severances
    # by link, then endpoint; additions by pair, each with the pairing of
    # lowest delta for the lower-id endpoint, then lowest interfaces. Pairs
    # (0, 1) and (0, 2) each have several improving pairings, none first.
    nodes = pinned_order_nodes()
    links = {
        Link(0, 0, 3, 0), Link(1, 0, 4, 1), Link(1, 1, 2, 0), Link(1, 1, 3, 0),
        Link(2, 0, 3, 0), Link(2, 0, 4, 0), Link(3, 0, 4, 1),
    }
    report = is_pairwise_stable(Topology(nodes, frozenset(links)), GameConfig(gamma=10.0))
    assert report.severance_violations == (
        (4, Link(1, 0, 4, 1)),
        (3, Link(3, 0, 4, 1)),
        (4, Link(3, 0, 4, 1)),
    )
    assert report.addition_violations == (Link(0, 1, 1, 0), Link(0, 1, 2, 0))
    assert not report.stable
