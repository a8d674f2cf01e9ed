import math
import random

import pytest

from linkform.cost import (
    bandwidth_ratio,
    bridging_coefficient,
    hop_distances,
    link_cost_sum,
    minimum_link_power,
    total_cost,
)
from linkform.game import _Evaluator
from linkform.model import COST_INF, GameConfig, Link, Topology
from linkform.propagation import required_tx_power

from conftest import WLAN, ZWAVE, make_iface, make_node
from generators import free_scenario, random_topology

CFG = GameConfig(gamma=10.0)


def chain(nodes, pairs):
    return Topology(tuple(nodes), frozenset(Link(a, 0, b, 0) for a, b in pairs))


# -- bandwidth ratio --------------------------------------------------------------


def test_bandwidth_ratio_table_values():
    ic = make_node(0, (0, 0), (WLAN,), b_min=10e6)
    assert bandwidth_ratio(WLAN, ic) == 30.0
    zw_node = make_node(1, (0, 0), (ZWAVE,), b_min=5e3)
    assert bandwidth_ratio(ZWAVE, zw_node) == 8.0
    bt = make_iface("bluetooth", 2.4e9, 2e6, 0.025, 1e-10)
    bt_node = make_node(2, (0, 0), (bt,), b_min=0.5e6)
    assert bandwidth_ratio(bt, bt_node) == 4.0
    same = make_node(3, (0, 0), (WLAN,), b_min=300e6)
    assert bandwidth_ratio(WLAN, same) == 1.0


# -- link cost sum ----------------------------------------------------------------


def test_isolated_node_costs_nothing():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    assert link_cost_sum(nodes[0], Topology.empty(nodes), CFG).value == 0.0


def test_single_link_cost_value():
    a = make_node(0, (0.0, 0.0), (WLAN,), b_min=10e6)
    b = make_node(1, (10.0, 0.0), (WLAN,), b_min=10e6)
    topo = chain((a, b), [(0, 1)])
    sigma = required_tx_power(WLAN, WLAN, 10.0, CFG)
    expected = sigma / 30.0  # alpha=1, one link, rho=1, beta=30
    assert link_cost_sum(a, topo, CFG).value == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(3.37e-7, rel=2e-2)


def test_congestion_penalizes_shared_interface():
    # same two peers, once through one interface, once spread over two
    twin = (make_iface(), make_iface())
    hub_shared = make_node(0, (0, 0), (make_iface(),))
    hub_spread = make_node(0, (0, 0), twin)
    b = make_node(1, (10, 0))
    c = make_node(2, (0, 10))
    shared = Topology((hub_shared, b, c), frozenset({Link(0, 0, 1, 0), Link(0, 0, 2, 0)}))
    spread = Topology((hub_spread, b, c), frozenset({Link(0, 0, 1, 0), Link(0, 1, 2, 0)}))
    cost_shared = link_cost_sum(hub_shared, shared, CFG).value
    cost_spread = link_cost_sum(hub_spread, spread, CFG).value
    assert cost_shared == pytest.approx(2.0 * cost_spread, rel=1e-12)
    assert cost_shared > cost_spread


def test_link_cost_strictly_grows_with_links():
    nodes = tuple(make_node(i, (i * 10.0, 0)) for i in range(3))
    one = chain(nodes, [(0, 1)])
    two = one.with_link(Link(0, 0, 2, 0))
    assert link_cost_sum(nodes[0], two, CFG).value > link_cost_sum(nodes[0], one, CFG).value


def test_link_cost_missing_interface_is_domain_error():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    broken = Topology(nodes, frozenset({Link(0, 2, 1, 0)}))
    with pytest.raises(ValueError):
        link_cost_sum(nodes[0], broken, CFG)


def test_co_located_nodes_need_no_power():
    a, b = make_node(0, (3.0, 4.0), (WLAN,)), make_node(1, (3.0, 4.0), (WLAN,))
    assert minimum_link_power(a, 0, b, 0, CFG) == 0.0


def test_overbudget_link_is_infinite():
    tiny = make_iface(tx=1e-9, rx=1e-10)
    a = make_node(0, (0.0, 0.0), (tiny,))
    b = make_node(1, (5000.0, 0.0), (tiny,))
    topo = chain((a, b), [(0, 1)])
    assert link_cost_sum(a, topo, CFG) == COST_INF
    assert total_cost(a, topo, CFG).total == COST_INF


# -- bridging ---------------------------------------------------------------------


def test_bridging_two_nodes():
    nodes = tuple(make_node(i, (i * 5.0, 0)) for i in range(2))
    topo = chain(nodes, [(0, 1)])
    assert bridging_coefficient(nodes[0], topo) == pytest.approx(1.0, abs=1e-12)
    assert bridging_coefficient(nodes[1], topo) == pytest.approx(1.0, abs=1e-12)


def test_bridging_path_middle():
    nodes = tuple(make_node(i, (i * 5.0, 0)) for i in range(3))
    topo = chain(nodes, [(0, 1), (1, 2)])
    assert bridging_coefficient(nodes[1], topo) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bridging_star_center(k):
    nodes = tuple(make_node(i, (i * 5.0, 0)) for i in range(k + 1))
    topo = chain(nodes, [(0, i) for i in range(1, k + 1)])
    assert bridging_coefficient(nodes[0], topo) == pytest.approx(1.0 / k**2, abs=1e-12)


def test_bridging_isolated_zero():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    assert bridging_coefficient(nodes[0], Topology.empty(nodes)) == 0.0


def test_bridging_positive_for_connected_nodes():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 8)
        nodes = tuple(make_node(i, (i * 3.0, 0)) for i in range(n))
        links = {Link(i, 0, i + 1, 0) for i in range(n - 1)}
        for a in range(n):
            for b in range(a + 1, n):
                if Link(a, 0, b, 0) not in links and rng.random() < 0.3:
                    links.add(Link(a, 0, b, 0))
        topo = Topology(nodes, frozenset(links))
        for node in nodes:
            value = bridging_coefficient(node, topo)
            assert 0.0 < value <= max(topo.degree(p) for p in topo.neighbors(node.id))


def test_adding_link_lowers_bridging_of_connected_endpoints():
    # for already-connected nodes the numerator shrinks and the denominator grows
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 8)
        nodes = tuple(make_node(i, (i * 3.0, 0)) for i in range(n))
        links = {Link(i, 0, i + 1, 0) for i in range(n - 1)}  # connected path
        extra = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if not Link(a, 0, b, 0) in links
        ]
        rng.shuffle(extra)
        for a, b in extra[: rng.randint(0, max(0, len(extra) - 1))]:
            links.add(Link(a, 0, b, 0))
        topo = Topology(nodes, frozenset(links))
        candidates = [
            (a, b) for a in range(n) for b in range(a + 1, n) if not topo.has_pair(a, b)
        ]
        if not candidates:
            continue
        a, b = rng.choice(candidates)
        grown = topo.with_link(Link(a, 0, b, 0))
        for node_id in (a, b):
            node = topo.node(node_id)
            if topo.degree(node_id) >= 1:
                assert bridging_coefficient(node, grown) < bridging_coefficient(node, topo)


# -- hop distances ----------------------------------------------------------------


def test_hop_distances_cases():
    nodes = tuple(make_node(i, (i * 5.0, 0)) for i in range(3))
    triangle = chain(nodes, [(0, 1), (1, 2), (0, 2)])
    dists = hop_distances(triangle, nodes[0])
    assert dists == {0: 0, 1: 1, 2: 1}

    path = chain(nodes, [(0, 1), (1, 2)])
    assert hop_distances(path, nodes[0])[2] == 2

    split = chain(nodes, [(0, 1)])
    assert hop_distances(split, nodes[0])[2] == math.inf
    assert hop_distances(split, nodes[2])[0] == math.inf


def test_hop_distances_of_an_unknown_node_is_a_value_error():
    nodes = tuple(make_node(i, (i * 5.0, 0)) for i in range(2))
    with pytest.raises(ValueError, match="node 7 not in topology"):
        hop_distances(chain(nodes, [(0, 1)]), make_node(7, (0, 0)))


# -- total cost -------------------------------------------------------------------


def test_total_cost_isolated_with_peer_is_infinite():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    breakdown = total_cost(nodes[0], Topology.empty(nodes), CFG)
    assert breakdown.total == COST_INF
    assert breakdown.non_ic_distance_term == COST_INF


def test_total_cost_two_ic_nodes():
    gamma = 570.0
    cfg = GameConfig(gamma=gamma)
    a = make_node(0, (0.0, 0.0), (WLAN,), b_min=10e6, ic=True)
    b = make_node(1, (10.0, 0.0), (WLAN,), b_min=10e6, ic=True)
    topo = chain((a, b), [(0, 1)])
    link_cost = required_tx_power(WLAN, WLAN, 10.0, cfg) / 30.0
    breakdown = total_cost(a, topo, cfg)
    assert breakdown.total.value == pytest.approx(link_cost + gamma * 1 + 0 + 1, rel=1e-12)
    assert breakdown.bridging == pytest.approx(1.0, abs=1e-12)


def test_total_cost_singleton_zero():
    node = make_node(0, (0, 0))
    breakdown = total_cost(node, Topology.empty((node,)), CFG)
    assert breakdown.total.value == 0.0


def test_total_cost_hop_cap_behaves_like_disconnection():
    nodes = tuple(make_node(i, (i * 5.0, 0)) for i in range(3))
    path = chain(nodes, [(0, 1), (1, 2)])
    tight = GameConfig(gamma=10.0, h_max=1)
    assert total_cost(nodes[0], path, tight).total == COST_INF
    assert total_cost(nodes[1], path, tight).total.is_finite


def test_total_is_sum_of_terms():
    nodes = tuple(make_node(i, (i * 5.0, 0), ic=(i == 0)) for i in range(3))
    topo = chain(nodes, [(0, 1), (1, 2)])
    b = total_cost(nodes[1], topo, CFG)
    assert b.total.value == pytest.approx(
        b.link_cost_total.value + b.ic_distance_term.value + b.non_ic_distance_term.value + b.bridging,
        rel=1e-12,
    )


def test_gamma_scaling_monotone():
    nodes = tuple(make_node(i, (i * 5.0, 0), ic=True) for i in range(3))
    topo = chain(nodes, [(0, 1), (1, 2)])
    low = total_cost(nodes[0], topo, GameConfig(gamma=10.0))
    high = total_cost(nodes[0], topo, GameConfig(gamma=20.0))
    assert high.ic_distance_term.value >= low.ic_distance_term.value
    # hop counts themselves are gamma-independent
    assert hop_distances(topo, nodes[0]) == hop_distances(topo, nodes[0])


# -- evaluator agrees with the reference path --------------------------------------


def test_incremental_evaluator_matches_reference_costs():
    for seed in range(40):
        scenario = free_scenario(seed)
        rng = random.Random(1000 + seed)
        topology = random_topology(scenario, rng)
        evaluator = _Evaluator(scenario, topology.links)
        for node in scenario.nodes:
            fast_cost, fast_unreachable = evaluator.state(node.id)
            reference = total_cost(node, topology, scenario.config).total.value
            if math.isinf(reference):
                assert math.isinf(fast_cost)
            else:
                assert fast_cost == pytest.approx(reference, rel=1e-9)
            dists = hop_distances(topology, node)
            expected_unreachable = sum(
                1 for nid, h in dists.items() if nid != node.id and h > scenario.config.h_max
            )
            assert fast_unreachable == expected_unreachable
