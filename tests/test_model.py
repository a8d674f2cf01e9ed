import hashlib
import math
import re

import pytest
from hypothesis import given, strategies as st

from linkform.game import best_response_dynamics, brute_force_stable_set, is_pairwise_stable
from linkform.model import (
    COST_INF,
    Cost,
    GameConfig,
    IncomparableCostError,
    Link,
    Scenario,
    Topology,
    links_digest,
    validate_scenario,
    validate_topology,
)

from conftest import WLAN, ZWAVE, make_iface, make_node


# -- Cost ----------------------------------------------------------------------


def test_cost_ordering_finite_below_infinite():
    assert Cost(0.0) < Cost(1.5) < COST_INF
    assert not COST_INF < COST_INF


@given(st.floats(min_value=0.0, max_value=1e30, allow_nan=False))
def test_cost_infinite_absorbs_addition(x):
    assert (COST_INF + Cost(x)) == COST_INF
    assert (Cost(x) + COST_INF) == COST_INF


@given(
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
)
def test_cost_total_order(x, y):
    a, b = Cost(x), Cost(y)
    assert (a < b) or (b < a) or (a == b)


def test_cost_subtraction_rules():
    assert Cost(3.0).minus(COST_INF) == -math.inf
    assert COST_INF.minus(Cost(3.0)) == math.inf
    assert Cost(5.0).minus(Cost(2.0)) == 3.0
    with pytest.raises(IncomparableCostError):
        COST_INF.minus(COST_INF)


def test_cost_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        Cost(-1.0)
    with pytest.raises(ValueError):
        Cost(math.nan)
    with pytest.raises(ValueError):
        Cost.finite(math.inf)


def test_finite_cost_of_an_integer_is_a_float():
    cost = Cost.finite(3)
    assert cost == Cost(3.0)
    assert type(cost.value) is float


# -- Link ------------------------------------------------------------------------


def test_link_canonicalization_both_orders():
    assert Link(5, 1, 2, 0) == Link(2, 0, 5, 1)
    link = Link(5, 1, 2, 0)
    assert (link.node_a, link.iface_a, link.node_b, link.iface_b) == (2, 0, 5, 1)


@given(st.integers(0, 50), st.integers(0, 3), st.integers(0, 50), st.integers(0, 3))
def test_link_canonical_property(a, ra, b, rb):
    if a == b:
        with pytest.raises(ValueError):
            Link(a, ra, b, rb)
    else:
        assert Link(a, ra, b, rb) == Link(b, rb, a, ra)


def test_link_accessors():
    link = Link(1, 2, 3, 4)
    assert link.interface_for(1) == 2
    assert link.interface_for(3) == 4
    assert link.peer_of(1) == 3
    with pytest.raises(ValueError):
        link.interface_for(9)


def test_unknown_ids_are_value_errors():
    with pytest.raises(ValueError, match="node 9 is not an endpoint of"):
        Link(1, 2, 3, 4).peer_of(9)
    scenario = Scenario((make_node(0, (0, 0)),), GameConfig(gamma=10.0))
    with pytest.raises(ValueError, match="unknown node id 9"):
        scenario.node(9)


# -- Topology ---------------------------------------------------------------------


def test_topology_zero_links_valid():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    topo = Topology.empty(nodes)
    assert validate_topology(topo) == []
    assert topo.degree(0) == 0


def test_topology_one_link_per_pair():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    topo = Topology.empty(nodes).with_link(Link(0, 0, 1, 0))
    with pytest.raises(ValueError):
        topo.with_link(Link(0, 0, 1, 0))
    assert topo.degree(0) == 1
    assert topo.neighbors(1) == (0,)


def test_topology_without_link_roundtrip():
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    link = Link(0, 0, 1, 0)
    topo = Topology.empty(nodes).with_link(link)
    assert topo.without_link(link) == Topology.empty(nodes)
    with pytest.raises(ValueError):
        Topology.empty(nodes).without_link(link)


@pytest.mark.parametrize(
    "link, message",
    [(Link(0, 3, 1, 0), "node 0 has no interface 3"), (Link(0, 0, 1, -1), "node 1 has no interface -1")],
)
def test_with_link_rejects_an_interface_out_of_range(link, message):
    nodes = (make_node(0, (0, 0)), make_node(1, (5, 0)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        Topology.empty(nodes).with_link(link)


def test_validate_topology_flags_mismatches():
    nodes = (
        make_node(0, (0, 0), (WLAN,)),
        make_node(1, (5, 0), (ZWAVE,)),
    )
    topo = Topology(nodes, frozenset({Link(0, 0, 1, 0)}))
    issues = validate_topology(topo)
    assert any("kinds differ" in issue.message for issue in issues)

    bad_iface = Topology(nodes, frozenset({Link(0, 3, 1, 0)}))
    assert any("no interface 3" in issue.message for issue in validate_topology(bad_iface))


def test_validate_topology_flags_a_frequency_mismatch():
    nodes = (make_node(0, (0, 0), (WLAN,)), make_node(1, (5, 0), (make_iface("wlan", 5.0e9, 300e6, 1.0, 1e-11),)))
    issues = validate_topology(Topology(nodes, frozenset({Link(0, 0, 1, 0)})))
    assert [str(issue) for issue in issues] == ["link (0, 1): frequencies differ: 2400000000.0 Hz vs 5000000000.0 Hz"]


def test_links_digest_order_independent():
    a, b = Link(0, 0, 1, 0), Link(1, 0, 2, 0)
    assert links_digest([a, b]) == links_digest([b, a])
    assert links_digest([a]) != links_digest([a, b])


def test_links_digest_hashes_the_json_of_the_sorted_tuples():
    # tuple order, not pair order: with the same node_a, iface_a sorts before node_b
    expect = lambda canonical: hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]
    assert links_digest(()) == links_digest("[]") == expect("[]")
    assert links_digest([Link(0, 1, 1, 0), Link(0, 0, 4, 0)]) == expect("[[0, 0, 4, 0], [0, 1, 1, 0]]")
    # True == 1, yet no link lends its JSON text to an equal one
    assert links_digest([Link(True, 0, 2, 0)]) == expect("[[true, 0, 2, 0]]")
    assert links_digest([Link(1, 0, 2, 0)]) == expect("[[1, 0, 2, 0]]")


# -- validation -------------------------------------------------------------------


def test_validate_scenario_clean():
    nodes = [make_node(0, (0.0, 0.0)), make_node(1, (3.0, 4.0))]
    assert validate_scenario(nodes, GameConfig(gamma=10.0)) == []


def test_validate_scenario_duplicate_id():
    nodes = [make_node(0, (0.0, 0.0)), make_node(0, (3.0, 4.0))]
    issues = validate_scenario(nodes, GameConfig(gamma=10.0))
    assert any("duplicate node id" in issue.message for issue in issues)


def test_validate_scenario_sensitivity_above_budget():
    bad = make_iface(rx=2.0, tx=1.0)
    issues = validate_scenario([make_node(0, (0, 0), (bad,))], GameConfig(gamma=10.0))
    assert any("rx_sensitivity_w" in issue.location for issue in issues)


def test_validate_scenario_empty_and_config():
    issues = validate_scenario([], GameConfig(gamma=0.5))
    locations = {issue.location for issue in issues}
    assert "nodes" in locations
    assert "config.gamma" in locations


def test_validate_scenario_missing_interfaces():
    node = make_node(0, (0, 0), ())
    issues = validate_scenario([node], GameConfig(gamma=1.0))
    assert any("at least one interface" in issue.message for issue in issues)


def test_validate_scenario_reports_ints_beyond_the_float_range():
    huge = 10**400
    cases = [
        (make_node(0, (0.0, 0.0), b_min=huge), "node 0.min_required_bitrate_bps"),
        (make_node(0, (0.0, 0.0), rho=huge), "node 0.energy_weight"),
        (make_node(0, (huge, 0.0)), "node 0.position"),
        (make_node(0, (0.0, 0.0), (make_iface(bitrate=huge),)), "node 0.interfaces[0].max_bitrate_bps"),
    ]
    for node, location in cases:
        assert [issue.location for issue in validate_scenario([node], GameConfig(gamma=10.0))] == [location]
    issues = validate_scenario([make_node(0, (0.0, 0.0))], GameConfig(gamma=10.0, alpha=huge))
    assert [issue.location for issue in issues] == ["config.alpha"]


def test_validate_scenario_reports_every_positivity_issue_in_order():
    iface = make_iface(freq=0, gain=0)
    node = make_node(0, (0.0, 0.0), (iface,), b_min=0, rho=-1)
    issues = validate_scenario([node], GameConfig(gamma=10.0, alpha=0))
    assert [str(issue) for issue in issues] == [
        "config.alpha: must be positive, got 0",
        "node 0.min_required_bitrate_bps: must be positive, got 0",
        "node 0.energy_weight: must be positive, got -1",
        "node 0.interfaces[0].frequency_hz: must be positive, got 0",
        "node 0.interfaces[0].antenna_gain: must be positive, got 0",
    ]


def test_an_overflowing_alpha_is_refused():
    # co-located, so every unit cost is 0.0; alpha * 2 is inf, so a second link on one interface would cost NaN
    radio = make_iface("mesh", 1e9, 1e6, 1.0, 1e-12)
    nodes = tuple(make_node(i, (0.0, 0.0), (radio,), b_min=1e6, ic=i == 0) for i in range(3))
    config = GameConfig(gamma=10.0, alpha=1e308)
    refused = "config.alpha: alpha * (nodes - 1) must be finite, got alpha 1e+308"
    assert [str(issue) for issue in validate_scenario(nodes, config)] == [refused]
    star = Topology(nodes, frozenset({Link(0, 0, 1, 0), Link(0, 0, 2, 0)}))
    with pytest.raises(ValueError, match=re.escape(refused)):
        best_response_dynamics(Scenario(nodes, config))
    with pytest.raises(ValueError, match=re.escape(refused)):
        is_pairwise_stable(star, config)
    assert validate_scenario(nodes, GameConfig(gamma=10.0, alpha=8.9e307)) == []


def overflowing_ratio_nodes():
    # rho * sigma and the ratio would both be inf, so node 0's unit cost would be inf / inf = NaN
    radio = make_iface("lr", 1.0e9, 1.0e300, 1.0e12, 1.0e-3)
    return [
        make_node(0, (0.0, 0.0), (radio,), b_min=1.0e-300, rho=1.0e301, ic=True),
        make_node(1, (1.0e4, 0.0), (radio,), b_min=1.0e-300, ic=True),
    ]


def test_validate_scenario_rejects_an_overflowing_bandwidth_ratio():
    issues = validate_scenario(overflowing_ratio_nodes(), GameConfig(gamma=10.0))
    assert [str(issue) for issue in issues] == [
        f"node {i}.interfaces[0].max_bitrate_bps: ratio to min_required_bitrate_bps overflows to inf" for i in (0, 1)
    ]


def test_enumeration_refuses_an_overflowing_bandwidth_ratio():
    # node 0's unit cost is undefined here, so no topology can be called stable
    scenario = Scenario(tuple(overflowing_ratio_nodes()), GameConfig(gamma=10.0))
    with pytest.raises(ValueError, match="node 0.interfaces.0..max_bitrate_bps: ratio to min_required_bitrate_bps"):
        brute_force_stable_set(scenario)


def test_scenario_sorts_and_partitions():
    # Scenario and Topology share one node set: the id sort, the lookup and the IC classes
    nodes = (make_node(3, (0, 0), ic=True), make_node(1, (1, 1)), make_node(2, (2, 2), ic=True))
    for node_set in (Scenario(nodes, GameConfig(gamma=2.0)), Topology(nodes, frozenset())):
        assert [node.id for node in node_set.nodes] == [1, 2, 3]
        assert node_set.ids == (1, 2, 3)
        assert node_set.ic_ids == (2, 3)
        assert node_set.non_ic_ids == (1,)
        assert node_set.node(3) is nodes[0]
        with pytest.raises(ValueError, match="unknown node id 4"):
            node_set.node(4)
