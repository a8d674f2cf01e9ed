import math

from linkform.cost import bandwidth_ratio, minimum_link_power
from linkform.criteria import (
    check_structure,
    clique_criterion,
    criteria_report,
    single_ic_link_criterion,
    star_criterion,
)
from linkform.model import GameConfig, Link, Scenario, Topology

from conftest import make_iface, make_node

MESH = make_iface("mesh", 1.0e9, 1.0e6, 5.0, 1e-12)


def solve_rho(owner, peer, target, config, congestion=1):
    """Energy weight that prices the (0, 0) pairing at ``target`` for the owner."""
    sigma = minimum_link_power(owner, 0, peer, 0, config)
    beta = bandwidth_ratio(owner.interfaces[0], owner)
    return target * beta / (config.alpha * congestion * sigma)


def two_ic_scenario(pair_cost, gamma):
    cfg = GameConfig(gamma=gamma)
    a = make_node(0, (0.0, 0.0), (MESH,), ic=True)
    b = make_node(1, (20.0, 0.0), (MESH,), ic=True)
    rho = solve_rho(a, b, pair_cost, cfg)
    a = make_node(0, (0.0, 0.0), (MESH,), rho=rho, ic=True)
    b = make_node(1, (20.0, 0.0), (MESH,), rho=rho, ic=True)
    return Scenario((a, b), cfg)


# -- clique criterion --------------------------------------------------------------


def test_clique_criterion_cheap_pairs_hold():
    scenario = two_ic_scenario(pair_cost=2.0, gamma=570.0)
    result = clique_criterion(scenario)
    assert result.holds
    assert result.witnesses == ()


def test_clique_criterion_out_of_range_pair():
    deaf = make_iface("mesh", 1.0e9, 1.0e6, 1e-9, 1e-10)
    a = make_node(0, (0.0, 0.0), (deaf,), ic=True)
    b = make_node(1, (5000.0, 0.0), (deaf,), ic=True)
    result = clique_criterion(Scenario((a, b), GameConfig(gamma=570.0)))
    assert not result.holds
    assert result.witnesses[0].nodes == (0, 1)
    assert math.isinf(result.witnesses[0].cost)
    assert "no feasible interface pairing" in result.witnesses[0].note


def test_clique_criterion_strict_threshold():
    # cost pinned a hair above / below gamma - 1
    scenario_above = two_ic_scenario(pair_cost=100.0, gamma=101.0 - 1e-9)
    assert not clique_criterion(scenario_above).holds
    scenario_below = two_ic_scenario(pair_cost=100.0, gamma=101.0 + 1e-6)
    assert clique_criterion(scenario_below).holds


def test_clique_criterion_applies_clique_congestion():
    # three ICs: the worst-case pairing must be priced with two links sharing
    # the interface, so gamma barely above 1 + cost fails for m = 3
    cfg = GameConfig(gamma=570.0)
    nodes = tuple(make_node(i, (i * 10.0, 0.0), (MESH,), ic=True) for i in range(3))
    rho = solve_rho(nodes[0], nodes[1], 2.0, cfg, congestion=1)
    nodes = tuple(make_node(i, (i * 10.0, 0.0), (MESH,), rho=rho, ic=True) for i in range(3))
    # worst pair is (0, 2) at 20 m: cost 2 * (20/10)^2 = 8 per link, doubled by congestion
    result = clique_criterion(Scenario(nodes, GameConfig(gamma=16.5)))
    assert not result.holds  # 16 < 15.5 fails
    assert clique_criterion(Scenario(nodes, GameConfig(gamma=17.5))).holds


def test_clique_witness_cost_and_note_are_exact():
    # alpha != 1 and congestion 2 (three IC nodes): the witness keeps the
    # expression order alpha * congestion * rho * sigma / beta bit for bit.
    # Node 1 links node 0 over lora (0, 1) or mesh (1, 0) at the same cost;
    # the worst-pairing note names the lower interface pair of that tie.
    lora = make_iface("lora", 1.0e9, 1.0e6, 5.0, 1e-12)
    cfg = GameConfig(gamma=1.0, alpha=0.7)
    nodes = (
        make_node(0, (0.0, 0.0), (MESH, lora), ic=True),
        make_node(1, (10.0, 0.0), (lora, MESH), rho=3.0, ic=True),
        make_node(2, (0.0, 20.0), (MESH,), ic=True),
    )
    witness = clique_criterion(Scenario(nodes, cfg)).witnesses[0]
    owner, peer = nodes[1], nodes[0]
    sigma = minimum_link_power(owner, 0, peer, 1, cfg)
    beta = bandwidth_ratio(owner.interfaces[0], owner)
    assert witness.nodes == (0, 1)
    assert witness.cost == cfg.alpha * 2 * owner.energy_weight * sigma / beta
    assert witness.note == "worst pairing (0, 1) on node 1's side; best pairing cost 2.45984e-08"


# -- single uplink criterion -------------------------------------------------------


def uplink_scenario(ic_to_non_cost, gamma):
    cfg = GameConfig(gamma=gamma)
    ic_a = make_node(0, (0.0, 0.0), (MESH,), ic=True)
    ic_b = make_node(1, (10.0, 0.0), (MESH,), ic=True)
    non = make_node(2, (5.0, 20.0), (MESH,))
    worst_rho = max(
        solve_rho(ic, non, ic_to_non_cost, cfg) for ic in (ic_a, ic_b)
    )
    # same rho on both ICs prices the cheaper (closer) pair at least at target
    ic_a = make_node(0, (0.0, 0.0), (MESH,), rho=worst_rho, ic=True)
    ic_b = make_node(1, (10.0, 0.0), (MESH,), rho=worst_rho, ic=True)
    return Scenario((ic_a, ic_b, non), cfg)


def test_single_ic_link_criterion_expensive_uplinks_hold():
    # ICs sit 10 m apart, the non-IC node 20.6 m from both, so pricing the
    # uplinks at 600 leaves the IC-IC pair near 141: inside gamma - 1 = 569
    scenario = uplink_scenario(ic_to_non_cost=600.0, gamma=570.0)
    assert clique_criterion(scenario).holds
    assert single_ic_link_criterion(scenario).holds


def test_single_ic_link_criterion_cheap_uplink_fails():
    scenario = uplink_scenario(ic_to_non_cost=10.0, gamma=570.0)
    result = single_ic_link_criterion(scenario)
    assert not result.holds
    assert any(set(w.nodes) == {0, 2} or set(w.nodes) == {1, 2} for w in result.witnesses)


def test_single_ic_link_criterion_vacuous_without_non_ic():
    scenario = two_ic_scenario(pair_cost=2.0, gamma=570.0)
    assert single_ic_link_criterion(scenario).holds


# -- star criterion ----------------------------------------------------------------


def star_scenario(lateral_cost):
    cfg = GameConfig(gamma=570.0)
    ic = make_node(0, (0.0, 0.0), (MESH,), ic=True)
    non_a = make_node(1, (30.0, 0.0), (MESH,))
    non_b = make_node(2, (30.0, 10.0), (MESH,))
    rho = solve_rho(non_a, non_b, lateral_cost, cfg)
    non_a = make_node(1, (30.0, 0.0), (MESH,), rho=rho)
    non_b = make_node(2, (30.0, 10.0), (MESH,), rho=rho)
    # price uplinks above gamma - 1 via the IC side
    ic_rho = solve_rho(ic, non_a, 2000.0, cfg)
    ic = make_node(0, (0.0, 0.0), (MESH,), rho=ic_rho, ic=True)
    return Scenario((ic, non_a, non_b), cfg)


def test_star_criterion_lateral_above_half_holds():
    scenario = star_scenario(lateral_cost=0.6)
    result = star_criterion(scenario)
    assert result.holds


def test_star_criterion_lateral_below_half_fails():
    scenario = star_scenario(lateral_cost=0.4)
    result = star_criterion(scenario)
    assert not result.holds
    assert any(set(w.nodes) == {1, 2} for w in result.witnesses)
    assert any("1/2" in w.note for w in result.witnesses)


def test_star_criterion_boundary_strict():
    # a cost within float noise of exactly 1/2 must not pass the strict test
    scenario = star_scenario(lateral_cost=0.5 * (1.0 - 1e-12))
    assert not star_criterion(scenario).holds


def test_criteria_report_bundles_results():
    scenario = two_ic_scenario(pair_cost=2.0, gamma=570.0)
    report = criteria_report(scenario)
    assert report.clique.holds
    assert len(report.notes) == 3


# -- structural checks -------------------------------------------------------------


def four_ic_nodes():
    return tuple(make_node(i, (i * 10.0, 0.0), (MESH,), ic=True) for i in range(4))


def test_structure_full_ic_clique():
    nodes = four_ic_nodes()
    links = frozenset(Link(a, 0, b, 0) for a in range(4) for b in range(a + 1, 4))
    report = check_structure(Topology(nodes, links))
    assert report.ic_clique
    assert report.missing_ic_pairs == ()
    assert report.hierarchy_tiers == 1


def test_structure_counts_uplinks():
    nodes = four_ic_nodes()[:2] + (make_node(2, (5.0, 10.0), (MESH,)),)
    links = frozenset({Link(0, 0, 1, 0), Link(0, 0, 2, 0), Link(1, 0, 2, 0)})
    report = check_structure(Topology(nodes, links))
    assert report.max_ic_links_per_non_ic == 2
    assert report.relays == ()


def test_structure_relay_chain_three_tiers():
    ic = make_node(0, (0.0, 0.0), (MESH,), ic=True)
    j = make_node(1, (10.0, 0.0), (MESH,))
    j2 = make_node(2, (20.0, 0.0), (MESH,))
    links = frozenset({Link(0, 0, 1, 0), Link(1, 0, 2, 0)})
    report = check_structure(Topology((ic, j, j2), links))
    assert report.relays == (1,)
    assert report.hierarchy_tiers == 3
    assert report.max_non_ic_degree == 2
    assert report.unattached_non_ic == ()


def test_structure_unattached_non_ic():
    ic = make_node(0, (0.0, 0.0), (MESH,), ic=True)
    j = make_node(1, (10.0, 0.0), (MESH,))
    report = check_structure(Topology.empty((ic, j)))
    assert report.unattached_non_ic == (1,)
    assert report.hierarchy_tiers is None
