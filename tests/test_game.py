import math

import pytest

from linkform.cli import trace_to_jsonl
from linkform.cost import total_cost
from linkform.game import (
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
)

from conftest import WLAN, make_iface, make_node
from generators import free_scenario
from oracles import stability_oracle

MESH = make_iface("mesh", 1.0e9, 1.0e6, 1.0, 1e-9)


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
    rhos = (1e4, 1e2, 1e3, 1e3, 1e4)
    radios = (2, 2, 1, 1, 2)
    positions = ((0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (40.0, 10.0))
    nodes = tuple(
        make_node(i, positions[i], (MESH,) * radios[i], rho=rhos[i]) for i in range(5)
    )
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
