"""Strategy rules: deviation deltas, mutual-consent proposals, pairwise stability,
best-response dynamics, and a brute-force enumeration of stable topologies.

Improvement is always strict (ties never move). A node's state is the pair
(total cost, peers unreachable within the hop cap), and a move improves a node
exactly when its state after is below its state before in tuple order: a finite
cost sorts below every infinite one, and between two infinite costs, which
carry no sign under extended-cost subtraction, fewer unreachable peers is
better. This lets an empty network bootstrap itself (the first links reduce
unreachability even though both states are infinite) while staying
conservative between equally-disconnected states.

Dynamics and the stability check share one deviation engine, and the enumeration
prices its own verdicts; all three share ``_state``, ``_parts`` and one hop-ball
search, ``_Evaluator._search``. Parts count IC hops as a whole number that every
gamma shares, and ``_state`` weighs it by gamma. The engine's scans yield moves:
``_severances`` a ``Remove`` per improving severance, by node, then peer id, and
``_additions`` one ``Add`` per absent pair, in pair order, with the pair's best
mutually improving pairing: the lowest delta for the lower-id endpoint wins, then
the lowest interfaces.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import itertools
import math
import random
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import is_, or_
from typing import Callable, Iterable, Iterator, NamedTuple

from .model import (
    Cost,
    GameConfig,
    Link,
    Node,
    Scenario,
    Topology,
    _canonical,
    _fragment,
    bandwidth_ratio,
    distance_between,
    links_digest,
    validate_scenario,
)
from .propagation import link_feasible, required_tx_power

DEFAULT_MAX_MOVES = 10_000

State = tuple[float, int]  # (total cost, peers unreachable within h_max); improving is ``after < before``
Ends = list[tuple[int, int, float]]  # (peer, own interface, own unit) per link, by peer id
Parts = tuple[int, int, float, int]  # all but the link cost, for every gamma: (IC hops, non-IC hops, bridging, unreachable)


@dataclass(frozen=True)
class Add:
    """A consented link addition; both deltas are strictly negative."""

    link: Link
    delta_a: float
    delta_b: float


@dataclass(frozen=True)
class Remove:
    """A unilateral link severance; the initiator's delta is strictly negative."""

    link: Link
    initiator: int
    delta: float


Move = Add | Remove


@dataclass(frozen=True)
class Rejection:
    """Why a proposed link was not formed."""

    kind: str  # "infeasible" or "declined"
    declined_by: tuple[int, ...] = ()


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the pairwise-stability check.

    ``severance_violations`` lists (node id, link) incidences where unilateral
    removal strictly improves the node; ``addition_violations`` lists absent
    links whose addition strictly improves both endpoints.
    """

    stable: bool
    severance_violations: tuple[tuple[int, Link], ...]
    addition_violations: tuple[Link, ...]


@dataclass(frozen=True)
class TraceStep:
    move: Move
    topology_hash: str
    costs: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class DynamicsTrace:
    """Replayable record of one dynamics run."""

    seed: int
    steps: tuple[TraceStep, ...]
    converged: bool


class PairingOption(NamedTuple):
    """One interface pairing of a node pair, priced for both endpoints."""

    r_a: int
    r_b: int
    unit_a: float  # rho * sigma / beta for the lower-id endpoint
    unit_b: float
    sigma_a: float  # transmit power the lower-id endpoint emits
    sigma_b: float


PairingTable = dict[tuple[int, int], tuple[PairingOption, ...]]


def _unit(config: GameConfig, owner: Node, r_own: int, peer: Node, r_peer: int) -> tuple[float, float]:
    """(sigma, rho * sigma / beta) for one endpoint; both inf for unusable assignments."""
    iface = owner.interface(r_own)
    other = peer.interface(r_peer)
    if iface.kind != other.kind or iface.frequency_hz != other.frequency_hz:
        return math.inf, math.inf
    distance = distance_between(owner, peer)
    sigma = 0.0 if distance == 0.0 else required_tx_power(iface, other, distance, config)
    if sigma > iface.max_tx_power_w:
        return math.inf, math.inf
    return sigma, owner.energy_weight * sigma / bandwidth_ratio(iface, owner)


def _pairing(config: GameConfig, a: Node, r_a: int, b: Node, r_b: int) -> PairingOption:
    sigma_a, unit_a = _unit(config, a, r_a, b, r_b)
    sigma_b, unit_b = _unit(config, b, r_b, a, r_a)
    return PairingOption(r_a, r_b, unit_a, unit_b, sigma_a, sigma_b)


def pairing_table(scenario: Scenario) -> PairingTable:
    """Feasible interface pairings of every node pair, keyed by (lower id, higher id).

    Feasible means ``link_feasible`` holds; a unit cost may still be inf.
    Options are ordered by (r_a, r_b); pairs with no feasible pairing are absent.
    The scenario must be valid (``_pairings`` checks it, for ``_Evaluator`` and ``criteria_report``).
    """
    table: PairingTable = {}
    for a, b in itertools.combinations(scenario.nodes, 2):
        options = []
        for r_a, r_b in itertools.product(range(len(a.interfaces)), range(len(b.interfaces))):
            option = _pairing(scenario.config, a, r_a, b, r_b)
            if math.isfinite(option.sigma_a) and math.isfinite(option.sigma_b):
                options.append(option)
        if options:
            table[(a.id, b.id)] = tuple(options)
    return table


_memo: tuple = ((), None, {})  # (nodes, config, table) of the last scenario checked; no nodes never passes the check


def _pairings(scenario: Scenario) -> PairingTable:
    """``scenario``'s pairing table after checking it (ValueError naming every issue); remembers the last, by identity.

    The check reruns unless the node objects and the config object are the same, the build unless the node objects
    are and the path-loss exponent is equal. ``==`` would not do: an ``h_max`` of 5.0 equals 5, a node id 1.0 equals 1.
    The slot is read once and rebound whole, so concurrent calls never pair one scenario's key with another's table.
    """
    global _memo
    nodes, config, table = _memo
    same_nodes = len(nodes) == len(scenario.nodes) and all(map(is_, nodes, scenario.nodes))
    if not (same_nodes and config is scenario.config):
        issues = validate_scenario(scenario.nodes, scenario.config)
        if issues:
            raise ValueError("; ".join(str(issue) for issue in issues))
        if not (same_nodes and config.path_loss_exponent == scenario.config.path_loss_exponent):
            table = pairing_table(scenario)
        _memo = (scenario.nodes, scenario.config, table)
    return table


_shared: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_shared", default=None)


@contextlib.contextmanager
def _sharing() -> Iterator[None]:
    """For the block, evaluators over the first one's pairing table (by identity), alpha and h share each link set's
    gamma-free passes, by its canonical form (``states``); the others, and evaluators outside a block, share nothing."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


class _Evaluator:
    """Incremental cost evaluation for one scenario across candidate link sets.

    Building one checks the scenario and keeps its pairing table as ``pairings`` (``_pairings``); ``place`` prices a
    link by its option there, or by ``_pairing`` where the table lacks it. Answers state queries as (total cost, peers
    unreachable within the hop cap) against a small mutable link set: ``links``, each node's ``ends`` and ``near``.
    ``state`` prices a node from link ends and parts; one search (``_search``) grows the parts' hop balls from
    closed-neighbourhood masks by rank: ``state`` and the exact cuts (``cut``) search ``near``; ``masked_parts`` a
    subset's. ``states`` weighs by gamma the link set's gamma-free pass, ``balls[i][k]`` (the nodes within k <=
    min(h_max, n - 1) hops of ``i``) and each node's other terms, and keeps it with the exact cuts, ``grown`` parts and
    ``grown_cost``s until the next ``states``, or in a ``_sharing`` block by the link set's canonical form, which the
    dynamics keep running (``_moved``). Peer sums run in ascending id order, whatever order the links were placed in.
    """

    def __init__(self, scenario: Scenario, links: Iterable[Link] = ()):
        self.pairings = _pairings(scenario)
        self.cfg = scenario.config
        self.ids: tuple[int, ...] = scenario.ids
        self.n = len(self.ids)
        self.node = scenario.node
        self.rank = {i: rank for rank, i in enumerate(self.ids)}
        self.bit = {i: 1 << rank for i, rank in self.rank.items()}
        self.near = list(self.bit.values())  # closed-neighbourhood masks by rank, kept by place and remove
        self.full = (1 << self.n) - 1
        self.ic_mask = sum(self.bit[i] for i in scenario.ic_ids)
        self.n_ic = len(scenario.ic_ids)
        self.h = min(self.cfg.h_max, max(self.n - 1, 0))
        self.weight = {i: self.cfg.gamma if self.bit[i] & self.ic_mask else 1.0 for i in self.ids}  # a peer's cost per hop
        self.tolerance = self.n**2 * 2.0**-40  # a certificate's margin, relative to the state; the README says why
        self.ends: dict[int, Ends] = {i: [] for i in self.ids}
        self.links: dict[tuple[int, int], Link] = {}  # by (lower id, higher id); the ends keep the units
        shared = _shared.get()
        bound = shared is not None and shared.setdefault("binding", (self.pairings, self.cfg.alpha, self.h))
        self.shared = shared if bound and bound[0] is self.pairings and bound[1:] == (self.cfg.alpha, self.h) else None
        for link in links:  # infeasible links are priced as infinite
            self.place(link)

    # -- mutable link set -----------------------------------------------------

    def place(self, link: Link) -> None:
        """Add ``link``, priced by its pairing; raises ValueError for an unknown node or a pair that is linked already."""
        a, b = pair = link.pair
        if pair in self.links:
            raise ValueError(f"node pair {pair} linked more than once")
        options = (option for option in self.pairings.get(pair, ()) if option[:2] == (link.iface_a, link.iface_b))
        option = next(options, None) or _pairing(self.cfg, self.node(a), link.iface_a, self.node(b), link.iface_b)
        self.links[pair] = link
        insort(self.ends[a], (b, option.r_a, option.unit_a))
        insort(self.ends[b], (a, option.r_b, option.unit_b))
        self.near[self.rank[a]] ^= self.bit[b]
        self.near[self.rank[b]] ^= self.bit[a]

    def remove(self, pair: tuple[int, int]) -> None:
        a, b = pair
        del self.ends[a][bisect_left(self.ends[a], (b,))]
        del self.ends[b][bisect_left(self.ends[b], (a,))]
        self.near[self.rank[a]] ^= self.bit[b]
        self.near[self.rank[b]] ^= self.bit[a]
        del self.links[pair]

    def toggle(self, link: Link) -> None:
        """Sever ``link``'s pair if it is linked, else place ``link``."""
        if link.pair in self.links:
            self.remove(link.pair)
        else:
            self.place(link)

    # -- evaluation -----------------------------------------------------------

    def _search(self, near: list[int] | tuple[int, ...], i: int, first: int) -> list[int]:
        """``i``'s balls: B_0, B_1 = ``first``, then each ORs the ``near`` masks of the nodes new in the last, up to B_h."""
        ball, grown, frontier = self.bit[i], first, 0
        row = [ball]
        for _ in range(self.h):
            while frontier:
                low = frontier & -frontier
                grown |= near[low.bit_length() - 1]
                frontier ^= low
            if grown == ball:
                break
            frontier, ball = grown ^ ball, grown
            row.append(ball)
        return row

    def _parts(self, row: list[int], links: int, inverse_degrees: float) -> Parts:
        """Parts from balls B_0.., a link count and the peers' inverse degrees; hop sums are ``sum over k < h of |class - B_k|``."""
        last = row[-1]
        if last != self.full:
            return 0, 0, 0.0, self.n - last.bit_count()
        ic_mask = self.ic_mask
        ic_seen = seen = levels = 0
        for levels, ball in enumerate(row):
            if ball == last:
                break
            ic_seen += (ball & ic_mask).bit_count()
            seen += ball.bit_count()
        bridging = (1.0 / links) / inverse_degrees if links else 0.0
        return levels * self.n_ic - ic_seen, levels * (self.n - self.n_ic) - (seen - ic_seen), bridging, 0

    def state(self, i: int) -> State:
        """Node ``i``'s state from its link ends and its parts by ``reach`` over them."""
        own = self.ends[i]
        return _state(self.cfg.gamma, _link_cost(self.cfg.alpha, _unit_sums(own)), *self.reach(i, own))

    def states(self, key: str | None = None) -> dict[int, State]:
        """Every node's state: the gamma-free pass (``_passes``, in a ``_sharing`` block kept by ``key``, the canonical form)
        weighed by gamma, and for a finite state the certificates' sums, ``G(i)`` as ``gamma * far_ic + far_other``."""
        shared = {} if key is None or self.shared is None else self.shared
        if key not in shared:
            shared[key] = self._passes()
        self.balls, passes, self.cuts, self.joins, self.costs = shared[key]
        gamma, states, self.sums = self.cfg.gamma, {}, {}  # sums: the certificates' ``_Sums``, finite states only
        for i, (units, inverse_degrees, link_cost, parts, far_ic, far_other, share) in passes.items():
            state = states[i] = _state(gamma, link_cost, *parts)
            if state[0] != math.inf:
                margin = state[0] * self.tolerance
                room = gamma * far_ic + far_other + parts[2] + margin
                self.sums[i] = _Sums(margin, units, inverse_degrees, parts[2], share, room)
        return states

    def _passes(self) -> tuple[dict[int, list[int]], dict[int, tuple], dict, dict, dict]:
        """The balls, ``B_k(i) = B_{k-1}(i) | B_{k-1}(j)`` over neighbours ``j``; per node its unit sums, inverse degrees,
        link cost, parts, ``G(i)``'s hop counts from ``_parts`` over ``B_2..B_h`` (a finite state's ``B_h`` is full) and
        ``1 / (degree + 1)``; and the empty records of the exact cuts (``cut``), ``grown`` parts and ``grown_cost``s."""
        alpha, ends = self.cfg.alpha, self.ends
        level, grown = self.bit, dict(zip(self.ids, self.near))  # B_0, and B_1 from the masks
        balls = {i: [ball] for i, ball in level.items()}
        for k in range(self.h):
            if k:
                grown = {}
                for i, own in ends.items():
                    ball = level[i]
                    for peer, _, _ in own:
                        ball |= level[peer]
                    grown[i] = ball
            if grown == level:  # no ball grew: every later level repeats this one
                break
            for i, row in balls.items():
                row.append(grown[i])
            level = grown
        passes = {}
        for i, row in balls.items():
            row += [row[-1]] * (self.h + 1 - len(row))
            own = ends[i]
            units, inverse_degrees = _unit_sums(own), _inverse_degrees(own, ends)
            parts, far = self._parts(row, len(own), inverse_degrees), self._parts(row[2:] or row[-1:], 0, 0.0)
            passes[i] = units, inverse_degrees, _link_cost(alpha, units), parts, *far[:2], 1.0 / (len(own) + 1)
        return balls, passes, {}, {}, {}

    def grown(self, a: int, b: int) -> Parts:
        """a's parts from ``B_k(a) | B_{k-1}(b)`` once a-b is added, kept with the link set."""
        if (a, b) not in self.joins:
            row, trial = self.balls[a], sorted([*self.ends[a], (b, 0, 0.0)])  # b among a's link ends, in peer order
            parts = self._parts([row[0], *map(or_, row[1:], self.balls[b])], len(trial), _inverse_degrees(trial, self.ends, b))
            self.joins[a, b] = parts
        return self.joins[a, b]

    def grown_cost(self, a: int, b: int, option: PairingOption, side: int) -> float:
        """a's link cost once a-b is added with ``option`` (``side`` as in ``join_refuted``), kept with the link set."""
        key = (a, b, option.r_a, option.r_b)
        if key not in self.costs:
            trial = sorted([*self.ends[a], (b, option[side], option[side + 2])])  # in peer order, as in ``grown``
            self.costs[key] = _link_cost(self.cfg.alpha, _unit_sums(trial))
        return self.costs[key]

    def cut(self, i: int, at: int) -> State:
        """Node ``i``'s state once its link end ``at`` is cut, from its link cost and parts, kept with the link set."""
        if (i, at) not in self.cuts:
            kept = self.ends[i][:at] + self.ends[i][at + 1 :]
            self.cuts[i, at] = (_link_cost(self.cfg.alpha, _unit_sums(kept)), *self.reach(i, kept))
        return _state(self.cfg.gamma, *self.cuts[i, at])

    def cut_refuted(self, i: int, end: tuple[int, int, float]) -> bool:
        """The severance certificate: whether cutting ``i``'s link ``end`` provably leaves its finite state no lower.

        The peer moves from 1 hop to at least 2, and no other peer comes closer.
        """
        sums = self.sums[i]
        peer, r_own, unit = end
        unit_sum, count = sums.units[r_own]
        kept = len(self.ends[i]) - 1
        bridging = (1.0 / kept) / (sums.inverse_degrees - 1.0 / len(self.ends[peer])) if kept else 0.0
        saved = self.cfg.alpha * (unit_sum + (count - 1) * unit)
        return self.weight[peer] + bridging - sums.bridging - saved > sums.margin

    def join_refuted(self, x: int, y: int, options: tuple[PairingOption, ...], side: int) -> bool:
        """The addition certificate: whether no option of linking ``x`` to ``y`` can lower x's finite state.

        ``side`` is x's place in the pair (0 reads ``r_a`` and ``unit_a``, 1
        ``r_b`` and ``unit_b``). ``y`` comes to 1 hop from at least 2, and
        every other peer to no less than 2 hops, so the hop terms fall by at
        most ``G(x) + w_y``.
        """
        sums = self.sums.get(x)
        if sums is None:
            return False
        room = sums.room + self.weight[y] - sums.share / (sums.inverse_degrees + 1.0 / (len(self.ends[y]) + 1))
        alpha, units = self.cfg.alpha, sums.units
        for option in options:
            unit_sum, count = units.get(option[side], (0.0, 0))
            if not alpha * (unit_sum + (count + 1) * option[side + 2]) > room:
                return False
        return True

    def reach(self, i: int, own: Ends) -> Parts:
        """``i``'s parts with link ends ``own``, by ``_search`` over the other nodes' current masks."""
        first = self.bit[i]
        for j, _, _ in own:
            first |= self.bit[j]
        return self._parts(self._search(self.near, i, first), len(own), _inverse_degrees(own, self.ends))

    def masked_parts(self, near: tuple[int, ...], i: int) -> Parts:
        """``i``'s parts when ``near`` holds every node's closed-neighbourhood mask, by rank, by ``_search`` over them."""
        first = near[self.rank[i]]
        peers, inverse_degrees = first ^ self.bit[i], 0.0
        for j in range(self.n):  # by rank, which orders peers as ids do; a peer's degree is its mask's count less itself
            if peers >> j & 1:
                inverse_degrees += 1.0 / (near[j].bit_count() - 1)
        return self._parts(self._search(near, i, first), peers.bit_count(), inverse_degrees)


class _Sums(NamedTuple):
    """Sums of one node with a finite state, which the scans' certificates read."""

    margin: float  # the state times the evaluator's tolerance: covers the rounding a certificate must survive
    units: dict[int, tuple[float, int]]  # from ``_unit_sums``
    inverse_degrees: float  # sum over the peers of 1 / degree
    bridging: float
    share: float  # 1 / (degree + 1), the bridging numerator once a link is added
    room: float  # G(i) + bridging + margin; G(i) = gamma * far_ic + far_other caps a new link's hop saving past its peer


def _unit_sums(ends: Ends) -> dict[int, tuple[float, int]]:
    """Per own interface, in order of first use: its unit sum, in peer order, and its link count."""
    sums: dict[int, tuple[float, int]] = {}
    for _, r_own, unit in ends:
        unit_sum, count = sums.get(r_own, (0.0, 0))
        sums[r_own] = (unit_sum + unit, count + 1)
    return sums


def _inverse_degrees(own: Ends, ends: dict[int, Ends], grown_peer: int = -1) -> float:
    """Sum over ``own``'s peers, in peer order, of 1 / degree, the length of the peer's ``ends``, plus one for ``grown_peer``."""
    inverse_degrees = 0.0
    for peer, _, _ in own:
        inverse_degrees += 1.0 / (len(ends[peer]) + (peer == grown_peer))
    return inverse_degrees


def _link_cost(alpha: float, units: dict[int, tuple[float, int]]) -> float:
    """``alpha`` times, per own interface, its link count times its unit sum; ``units`` from ``_unit_sums``."""
    link_cost = 0.0
    for unit_sum, count in units.values():
        link_cost += alpha * count * unit_sum
    return link_cost


def _state(gamma: float, link_cost: float, ic: int, non_ic: int, bridging: float, unreachable: int) -> State:
    """A node's state from its link cost and its other parts, IC hops weighed by ``gamma``: an infinite link cost sums to inf."""
    if unreachable:
        return (math.inf, unreachable)
    return (link_cost + gamma * ic + non_ic + bridging, 0)


def _interface_bounds(alpha: float, linked: list[Ends]) -> tuple[dict, dict, float]:
    """Per own interface r, as ``_unit_sums`` gives them, over a node's linked pairs (each its ends per pairing):
    (top_r, most_r) from the largest unit on r of each pair with a pairing on r, (low_r, least_r) from the smallest
    unit of each pair with every pairing on r. Then the largest link cost over the pairs' pairing combinations."""
    interfaces = [{r for _, r, _ in ends} for ends in linked]
    tops = _unit_sums([(0, r, max(u for _, s, u in ends if s == r)) for ends, on in zip(linked, interfaces) for r in on])
    lows = _unit_sums([min(ends, key=lambda end: end[2]) for ends, on in zip(linked, interfaces) if len(on) == 1])
    return tops, lows, _link_cost(alpha, tops)


def _join_certificates(
    alpha: float, gamma: float, tolerance: float, bounds: tuple, before: Parts, after: Parts, ends: Ends
) -> tuple[int, int]:
    """Masks of a new link's pairings (``ends``) that improve a node at every, and maybe at some, pairing combination of
    its links, from ``_interface_bounds`` and its parts before and after; (0, all) with a peer out of reach."""
    if before[3] or after[3]:
        return 0, -1
    (tops, lows, most_cost), held = bounds, gamma * before[0] + before[1] + before[2]
    gain, margin = held - (gamma * after[0] + after[1] + after[2]), tolerance * (most_cost + held)  # inf when a linked unit is
    accepted = possible = 0
    for j, (_, r, unit) in enumerate(ends):
        (top, most), (low, least) = tops.get(r, (0.0, 0)), lows.get(r, (0.0, 0))
        accepted |= (alpha * (top + (most + 1) * unit) + margin < gain) << j
        possible |= (not alpha * (low + (least + 1) * unit) - margin > gain) << j
    return accepted, possible


def _resolved_delta(before: State, after: State) -> float:
    """Signed delta of an improvement ``after < before``; one between two infinite states resolves to -inf."""
    return -math.inf if math.isinf(before[0]) and math.isinf(after[0]) else after[0] - before[0]


def _severances(evaluator: _Evaluator, base: dict[int, State], node_order: Iterable[int]) -> Iterator[Remove]:
    """Every improving unilateral severance, one per endpoint incidence.

    Scans the nodes in ``node_order``, each against its peers in ascending id
    order. ``base`` holds states from ``evaluator.states``, which rebuilds
    the balls and sums. A node with unreachable peers is passed over: a cut
    never brings a peer back into reach. From a finite state, a cut gets an
    exact BFS only when the severance certificate does not refute it; an
    ``(inf, 0)`` state, whose link cost is infinite, gets it always.
    """
    cut, ends, sums, refuted = evaluator.cut, evaluator.ends, evaluator.sums, evaluator.cut_refuted
    for i in node_order:
        before = base[i]
        if before[1]:
            continue
        own, certified = ends[i], i in sums
        for at, end in enumerate(own):
            if certified and refuted(i, end):
                continue
            after = cut(i, at)
            if after < before:
                peer = end[0]
                link = evaluator.links[(i, peer) if i < peer else (peer, i)]
                yield Remove(link=link, initiator=i, delta=_resolved_delta(before, after))


def _additions(evaluator: _Evaluator, base: dict[int, State], pair_order: Iterable[tuple[int, int]]) -> Iterator[Add]:
    """The best mutually improving pairing of each absent pair, in pair order.

    Best is the lowest delta for ``a``, the lower id, then the lowest
    (r_a, r_b). ``base`` holds states from ``evaluator.states``, which
    rebuilds the balls and sums. A pair is passed over when the addition
    certificate refutes either endpoint, ``b`` first, since ``b`` seldom
    improves where ``a`` does. Otherwise only the link cost depends on the
    pairing, and ``b`` is priced only when ``a`` improves.
    """
    links, grown, cost, refuted = evaluator.links, evaluator.grown, evaluator.grown_cost, evaluator.join_refuted
    pairings, gamma = evaluator.pairings, evaluator.cfg.gamma
    for pair in pair_order:
        if pair in links:
            continue
        a, b = pair
        if refuted(b, a, pairings[pair], 1) or refuted(a, b, pairings[pair], 0):
            continue
        before_a, before_b = base[a], base[b]
        parts_a, parts_b, improving = grown(a, b), None, []
        for option in pairings[pair]:
            after_a = _state(gamma, cost(a, b, option, 0), *parts_a)
            if not after_a < before_a:
                continue
            parts_b = parts_b or grown(b, a)
            after_b = _state(gamma, cost(b, a, option, 1), *parts_b)
            if after_b < before_b:
                delta_b = _resolved_delta(before_b, after_b)
                improving.append((_resolved_delta(before_a, after_a), option.r_a, option.r_b, delta_b))
        if improving:
            delta_a, r_a, r_b, delta_b = min(improving)
            yield Add(link=Link(a, r_a, b, r_b), delta_a=delta_a, delta_b=delta_b)


_queried = threading.local()  # ``_query``'s slot, one per thread, since a query toggles its evaluator's links


def _query(topology: Topology, config: GameConfig) -> tuple[_Evaluator, Callable[[int], State]]:
    """An evaluator over ``topology``'s links and its nodes' states there, each priced once by ``state``. Remembers the
    last in the thread's slot, by the identity of ``topology`` and ``config`` as ``_pairings`` does; a build that raises
    leaves the slot as it was."""
    held, cfg, evaluator, base = getattr(_queried, "slot", (None, None, None, None))
    if held is not topology or cfg is not config:
        evaluator = _Evaluator(Scenario(topology.nodes, config), topology.links)
        base = functools.cache(evaluator.state)
        _queried.slot = (topology, config, evaluator, base)
    return evaluator, base


def _toggle_states(evaluator: _Evaluator, base: Callable[[int], State], link: Link, ids: tuple[int, ...]) -> list:
    """(before, after) state of each of ``ids``, before by ``base``, when ``evaluator`` severs ``link`` if present, else
    adds it; ``link`` is toggled back, also when pricing raises, so the evaluator keeps the link set it was built with."""
    before = [base(i) for i in ids]
    evaluator.toggle(link)
    try:
        return list(zip(before, [evaluator.state(i) for i in ids]))
    finally:
        evaluator.toggle(link)


def delta_cost_add(node: Node, topology: Topology, link: Link, config: GameConfig) -> float:
    """Cost change for ``node`` if ``link`` were added; raises when undefined.

    Raises IncomparableCostError when both states are infinite, and ValueError
    when the scenario is invalid, a topology link cannot be placed, the node is
    not in the topology or the link is already present or physically infeasible.
    """
    query = _query(topology, config)
    topology.node(node.id)
    if topology.has_pair(link.node_a, link.node_b):
        raise ValueError(f"{link} already present")
    if not link_feasible(
        topology.node(link.node_a), link.iface_a, topology.node(link.node_b), link.iface_b, config
    ):
        raise ValueError(f"{link} is not physically feasible")
    [(before, after)] = _toggle_states(*query, link, (node.id,))
    return Cost(after[0]).minus(Cost(before[0]))


def delta_cost_remove(node: Node, topology: Topology, link: Link, config: GameConfig) -> float:
    """Cost change for ``node`` if it severed ``link``; raises when undefined."""
    query = _query(topology, config)
    if link not in topology.links:
        raise ValueError(f"{link} not present")
    if not link.touches(node.id):
        raise ValueError(f"node {node.id} is not an endpoint of {link}")
    [(before, after)] = _toggle_states(*query, link, (node.id,))
    return Cost(after[0]).minus(Cost(before[0]))


def propose_add(
    topology: Topology, i: int, r_i: int, j: int, r_j: int, config: GameConfig
) -> Add | Rejection:
    """Mutual-consent evaluation of one candidate link.

    Returns an Add move iff the pairing is feasible and both endpoints strictly
    improve; otherwise a Rejection naming who withheld consent. Symmetric in
    (i, j). Raises ValueError when the scenario is invalid or a topology link
    cannot be placed, whatever the link.
    """
    query = _query(topology, config)
    node_i = topology.node(i)
    node_j = topology.node(j)
    if i == j or topology.has_pair(i, j) or not link_feasible(node_i, r_i, node_j, r_j, config):
        return Rejection(kind="infeasible")
    link = Link(i, r_i, j, r_j)
    states = _toggle_states(*query, link, link.pair)
    decliners = tuple(node_id for node_id, (before, after) in zip(link.pair, states) if not after < before)
    if decliners:
        return Rejection(kind="declined", declined_by=decliners)
    (before_a, after_a), (before_b, after_b) = states
    return Add(
        link=link,
        delta_a=_resolved_delta(before_a, after_a),
        delta_b=_resolved_delta(before_b, after_b),
    )


def is_pairwise_stable(topology: Topology, config: GameConfig) -> StabilityReport:
    """Full deviation scan: every severance incidence, every absent feasible pairing.

    Severances are reported by link, then endpoint; additions by pair, each
    with its best pairing. Raises ValueError when the scenario is invalid or a link cannot be placed (``_Evaluator``).
    """
    evaluator = _Evaluator(Scenario(topology.nodes, config), topology.links)
    base = evaluator.states()
    severance = sorted(
        ((move.initiator, move.link) for move in _severances(evaluator, base, evaluator.ids)),
        key=lambda incidence: (incidence[1], incidence[0]),
    )
    additions = [move.link for move in _additions(evaluator, base, sorted(evaluator.pairings))]
    return StabilityReport(
        stable=not severance and not additions,
        severance_violations=tuple(severance),
        addition_violations=tuple(additions),
    )


def best_response_dynamics(
    scenario: Scenario, seed: int = 0, max_moves: int = DEFAULT_MAX_MOVES
) -> tuple[Topology, DynamicsTrace]:
    """Run seeded best-response dynamics from the empty topology.

    Each step applies the first deviation of the scan: all severances before
    all additions. Seed 0 scans nodes and node pairs in ascending id order;
    any other seed applies a fixed pseudo-random permutation to the scan
    order, making order sensitivity measurable. Identical scenario and seed
    reproduce the identical trace. A run that stops at ``max_moves`` is
    reported as non-converged, never raised.

    The next move, its deltas and the costs depend only on the link set and
    the scan order, so a run that reaches an earlier link set again repeats
    the moves since then forever. It is completed to ``max_moves`` by
    repeating those steps, byte for byte what scanning them would give. A
    repeated topology hash is confirmed link by link before it counts.
    Raises ValueError when the scenario is invalid (``_Evaluator``).
    """
    evaluator = _Evaluator(scenario)
    node_order = list(evaluator.ids)
    pair_order = sorted(evaluator.pairings)
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(node_order)
        rng.shuffle(pair_order)

    steps: list[TraceStep] = []
    converged = False
    form, key = [], _canonical(())  # the links' fragments in tuple order (``_moved``), and their canonical form
    base = evaluator.states(key)
    reached = {links_digest(key): 0}  # topology hash -> moves made when last reached
    while len(steps) < max_moves:
        deviations = itertools.chain(
            _severances(evaluator, base, node_order),
            _additions(evaluator, base, pair_order),
        )
        move = next(deviations, None)
        if move is None:
            converged = True
            break
        evaluator.toggle(move.link)
        key = _moved(form, move)
        base = evaluator.states(key)
        digest = links_digest(key)
        steps.append(TraceStep(move=move, topology_hash=digest, costs=tuple((i, state[0]) for i, state in base.items())))
        start, reached[digest] = reached.get(digest), len(steps)
        if start is not None:
            net: collections.Counter[Link] = collections.Counter()
            for step in steps[start:]:
                net[step.move.link] += 1 if isinstance(step.move, Add) else -1
            if not any(net.values()):  # the same link set, not only the same 64-bit digest
                cycle, left = steps[start:], max_moves - len(steps)
                steps += itertools.islice(itertools.cycle(cycle), left)
                for step in cycle[: left % len(cycle)]:
                    evaluator.toggle(step.move.link)
                break
    topology = Topology(scenario.nodes, frozenset(evaluator.links.values()))
    return topology, DynamicsTrace(seed=seed, steps=tuple(steps), converged=converged)


def _moved(form: list[tuple[tuple[int, int, int, int], str]], move: Move) -> str:
    """Updates ``form``, a link set's ``model._fragment``s in tuple order, by ``move``; returns the set's canonical form."""
    if isinstance(move, Add):
        insort(form, _fragment(move.link))
    else:
        del form[bisect_left(form, (move.link.as_tuple(),))]
    return _canonical(form)


def replay_trace(scenario: Scenario, trace: DynamicsTrace) -> Topology:
    """Re-apply a trace's moves from the empty topology."""
    topology = Topology.empty(scenario.nodes)
    for step in trace.steps:
        if isinstance(step.move, Add):
            topology = topology.with_link(step.move.link)
        else:
            topology = topology.without_link(step.move.link)
    return topology


def _subset_masks(evaluator: _Evaluator, pair_order: list[tuple[int, int]]) -> tuple[list[tuple[int, ...]], list[bool]]:
    """Each subset's closed-neighbourhood masks by rank (bit k links ``pair_order[k]``), and whether it is closed.

    Closed means no absent pair joins two of its components: they are those of every
    pair. A subset's masks and components extend those without its lowest pair, and
    the empty subset's masks are those of ``evaluator``, which holds no links.
    """
    ranks = [(evaluator.rank[a], evaluator.rank[b]) for a, b in pair_order]
    nears = [tuple(evaluator.near)]
    components = nears[:]  # each node's component mask, by rank
    for subset in range(1, 1 << len(pair_order)):
        low = subset & -subset
        x, y = ranks[low.bit_length() - 1]
        near, component = list(nears[subset ^ low]), components[subset ^ low]
        near[x] |= 1 << y
        near[y] |= 1 << x
        nears.append(tuple(near))
        if component[x] != component[y]:
            joined = component[x] | component[y]
            component = tuple(joined if mask & joined else mask for mask in component)
        components.append(component)
    return nears, [component == components[-1] for component in components]


def brute_force_stable_set(scenario: Scenario, max_nodes: int = 6) -> set[Topology]:
    """Enumerate every feasible topology and keep the pairwise-stable ones.

    Only closed subsets S of feasible pairs are walked: otherwise an absent pair joins two components, which
    improves both ends. Parts do not depend on pairings: adding pair ``p`` gives its ends their parts at ``S | p``,
    severing it at ``S - p``, read on demand from the subset's masks. Certificates (``_join_certificates``) read
    them and bounds on the ends' link costs: S is skipped when an absent pair improves both ends at every pair of
    their combinations, and a pair that improves no pairing at one end is dropped. Each pairing choice of S is then
    checked exactly against every cut and the pairs left, priced per combination of a node's links in rows reused
    wherever the node, the move, its linked pairs and its parts before and after recur. Refuses scenarios over
    ``max_nodes``: masks grow as 2^pairs. Raises ValueError when the scenario is invalid (``_Evaluator``).
    """
    if len(scenario.nodes) > max_nodes:
        raise ValueError(f"scenario has {len(scenario.nodes)} nodes, cap is {max_nodes}")
    evaluator = _Evaluator(scenario)
    pairings = evaluator.pairings
    pair_order = sorted(pairings)
    nears, closed = _subset_masks(evaluator, pair_order)
    mine = {i: [k for k, pair in enumerate(pair_order) if i in pair] for i in scenario.ids}  # in peer order
    sides: dict[tuple[int, int], list[tuple[int, int, float]]] = {}  # (node, k): its end of pair k, per pairing
    for k, (a, b) in enumerate(pair_order):
        sides[a, k] = [(b, option.r_a, option.unit_a) for option in pairings[a, b]]
        sides[b, k] = [(a, option.r_b, option.unit_b) for option in pairings[a, b]]
    alpha, gamma, tolerance = scenario.config.alpha, scenario.config.gamma, evaluator.tolerance
    link_cost = functools.cache(lambda ends: _link_cost(alpha, _unit_sums(ends)))  # by a node's ends
    owned = {i: sum(1 << k for k in own) for i, own in mine.items()}  # i's linked pairs in S are ``S & owned[i]``
    held = lambda i, linked: [sides[i, k] for k in mine[i] if linked >> k & 1]  # i's end of each linked pair, per pairing
    bounds = functools.cache(lambda i, linked: _interface_bounds(alpha, held(i, linked)))
    parts = functools.cache(lambda subset, i: evaluator.masked_parts(nears[subset], i))  # by subset and node
    combos = functools.cache(lambda i, linked: [  # (pairing indices, ends) per pairing combination of i's linked pairs
        (tuple(j for j, _ in combo), tuple(end for _, end in combo))
        for combo in itertools.product(*map(enumerate, held(i, linked)))
    ])

    @functools.cache  # verdict rows by everything they read, shared across subsets
    def priced(i: int, k: int, linked: int, before_parts: Parts, after_parts: tuple) -> dict:
        row = {}
        for index, ends in combos(i, linked):
            before = _state(gamma, link_cost(ends), *before_parts)
            if k < 0:
                cuts = (_state(gamma, link_cost(ends[:at] + ends[at + 1 :]), *cut) for at, cut in enumerate(after_parts))
                row[index] = any(after < before for after in cuts)
            else:
                at = bisect_left(ends, (sides[i, k][0][0],))
                grown = (_state(gamma, link_cost((*ends[:at], end, *ends[at:])), *after_parts) for end in sides[i, k])
                row[index] = sum(1 << j for j, after in enumerate(grown) if after < before)
        return row

    @functools.cache  # by node, move and subset, for one call
    def verdicts(i: int, k: int, subset: int) -> dict[tuple[int, ...], int]:
        """By the pairings of i's links: a mask of absent k's improving pairings, or for k = -1 if a cut improves."""
        cuts = (parts(subset ^ 1 << cut, i) for cut in mine[i] if subset >> cut & 1)
        after = parts(subset | 1 << k, i) if k >= 0 else tuple(cuts)
        return priced(i, k, subset & owned[i], parts(subset, i), after)

    def blocks(k: int, subset: int, absent: list) -> bool:  # certificates: absent k improves both ends at every combination
        accepted = possible = -1  # k's pairings, by the certificates of the ends read so far
        for i in pair_order[k]:
            before, after = parts(subset, i), parts(subset | 1 << k, i)
            at = _join_certificates(alpha, gamma, tolerance, bounds(i, subset & owned[i]), before, after, sides[i, k])
            accepted, possible = accepted & at[0], possible & at[1]
            if not possible:
                return False
        if not accepted:  # the per-choice loop decides k
            absent.append(pair_order[k] + (k,))
        return bool(accepted)

    stable: set[Topology] = set()
    blockers = list(range(len(pair_order)))  # the pair that blocked most recently first
    for subset in itertools.compress(range(len(nears)), closed):
        absent = []  # (a, b, k) per absent pair k that the certificates leave open, within S
        blocker = next((k for k in blockers if not subset >> k & 1 and blocks(k, subset, absent)), None)
        if blocker is not None:
            blockers.insert(0, blockers.pop(blockers.index(blocker)))
            continue
        linked = [k for k in range(len(pair_order)) if subset >> k & 1]
        at = {i: [linked.index(k) for k in own if subset >> k & 1] for i, own in mine.items()}  # i's pairs in a choice
        for choice in itertools.product(*(range(len(pairings[pair_order[k]])) for k in linked)):
            combo = lambda i: tuple(map(choice.__getitem__, at[i]))  # the pairings of i's links, as rows key them
            if not any(verdicts(i, -1, subset)[combo(i)] for i in mine) and not any(
                verdicts(a, k, subset)[combo(a)] & verdicts(b, k, subset)[combo(b)] for a, b, k in absent
            ):
                options = [(pair_order[k], pairings[pair_order[k]][j]) for k, j in zip(linked, choice)]
                stable.add(Topology(scenario.nodes, frozenset(Link(a, o.r_a, b, o.r_b) for (a, b), o in options)))
    return stable
