"""Core domain types: radio interfaces, nodes, links, topologies, extended costs.

Units are SI throughout: meters for positions and distances, hertz for
frequencies, watts for powers, bits per second for bitrates. Antenna gains
are linear (dimensionless).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class IncomparableCostError(ArithmeticError):
    """Subtraction of two infinite costs; neither direction is an improvement."""


@dataclass(frozen=True, order=True)
class Cost:
    """Extended non-negative real with an explicit infinite element.

    Finite costs compare and add like ordinary reals. The infinite element
    absorbs addition and exceeds every finite value, which makes the ordering
    total. Signed differences come from :meth:`minus`; subtracting infinity
    from infinity is an error because no preference can be read off it.
    """

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("cost cannot be NaN")
        if self.value < 0:
            raise ValueError(f"cost must be non-negative, got {self.value}")

    @classmethod
    def finite(cls, value: float) -> Cost:
        if math.isinf(value):
            raise ValueError("finite cost cannot be infinite")
        return cls(float(value))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __add__(self, other: Cost | float) -> Cost:
        other_value = other.value if isinstance(other, Cost) else float(other)
        return Cost(self.value + other_value)

    def minus(self, other: Cost) -> float:
        """Signed difference ``self - other``; +/-inf when exactly one side is infinite."""
        if not self.is_finite and not other.is_finite:
            raise IncomparableCostError("infinite - infinite has no defined sign")
        return self.value - other.value


COST_INF = Cost(math.inf)
COST_ZERO = Cost(0.0)


@dataclass(frozen=True)
class InterfaceSpec:
    """One radio interface's physical and bandwidth parameters.

    ``rx_sensitivity_w`` is the minimum received power (watts) needed to
    decode a transmission; it must sit below the interface's own transmit
    budget so point-blank communication is always possible.
    """

    kind: str
    frequency_hz: float
    max_bitrate_bps: float
    max_tx_power_w: float
    rx_sensitivity_w: float
    antenna_gain: float = 1.0


@dataclass(frozen=True)
class Node:
    """An agent: position, ordered radio interfaces, class, and requirements.

    Interface identity is the positional index into ``interfaces``. Nodes with
    ``internet_connected=True`` have their own backbone uplink; the rest need
    relayed access through such nodes. ``energy_weight`` scales how much the
    node cares about transmit power relative to throughput.
    """

    id: int
    position: tuple[float, float]
    interfaces: tuple[InterfaceSpec, ...]
    min_required_bitrate_bps: float
    energy_weight: float = 1.0
    internet_connected: bool = False

    def interface(self, index: int) -> InterfaceSpec:
        if not 0 <= index < len(self.interfaces):
            raise ValueError(f"node {self.id} has no interface {index}")
        return self.interfaces[index]


def distance_between(a: Node, b: Node) -> float:
    """Euclidean distance in meters between two node positions."""
    return math.dist(a.position, b.position)


@dataclass(frozen=True, order=True)
class Link:
    """An undirected link with one chosen interface per endpoint.

    Stored canonically with ``node_a < node_b``; constructing with endpoints
    in either order yields the same value.
    """

    node_a: int
    iface_a: int
    node_b: int
    iface_b: int

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError(f"link endpoints must differ, got node {self.node_a} twice")
        if self.node_a > self.node_b:
            node_a, iface_a = self.node_a, self.iface_a
            object.__setattr__(self, "node_a", self.node_b)
            object.__setattr__(self, "iface_a", self.iface_b)
            object.__setattr__(self, "node_b", node_a)
            object.__setattr__(self, "iface_b", iface_a)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.node_a, self.node_b)

    def touches(self, node_id: int) -> bool:
        return node_id == self.node_a or node_id == self.node_b

    def interface_for(self, node_id: int) -> int:
        if node_id == self.node_a:
            return self.iface_a
        if node_id == self.node_b:
            return self.iface_b
        raise ValueError(f"node {node_id} is not an endpoint of {self}")

    def peer_of(self, node_id: int) -> int:
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"node {node_id} is not an endpoint of {self}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.node_a, self.iface_a, self.node_b, self.iface_b)


def links_digest(links: Iterable[Link]) -> str:
    """Stable hex digest of a link set, independent of iteration order."""
    canonical = json.dumps(sorted(link.as_tuple() for link in links))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class Topology:
    """An immutable link graph over a fixed node set.

    Mutation is modeled by producing a new topology (:meth:`with_link`,
    :meth:`without_link`), so values can be shared freely across threads.
    """

    nodes: tuple[Node, ...]
    links: frozenset[Link]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id)))
        object.__setattr__(self, "links", frozenset(self.links))

    @classmethod
    def empty(cls, nodes: Iterable[Node]) -> Topology:
        return cls(tuple(nodes), frozenset())

    @cached_property
    def node_map(self) -> dict[int, Node]:
        return {node.id: node for node in self.nodes}

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        neighbors: dict[int, list[int]] = {node.id: [] for node in self.nodes}
        for link in self.links:
            neighbors[link.node_a].append(link.node_b)
            neighbors[link.node_b].append(link.node_a)
        return {nid: tuple(sorted(peers)) for nid, peers in neighbors.items()}

    @cached_property
    def linked_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(link.pair for link in self.links)

    def node(self, node_id: int) -> Node:
        try:
            return self.node_map[node_id]
        except KeyError:
            raise ValueError(f"unknown node id {node_id}") from None

    def degree(self, node_id: int) -> int:
        return len(self.adjacency.get(node_id, ()))

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        return self.adjacency.get(node_id, ())

    def links_of(self, node_id: int) -> tuple[Link, ...]:
        return tuple(sorted(link for link in self.links if link.touches(node_id)))

    def has_pair(self, a: int, b: int) -> bool:
        pair = (a, b) if a < b else (b, a)
        return pair in self.linked_pairs

    def with_link(self, link: Link) -> Topology:
        for endpoint, iface in ((link.node_a, link.iface_a), (link.node_b, link.iface_b)):
            node = self.node(endpoint)
            if not 0 <= iface < len(node.interfaces):
                raise ValueError(f"node {endpoint} has no interface {iface}")
        if self.has_pair(link.node_a, link.node_b):
            raise ValueError(f"pair {link.pair} already linked; one link per node pair")
        return Topology(self.nodes, self.links | {link})

    def without_link(self, link: Link) -> Topology:
        if link not in self.links:
            raise ValueError(f"{link} not present in topology")
        return Topology(self.nodes, self.links - {link})

    def canonical_hash(self) -> str:
        return links_digest(self.links)


@dataclass(frozen=True)
class GameConfig:
    """Global game parameters.

    ``gamma`` weights hop distance to internet-connected nodes (must be >= 1),
    ``alpha`` scales the per-interface congestion factor, ``h_max`` is the
    hard cap on tolerated hop distance between any pair, and
    ``path_loss_exponent`` is the propagation exponent (2.0 = free space).
    """

    gamma: float
    alpha: float = 1.0
    h_max: int = 5
    path_loss_exponent: float = 2.0


@dataclass(frozen=True)
class Scenario:
    """A node population together with its game configuration."""

    nodes: tuple[Node, ...]
    config: GameConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id)))

    @cached_property
    def node_map(self) -> dict[int, Node]:
        return {node.id: node for node in self.nodes}

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(node.id for node in self.nodes)

    @cached_property
    def ic_ids(self) -> tuple[int, ...]:
        return tuple(node.id for node in self.nodes if node.internet_connected)

    @cached_property
    def non_ic_ids(self) -> tuple[int, ...]:
        return tuple(node.id for node in self.nodes if not node.internet_connected)

    def node(self, node_id: int) -> Node:
        try:
            return self.node_map[node_id]
        except KeyError:
            raise ValueError(f"unknown node id {node_id}") from None


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant, with enough identity to locate it."""

    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


def _positive(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def validate_scenario(nodes: Iterable[Node], config: GameConfig) -> list[ValidationIssue]:
    """Check every type invariant; an empty report means the scenario is usable."""
    issues: list[ValidationIssue] = []

    if config.gamma is None or not isinstance(config.gamma, (int, float)) or not config.gamma >= 1:
        issues.append(ValidationIssue("config.gamma", f"must be >= 1, got {config.gamma!r}"))
    if not _positive(config.alpha):
        issues.append(ValidationIssue("config.alpha", f"must be positive, got {config.alpha!r}"))
    if not isinstance(config.h_max, int) or config.h_max < 1:
        issues.append(ValidationIssue("config.h_max", f"must be a positive integer, got {config.h_max!r}"))
    if not isinstance(config.path_loss_exponent, (int, float)) or not config.path_loss_exponent >= 2:
        issues.append(
            ValidationIssue("config.path_loss_exponent", f"must be >= 2, got {config.path_loss_exponent!r}")
        )

    node_list = list(nodes)
    if not node_list:
        issues.append(ValidationIssue("nodes", "scenario must contain at least one node"))

    seen_ids: set[int] = set()
    for node in node_list:
        where = f"node {node.id}"
        if node.id in seen_ids:
            issues.append(ValidationIssue(where, "duplicate node id"))
        seen_ids.add(node.id)
        if len(node.position) != 2 or not all(
            isinstance(c, (int, float)) and math.isfinite(c) for c in node.position
        ):
            issues.append(ValidationIssue(f"{where}.position", f"must be a finite (x, y) pair, got {node.position!r}"))
        if not node.interfaces:
            issues.append(ValidationIssue(f"{where}.interfaces", "must list at least one interface"))
        if not _positive(node.min_required_bitrate_bps):
            issues.append(
                ValidationIssue(
                    f"{where}.min_required_bitrate_bps",
                    f"must be positive, got {node.min_required_bitrate_bps!r}",
                )
            )
        if not _positive(node.energy_weight):
            issues.append(ValidationIssue(f"{where}.energy_weight", f"must be positive, got {node.energy_weight!r}"))
        for index, iface in enumerate(node.interfaces):
            iface_where = f"{where}.interfaces[{index}]"
            if not isinstance(iface.kind, str) or not iface.kind:
                issues.append(ValidationIssue(f"{iface_where}.kind", "must be a non-empty string"))
            for field_name in (
                "frequency_hz",
                "max_bitrate_bps",
                "max_tx_power_w",
                "rx_sensitivity_w",
                "antenna_gain",
            ):
                if not _positive(getattr(iface, field_name)):
                    issues.append(
                        ValidationIssue(
                            f"{iface_where}.{field_name}",
                            f"must be positive, got {getattr(iface, field_name)!r}",
                        )
                    )
            if _positive(iface.rx_sensitivity_w) and _positive(iface.max_tx_power_w):
                if not iface.rx_sensitivity_w < iface.max_tx_power_w:
                    issues.append(
                        ValidationIssue(
                            f"{iface_where}.rx_sensitivity_w",
                            "must be below max_tx_power_w (radio must hear itself at point-blank range)",
                        )
                    )
    return issues


def validate_topology(topology: Topology) -> list[ValidationIssue]:
    """Check link-graph invariants against the topology's own node set."""
    issues: list[ValidationIssue] = []
    seen_pairs: set[tuple[int, int]] = set()
    for link in sorted(topology.links):
        where = f"link {link.pair}"
        endpoints = []
        for node_id, iface in ((link.node_a, link.iface_a), (link.node_b, link.iface_b)):
            node = topology.node_map.get(node_id)
            if node is None:
                issues.append(ValidationIssue(where, f"references unknown node {node_id}"))
                continue
            if not 0 <= iface < len(node.interfaces):
                issues.append(ValidationIssue(where, f"node {node_id} has no interface {iface}"))
                continue
            endpoints.append(node.interfaces[iface])
        if len(endpoints) == 2:
            first, second = endpoints
            if first.kind != second.kind:
                issues.append(ValidationIssue(where, f"interface kinds differ: {first.kind!r} vs {second.kind!r}"))
            elif first.frequency_hz != second.frequency_hz:
                issues.append(
                    ValidationIssue(
                        where,
                        f"frequencies differ: {first.frequency_hz} Hz vs {second.frequency_hz} Hz",
                    )
                )
        if link.pair in seen_pairs:
            issues.append(ValidationIssue(where, "node pair linked more than once"))
        seen_pairs.add(link.pair)
    return issues
