"""Physical substrate network: typed nodes, capacitated links, resource accounting.

The substrate is a connected undirected graph. Servers carry CPU/RAM
capacities, every link carries bandwidth. Residual capacities are mutated
only through :meth:`SubstrateNetwork.commit` and
:meth:`SubstrateNetwork.release`, which are atomic and inverse of each
other, so a simulation can always restore the exact pre-placement state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AccountingError, CapacityError, ConfigurationError

_EPS = 1e-9

SERVER_CPU = 50.0
SERVER_RAM = 300.0

EDC_INTRA_BW = 10.0
CDC_INTRA_BW = 100.0
CCP_INTRA_BW = 100.0
EDC_TRANSPORT_BW = 10.0
CDC_TRANSPORT_BW = 100.0


class NodeKind(Enum):
    SWITCH = "switch"
    SERVER = "server"


@dataclass
class SubstrateNode:
    id: int
    kind: NodeKind
    dc_id: int | None = None
    max_cpu: float = 0.0
    max_ram: float = 0.0
    cap_cpu: float = 0.0
    cap_ram: float = 0.0


@dataclass
class SubstrateLink:
    a: int
    b: int
    max_bw: float
    cap_bw: float


@dataclass
class DataCenter:
    id: int
    tier: str  # "edc" | "cdc" | "ccp"
    switch: int
    servers: list[int] = field(default_factory=list)


def _link_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class ResourceDelta:
    """A set of per-node CPU/RAM and per-link bandwidth decrements.

    Also serves as the per-slice ledger entry: committing a delta at
    placement time and releasing the same delta at departure restores the
    substrate exactly.
    """

    def __init__(self):
        self.node_cpu: dict[int, float] = {}
        self.node_ram: dict[int, float] = {}
        self.link_bw: dict[tuple[int, int], float] = {}

    def add_node(self, node: int, cpu: float = 0.0, ram: float = 0.0) -> None:
        if cpu:
            self.node_cpu[node] = self.node_cpu.get(node, 0.0) + cpu
        if ram:
            self.node_ram[node] = self.node_ram.get(node, 0.0) + ram

    def add_link(self, a: int, b: int, bw: float) -> None:
        if bw:
            key = _link_key(a, b)
            self.link_bw[key] = self.link_bw.get(key, 0.0) + bw

    def merge(self, other: "ResourceDelta") -> None:
        for n, v in other.node_cpu.items():
            self.node_cpu[n] = self.node_cpu.get(n, 0.0) + v
        for n, v in other.node_ram.items():
            self.node_ram[n] = self.node_ram.get(n, 0.0) + v
        for k, v in other.link_bw.items():
            self.link_bw[k] = self.link_bw.get(k, 0.0) + v

    def is_empty(self) -> bool:
        return not (self.node_cpu or self.node_ram or self.link_bw)

    def to_dict(self) -> dict:
        return {
            "node_cpu": {str(k): v for k, v in self.node_cpu.items()},
            "node_ram": {str(k): v for k, v in self.node_ram.items()},
            "link_bw": {f"{a},{b}": v for (a, b), v in self.link_bw.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceDelta":
        delta = cls()
        delta.node_cpu = {int(k): v for k, v in d["node_cpu"].items()}
        delta.node_ram = {int(k): v for k, v in d["node_ram"].items()}
        for key, v in d["link_bw"].items():
            a, b = key.split(",")
            delta.link_bw[(int(a), int(b))] = v
        return delta


class SubstrateNetwork:
    """Weighted undirected graph of data-center nodes and capacitated links."""

    def __init__(self):
        self.nodes: list[SubstrateNode] = []
        self.links: dict[tuple[int, int], SubstrateLink] = {}
        self.adjacency: list[list[int]] = []
        self.data_centers: dict[int, DataCenter] = {}
        self.servers: list[int] = []

    # -- construction -------------------------------------------------

    def add_node(self, kind: NodeKind, dc_id: int | None = None,
                 max_cpu: float = 0.0, max_ram: float = 0.0) -> int:
        if kind is not NodeKind.SERVER and (max_cpu or max_ram):
            raise ConfigurationError("only servers may carry CPU/RAM capacity")
        node = SubstrateNode(id=len(self.nodes), kind=kind, dc_id=dc_id,
                             max_cpu=max_cpu, max_ram=max_ram,
                             cap_cpu=max_cpu, cap_ram=max_ram)
        self.nodes.append(node)
        self.adjacency.append([])
        if kind is NodeKind.SERVER:
            self.servers.append(node.id)
        return node.id

    def add_link(self, a: int, b: int, max_bw: float) -> None:
        if a == b:
            raise ConfigurationError("self-loops are not allowed")
        key = _link_key(a, b)
        if key in self.links:
            raise ConfigurationError(f"duplicate link {key}")
        self.links[key] = SubstrateLink(key[0], key[1], max_bw, max_bw)
        self.adjacency[a].append(b)
        self.adjacency[b].append(a)
        self.adjacency[a].sort()
        self.adjacency[b].sort()

    # -- lookups ------------------------------------------------------

    def link(self, a: int, b: int) -> SubstrateLink:
        return self.links[_link_key(a, b)]

    def outgoing_bw(self, n: int) -> float:
        """Sum of residual bandwidth over all links incident to node n."""
        if not 0 <= n < len(self.nodes):
            raise KeyError(f"unknown node id {n}")
        return sum(self.links[_link_key(n, m)].cap_bw for m in self.adjacency[n])

    def max_outgoing_bw(self, n: int) -> float:
        return sum(self.links[_link_key(n, m)].max_bw for m in self.adjacency[n])

    def total_capacity(self, resource: str) -> float:
        """Total installed capacity of one resource across the substrate."""
        if resource == "cpu":
            return sum(n.max_cpu for n in self.nodes)
        if resource == "ram":
            return sum(n.max_ram for n in self.nodes)
        if resource == "bw":
            return sum(l.max_bw for l in self.links.values())
        raise KeyError(f"unknown resource {resource!r}")

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self.nodes)

    def adjacency_matrix(self) -> np.ndarray:
        n = len(self.nodes)
        adj = np.zeros((n, n), dtype=np.float64)
        for (a, b) in self.links:
            adj[a, b] = adj[b, a] = 1.0
        return adj

    # -- resource accounting -------------------------------------------

    def commit(self, delta: ResourceDelta) -> None:
        """Atomically decrement residuals; raises CapacityError untouched on any shortfall."""
        for n, d in delta.node_cpu.items():
            if d > self.nodes[n].cap_cpu + _EPS:
                raise CapacityError(
                    f"node {n}: cpu commit {d} exceeds residual {self.nodes[n].cap_cpu}")
        for n, d in delta.node_ram.items():
            if d > self.nodes[n].cap_ram + _EPS:
                raise CapacityError(
                    f"node {n}: ram commit {d} exceeds residual {self.nodes[n].cap_ram}")
        for key, d in delta.link_bw.items():
            if key not in self.links:
                raise CapacityError(f"no link {key}")
            if d > self.links[key].cap_bw + _EPS:
                raise CapacityError(
                    f"link {key}: bw commit {d} exceeds residual {self.links[key].cap_bw}")
        for n, d in delta.node_cpu.items():
            self.nodes[n].cap_cpu -= d
        for n, d in delta.node_ram.items():
            self.nodes[n].cap_ram -= d
        for key, d in delta.link_bw.items():
            self.links[key].cap_bw -= d

    def release(self, delta: ResourceDelta) -> None:
        """Inverse of commit; raises AccountingError untouched if a residual would exceed its maximum."""
        for n, d in delta.node_cpu.items():
            if self.nodes[n].cap_cpu + d > self.nodes[n].max_cpu + _EPS:
                raise AccountingError(
                    f"node {n}: cpu release {d} would exceed max {self.nodes[n].max_cpu}")
        for n, d in delta.node_ram.items():
            if self.nodes[n].cap_ram + d > self.nodes[n].max_ram + _EPS:
                raise AccountingError(
                    f"node {n}: ram release {d} would exceed max {self.nodes[n].max_ram}")
        for key, d in delta.link_bw.items():
            if key not in self.links:
                raise AccountingError(f"no link {key}")
            if self.links[key].cap_bw + d > self.links[key].max_bw + _EPS:
                raise AccountingError(
                    f"link {key}: bw release {d} would exceed max {self.links[key].max_bw}")
        for n, d in delta.node_cpu.items():
            self.nodes[n].cap_cpu += d
        for n, d in delta.node_ram.items():
            self.nodes[n].cap_ram += d
        for key, d in delta.link_bw.items():
            self.links[key].cap_bw += d

    # -- state handling -------------------------------------------------

    def residuals(self) -> dict:
        return {
            "cpu": [n.cap_cpu for n in self.nodes],
            "ram": [n.cap_ram for n in self.nodes],
            "bw": {k: l.cap_bw for k, l in self.links.items()},
        }

    def set_residuals(self, state: dict) -> None:
        for n, v in zip(self.nodes, state["cpu"]):
            n.cap_cpu = v
        for n, v in zip(self.nodes, state["ram"]):
            n.cap_ram = v
        for k, v in state["bw"].items():
            self.links[k].cap_bw = v

    def fingerprint(self) -> str:
        """Hash of the immutable topology (wiring and maximum capacities)."""
        h = hashlib.sha256()
        for n in self.nodes:
            h.update(f"{n.id}:{n.kind.value}:{n.dc_id}:{n.max_cpu}:{n.max_ram};".encode())
        for key in sorted(self.links):
            l = self.links[key]
            h.update(f"{key}:{l.max_bw};".encode())
        return h.hexdigest()


@dataclass
class TopologyCounts:
    """Explicit sizing for the reference three-tier layout."""
    edc_count: int
    servers_per_edc: int
    cdc_count: int = 0
    servers_per_cdc: int = 0
    ccp_servers: int = 0
    server_cpu: float = SERVER_CPU
    server_ram: float = SERVER_RAM


PROFILES = {
    "full": TopologyCounts(edc_count=15, servers_per_edc=4,
                           cdc_count=5, servers_per_cdc=10, ccp_servers=16),
    "small": TopologyCounts(edc_count=2, servers_per_edc=2,
                            cdc_count=1, servers_per_cdc=4, ccp_servers=0),
    "tiny": TopologyCounts(edc_count=1, servers_per_edc=3),
}


def _wire_ring(net: "SubstrateNetwork", switches: list[int], bw: float) -> None:
    """Cycle through the switches; a pair gets one link, a single none."""
    if len(switches) == 2:
        net.add_link(switches[0], switches[1], bw)
    elif len(switches) >= 3:
        for i, sw in enumerate(switches):
            net.add_link(sw, switches[(i + 1) % len(switches)], bw)


def build_reference_topology(scale: str | TopologyCounts = "full") -> SubstrateNetwork:
    """Build the three-tier EDC/CDC/CCP substrate.

    Each data center is a star: its servers hang off one switch, and the
    switch carries the DC's transport links. EDC switches attach to CDC
    switches (three EDCs per CDC at full scale), CDC switches form a ring,
    and each CDC switch links to the CCP switch.

    scale is a named profile ("full", "small", "tiny") or explicit
    TopologyCounts.
    """
    if isinstance(scale, str):
        try:
            counts = PROFILES[scale]
        except KeyError:
            raise ConfigurationError(
                f"unknown topology profile {scale!r}; expected one of {sorted(PROFILES)}")
    elif isinstance(scale, TopologyCounts):
        counts = scale
    else:
        raise ConfigurationError(f"invalid topology scale {scale!r}")
    if counts.edc_count < 0 or counts.cdc_count < 0 or counts.ccp_servers < 0:
        raise ConfigurationError("topology counts must be non-negative")
    if counts.edc_count == 0 and counts.cdc_count == 0 and counts.ccp_servers == 0:
        raise ConfigurationError("topology has no data centers")

    net = SubstrateNetwork()
    dc_id = 0
    edc_switches: list[int] = []
    cdc_switches: list[int] = []
    ccp_switch: int | None = None

    def add_dc(tier: str, n_servers: int, intra_bw: float) -> int:
        nonlocal dc_id
        this_id = dc_id
        dc_id += 1
        servers = [net.add_node(NodeKind.SERVER, this_id,
                                counts.server_cpu, counts.server_ram)
                   for _ in range(n_servers)]
        switch = net.add_node(NodeKind.SWITCH, this_id)
        for s in servers:
            net.add_link(s, switch, intra_bw)
        net.data_centers[this_id] = DataCenter(this_id, tier, switch, servers)
        return switch

    for _ in range(counts.edc_count):
        edc_switches.append(add_dc("edc", counts.servers_per_edc, EDC_INTRA_BW))
    for _ in range(counts.cdc_count):
        cdc_switches.append(add_dc("cdc", counts.servers_per_cdc, CDC_INTRA_BW))
    if counts.ccp_servers > 0:
        ccp_switch = add_dc("ccp", counts.ccp_servers, CCP_INTRA_BW)

    # EDC e attaches to CDC e//3; profiles with fewer CDCs wrap around.
    if cdc_switches:
        for e, esw in enumerate(edc_switches):
            c = (e // 3) % len(cdc_switches)
            net.add_link(esw, cdc_switches[c], EDC_TRANSPORT_BW)
    elif ccp_switch is not None:
        for esw in edc_switches:
            net.add_link(esw, ccp_switch, EDC_TRANSPORT_BW)
    elif len(edc_switches) > 1:
        _wire_ring(net, edc_switches, EDC_TRANSPORT_BW)

    _wire_ring(net, cdc_switches, CDC_TRANSPORT_BW)
    if ccp_switch is not None:
        for csw in cdc_switches:
            net.add_link(csw, ccp_switch, CDC_TRANSPORT_BW)

    assert net.is_connected(), "reference builder produced a disconnected graph"
    return net
