"""Physical substrate network: typed nodes, capacitated links, resource accounting.

The substrate is a connected undirected graph. Servers carry CPU/RAM
capacities, every link carries bandwidth. During a run, residual
capacities change only through :meth:`SubstrateNetwork.commit`, which
takes one placement step into a request's holding, and
:meth:`SubstrateNetwork.release`, which gives a holding back. Both are
atomic, so releasing a request's holding restores the exact
pre-placement state; both refuse a bad amount (below 0 or NaN in a
commit, not > 0 in a released holding) before anything moves, and both
keep the servers' emptiest-first order (`SubstrateNetwork.by_balance`)
and the least residual bandwidth of any link (`bw_floor`) up to date.
The only other writers are `add_node`/`add_link`, which set a new
residual, and the node views' `cap_cpu` setter, which re-keys the
order. A direct write to `cpu`, `ram` or `bw` leaves them stale.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import (AccountingError, CapacityError, ConfigurationError,
                     FieldError, check_fields, finite_number)

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


class SubstrateNode:
    """A node's identity; its capacities are views onto the network's
    per-node lists. cap_cpu's setter, the one view setter left, stays
    because `bench/test_bench.py` writes through it."""

    __slots__ = ("id", "kind", "dc_id", "_net")

    def __init__(self, net: "SubstrateNetwork", id: int, kind: NodeKind,
                 dc_id: int | None = None):
        self._net = net
        self.id = id
        self.kind = kind
        self.dc_id = dc_id

    @property
    def max_cpu(self) -> float:
        return self._net.max_cpu[self.id]

    @property
    def max_ram(self) -> float:
        return self._net.max_ram[self.id]

    @property
    def cap_cpu(self) -> float:
        return self._net.cpu[self.id]

    @cap_cpu.setter
    def cap_cpu(self, value: float) -> None:
        self._net.cpu[self.id] = float(value)
        self._net._rekey(self.id)

    @property
    def cap_ram(self) -> float:
        return self._net.ram[self.id]

    def __repr__(self) -> str:
        return (f"SubstrateNode(id={self.id}, kind={self.kind}, "
                f"dc_id={self.dc_id}, cap_cpu={self.cap_cpu}, "
                f"cap_ram={self.cap_ram})")


class SubstrateLink:
    """An undirected link; its bandwidth is a read-only view onto the
    network's per-link lists at `index`, its position in `links`."""

    __slots__ = ("index", "_net")

    def __init__(self, net: "SubstrateNetwork", index: int):
        self._net = net
        self.index = index

    @property
    def max_bw(self) -> float:
        return self._net.max_bw[self.index]

    @property
    def cap_bw(self) -> float:
        return self._net.bw[self.index]

    def __repr__(self) -> str:
        return f"SubstrateLink(index={self.index}, cap_bw={self.cap_bw})"


def _link_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class ResourceDelta:
    """What one request holds: per-node CPU/RAM and per-link bandwidth.

    It is the request's ledger entry. `SubstrateNetwork.commit` adds each
    placement step to it; `SubstrateNetwork.release` gives all of it back,
    restoring the substrate exactly.
    """

    def __init__(self):
        self.node_cpu: dict[int, float] = {}
        self.node_ram: dict[int, float] = {}
        self.link_bw: dict[tuple[int, int], float] = {}

    def is_empty(self) -> bool:
        return not (self.node_cpu or self.node_ram or self.link_bw)


class SubstrateNetwork:
    """Weighted undirected graph of data-center nodes and capacitated links.

    Every capacity is held once, in flat lists of Python numbers: cpu,
    ram, max_cpu and max_ram by node id, bw and max_bw by link index (the
    link's position in `links`). Node and link objects are views onto
    them. route_table maps a source to its unconstrained routing sweep,
    a read-only `placement.Routes` that every caller shares and that
    keeps the sweep's BFS tree and its closeness to every server;
    `placement.route_all` fills it on first use, and adding a node or
    link clears it.

    by_balance holds one entry (-balance, id, position in `servers`) per
    server, in ascending order: emptiest first, equal balances by id.
    `add_node` inserts a server's entry, and `commit`, `release` and the
    node views' `cap_cpu` setter re-key every server whose cpu or ram
    they change. Residuals change only through these, so writing `cpu`
    or `ram` directly leaves the order stale.

    bw_floor is kept the same way: it is `min(bw, default=inf)`, the
    least residual bandwidth of any link, which `placement.route_all`
    tests instead of scanning every link. `add_link` and `commit` lower
    it over the links they touch, and a `release` that returns bandwidth
    to a link at the floor recomputes it. Writing `bw` directly leaves it
    stale.
    """

    def __init__(self):
        self.nodes: list[SubstrateNode] = []
        self.links: dict[tuple[int, int], SubstrateLink] = {}
        # link_index[n][m]: index of the link between n and m, keyed in
        # ascending neighbour order
        self.link_index: list[dict[int, int]] = []
        self.servers: list[int] = []
        self.cpu: list[float] = []
        self.ram: list[float] = []
        self.max_cpu: list[float] = []
        self.max_ram: list[float] = []
        self.bw: list[float] = []
        self.max_bw: list[float] = []
        self.bw_floor = math.inf
        self.route_table: dict = {}     # source -> placement.Routes
        self.by_balance: list[tuple[float, int, int]] = []
        # a server's current entry in by_balance, by node id
        self._balance_key: dict[int, tuple[float, int, int]] = {}

    # -- construction -------------------------------------------------

    def add_node(self, kind: NodeKind, dc_id: int | None = None,
                 max_cpu: float = 0.0, max_ram: float = 0.0) -> int:
        if kind is not NodeKind.SERVER and (max_cpu or max_ram):
            raise ConfigurationError("only servers may carry CPU/RAM capacity")
        if kind is NodeKind.SERVER:
            for name, value in (("max_cpu", max_cpu), ("max_ram", max_ram)):
                if not (finite_number(value) and value > 0):
                    raise ConfigurationError(
                        f"add_node.{name}: a server's capacity must be a "
                        f"finite number > 0, got {value!r}")
        node = SubstrateNode(self, len(self.nodes), kind, dc_id)
        self.nodes.append(node)
        self.link_index.append({})
        for record, value in ((self.max_cpu, max_cpu), (self.cpu, max_cpu),
                              (self.max_ram, max_ram), (self.ram, max_ram)):
            record.append(value)
        if kind is NodeKind.SERVER:
            key = (-self.balance(node.id), node.id, len(self.servers))
            self.servers.append(node.id)
            self._balance_key[node.id] = key
            insort(self.by_balance, key)
        self.route_table.clear()
        return node.id

    def add_link(self, a: int, b: int, max_bw: float) -> None:
        if a == b:
            raise ConfigurationError("self-loops are not allowed")
        key = _link_key(a, b)
        if key in self.links:
            raise ConfigurationError(f"duplicate link {key}")
        index = len(self.bw)
        self.links[key] = SubstrateLink(self, index)
        self.max_bw.append(max_bw)
        self.bw.append(max_bw)
        if max_bw < self.bw_floor:
            self.bw_floor = max_bw
        for n, m in ((a, b), (b, a)):
            self.link_index[n][m] = index
            self.link_index[n] = dict(sorted(self.link_index[n].items()))
        self.route_table.clear()

    # -- lookups ------------------------------------------------------

    def balance(self, n: int) -> float:
        """Server n's residual cpu and ram fractions summed: the placement
        step's delta_b, 2.0 on an empty server."""
        return self.cpu[n] / self.max_cpu[n] + self.ram[n] / self.max_ram[n]

    def max_outgoing_bw(self, n: int) -> float:
        return sum(self.max_bw[k] for k in self.link_index[n].values())

    def total_capacity(self, resource: str) -> float:
        """Total installed capacity of one resource across the substrate."""
        if resource == "cpu":
            return sum(self.max_cpu)
        if resource == "ram":
            return sum(self.max_ram)
        if resource == "bw":
            return sum(self.max_bw)
        raise KeyError(f"unknown resource {resource!r}")

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.link_index[u]:
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

    def commit(self, held: ResourceDelta, node: int, cpu: float, ram: float,
               path: tuple = (), bw: float = 0.0) -> None:
        """Take one step into a request's holding: cpu and ram on node, bw
        on every link of path (a route, so no link twice).

        Every amount is checked first: one below 0 or NaN, a shortfall, or
        a pair on path with no link raises CapacityError with nothing
        taken. held gains the amounts under the node id and the link keys;
        a zero adds no entry.
        """
        bws, link_index = self.bw, self.link_index
        if not (cpu >= 0 and ram >= 0 and bw >= 0):
            raise CapacityError(f"node {node}: commit amounts must be >= 0, "
                                f"got cpu {cpu}, ram {ram}, bw {bw}")
        if cpu > self.cpu[node] + _EPS:
            raise CapacityError(
                f"node {node}: cpu commit {cpu} exceeds residual {self.cpu[node]}")
        if ram > self.ram[node] + _EPS:
            raise CapacityError(
                f"node {node}: ram commit {ram} exceeds residual {self.ram[node]}")
        # every later hop starts at a node that the one before found
        if len(path) > 1 and not 0 <= path[0] < len(link_index):
            raise CapacityError(f"no link {_link_key(path[0], path[1])}")
        hops = []
        for a, b in zip(path, path[1:]):
            i = link_index[a].get(b)
            if i is None:
                raise CapacityError(f"no link {_link_key(a, b)}")
            if bw > bws[i] + _EPS:
                raise CapacityError(
                    f"link {_link_key(a, b)}: bw commit {bw} exceeds "
                    f"residual {bws[i]}")
            hops.append(((a, b) if a < b else (b, a), i))
        if cpu:
            self.cpu[node] -= cpu
            held.node_cpu[node] = held.node_cpu.get(node, 0.0) + cpu
        if ram:
            self.ram[node] -= ram
            held.node_ram[node] = held.node_ram.get(node, 0.0) + ram
        if cpu or ram:
            self._rekey(node)
        if bw:
            link_bw, floor = held.link_bw, self.bw_floor
            for key, i in hops:
                bws[i] -= bw
                link_bw[key] = link_bw.get(key, 0.0) + bw
                if bws[i] < floor:
                    floor = bws[i]
            self.bw_floor = floor

    def release(self, delta: ResourceDelta) -> None:
        """Give a request's holding back; raises AccountingError with
        nothing returned if an amount is not > 0 or a residual would
        exceed its maximum."""
        cpu, ram, bw, link_index = self.cpu, self.ram, self.bw, self.link_index
        for n, d in delta.node_cpu.items():
            if not d > 0:
                raise AccountingError(f"node {n}: cpu release {d} is not > 0")
            if cpu[n] + d > self.max_cpu[n] + _EPS:
                raise AccountingError(
                    f"node {n}: cpu release {d} would exceed max {self.max_cpu[n]}")
        for n, d in delta.node_ram.items():
            if not d > 0:
                raise AccountingError(f"node {n}: ram release {d} is not > 0")
            if ram[n] + d > self.max_ram[n] + _EPS:
                raise AccountingError(
                    f"node {n}: ram release {d} would exceed max {self.max_ram[n]}")
        hops = []
        for key, d in delta.link_bw.items():
            a, b = key
            i = link_index[a].get(b) if 0 <= a < b < len(link_index) else None
            if i is None:
                raise AccountingError(f"no link {key}")
            if not d > 0:
                raise AccountingError(f"link {key}: bw release {d} is not > 0")
            if bw[i] + d > self.max_bw[i] + _EPS:
                raise AccountingError(
                    f"link {key}: bw release {d} would exceed max {self.max_bw[i]}")
            hops.append((i, d))
        for n, d in delta.node_cpu.items():
            cpu[n] += d
        for n, d in delta.node_ram.items():
            ram[n] += d
        for n in delta.node_cpu.keys() | delta.node_ram.keys():
            self._rekey(n)
        # the floor can move only if a link at it gets bandwidth back
        floor, stale = self.bw_floor, False
        for i, d in hops:
            stale = stale or bw[i] <= floor
            bw[i] += d
        if stale:
            self.bw_floor = min(bw)

    def _rekey(self, n: int) -> None:
        """Move server n to its place in by_balance after its cpu or ram
        changed; a node that is not a server has no place."""
        old = self._balance_key.get(n)
        if old is None:
            return
        new = (-self.balance(n), n, old[2])
        if new != old:
            order = self.by_balance
            del order[bisect_left(order, old)]
            insort(order, new)
            self._balance_key[n] = new

    # -- state handling -------------------------------------------------

    def residuals(self) -> dict:
        """A copy of the residuals: cpu and ram by node id, bw by link key."""
        return {
            "cpu": list(self.cpu),
            "ram": list(self.ram),
            "bw": dict(zip(self.links, self.bw)),
        }

    def fingerprint(self) -> str:
        """Hash of the immutable topology (wiring and maximum capacities)."""
        h = hashlib.sha256()
        for n in self.nodes:
            h.update(f"{n.id}:{n.kind.value}:{n.dc_id}:{n.max_cpu}:{n.max_ram};".encode())
        for key in sorted(self.links):
            h.update(f"{key}:{self.links[key].max_bw};".encode())
        return h.hexdigest()


# The builder makes every node a count asks for, at about 7 µs a node
# (80,000 nodes in 0.58 s), so a count read from a scenario file could
# otherwise ask for days of building. 10,000 nodes is 68 times the full
# profile's 147 and builds in well under a second.
MAX_NODES = 10_000


def _node_count(edc_count=0, servers_per_edc=0, cdc_count=0,
                servers_per_cdc=0, ccp_servers=0) -> int:
    """The servers plus one switch per data centre, as the builder makes
    them."""
    return (edc_count * (servers_per_edc + 1)
            + cdc_count * (servers_per_cdc + 1)
            + (ccp_servers + 1 if ccp_servers else 0))


@dataclass
class TopologyCounts:
    """Explicit sizing for the reference three-tier layout, of at most
    MAX_NODES nodes."""
    edc_count: int
    servers_per_edc: int
    cdc_count: int = 0
    servers_per_cdc: int = 0
    ccp_servers: int = 0
    server_cpu: float = SERVER_CPU
    server_ram: float = SERVER_RAM

    def __post_init__(self):
        check_fields(self)
        for name in ("server_cpu", "server_ram"):
            if getattr(self, name) <= 0:
                raise FieldError(self, name, "must be > 0")
        # checked before anything is built; names the first count, in
        # field order, that takes the node count past the bound
        counts = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.type == "int"}
        given = {}
        for name, value in counts.items():
            given[name] = value
            if _node_count(**given) > MAX_NODES:
                raise FieldError(
                    self, name, f"the counts make {_node_count(**counts)} "
                    f"nodes, more than the {MAX_NODES} a topology may have")


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
    if counts.edc_count == 0 and counts.cdc_count == 0 and counts.ccp_servers == 0:
        raise ConfigurationError("topology has no data centers")

    net = SubstrateNetwork()
    dc_id = 0
    edc_switches: list[int] = []
    cdc_switches: list[int] = []
    ccp_switch: int | None = None

    # dc ids number the EDCs, then the CDCs, then the CCP
    def add_dc(n_servers: int, intra_bw: float) -> int:
        nonlocal dc_id
        servers = [net.add_node(NodeKind.SERVER, dc_id,
                                counts.server_cpu, counts.server_ram)
                   for _ in range(n_servers)]
        switch = net.add_node(NodeKind.SWITCH, dc_id)
        for s in servers:
            net.add_link(s, switch, intra_bw)
        dc_id += 1
        return switch

    for _ in range(counts.edc_count):
        edc_switches.append(add_dc(counts.servers_per_edc, EDC_INTRA_BW))
    for _ in range(counts.cdc_count):
        cdc_switches.append(add_dc(counts.servers_per_cdc, CDC_INTRA_BW))
    if counts.ccp_servers > 0:
        ccp_switch = add_dc(counts.ccp_servers, CCP_INTRA_BW)

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
