"""Gateway clusters (§4.3): replicated nodes sharing one table shard.

"Within a cluster, multiple XGW-H devices maintain the same table
entries, share the traffic load and backup for each other." The cluster
replicates installs to every member (and its hot-standby backup cluster,
which keeps identical configuration), spreads flows over active members,
and absorbs single-node failures by re-spreading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Generic, List, Optional, Protocol, TypeVar

from ..net.flow import FlowKey, toeplitz_hash
from ..net.packet import Packet


class GatewayNode(Protocol):
    """What a cluster needs from a member gateway."""

    def forward(self, packet: Packet):  # pragma: no cover - protocol
        ...


G = TypeVar("G", bound=GatewayNode)


class NodeState(Enum):
    ACTIVE = "active"
    OFFLINE = "offline"


class ClusterError(Exception):
    """Raised on structural misuse (no active nodes, unknown member)."""


@dataclass
class Member(Generic[G]):
    """One gateway with its operational state and port health."""

    name: str
    gateway: G
    state: NodeState = NodeState.ACTIVE
    num_ports: int = 32
    isolated_ports: set = field(default_factory=set)

    @property
    def healthy_ports(self) -> int:
        return self.num_ports - len(self.isolated_ports)


class GatewayCluster(Generic[G]):
    """A cluster of identically configured gateways.

    >>> from repro.core.xgw_h import XgwH
    >>> cluster = GatewayCluster("A", [("gw0", XgwH(1)), ("gw1", XgwH(2))])
    >>> len(cluster.active_members())
    2
    """

    def __init__(self, cluster_id: str, nodes, backup: Optional["GatewayCluster[G]"] = None):
        self.cluster_id = cluster_id
        self._members: Dict[str, Member[G]] = {}
        for name, gateway in nodes:
            if name in self._members:
                raise ClusterError(f"duplicate node name {name}")
            self._members[name] = Member(name=name, gateway=gateway)
        if not self._members:
            raise ClusterError("a cluster needs at least one node")
        self.backup = backup
        self.packets = 0

    # -- membership ---------------------------------------------------------

    def members(self) -> List[Member[G]]:
        return [self._members[name] for name in sorted(self._members)]

    def active_members(self) -> List[Member[G]]:
        return [m for m in self.members() if m.state is NodeState.ACTIVE]

    def all_members(self, include_backup: bool = True) -> List[Member[G]]:
        """Members plus the hot backup's members (one level deep) — the
        full set that must hold identical tables."""
        out = self.members()
        if include_backup and self.backup is not None:
            out += self.backup.members()
        return out

    def find_member(self, name: str) -> Member[G]:
        """Look up a member by name, searching the hot backup too."""
        for member in self.all_members():
            if member.name == name:
                return member
        raise ClusterError(f"unknown node {name}")

    def member(self, name: str) -> Member[G]:
        try:
            return self._members[name]
        except KeyError:
            raise ClusterError(f"unknown node {name}") from None

    def take_offline(self, name: str) -> None:
        """Node-level failover: the rest of the cluster absorbs the load."""
        self.member(name).state = NodeState.OFFLINE

    def bring_online(self, name: str) -> None:
        self.member(name).state = NodeState.ACTIVE

    def add_node(self, name: str, gateway: G) -> None:
        """Attach a (cold-standby) gateway to the cluster."""
        if name in self._members:
            raise ClusterError(f"duplicate node name {name}")
        self._members[name] = Member(name=name, gateway=gateway)

    def isolate_port(self, name: str, port: int) -> None:
        """Port-level failover: migrate one jittery port's traffic away."""
        member = self.member(name)
        if not 0 <= port < member.num_ports:
            raise ClusterError(f"node {name} has no port {port}")
        member.isolated_ports.add(port)

    # -- table replication ----------------------------------------------------

    def for_each_gateway(self, apply_fn, include_backup: bool = True) -> None:
        """Run *apply_fn(gateway)* on every member (and the hot backup)."""
        for member in self.members():
            apply_fn(member.gateway)
        if include_backup and self.backup is not None:
            self.backup.for_each_gateway(apply_fn, include_backup=False)

    # -- data path --------------------------------------------------------------

    def member_picker(self) -> Callable[[int], Member[G]]:
        """ECMP over the members active now: maps a flow hash to the
        member that serves it. Raises when no member is active."""
        active = self.active_members()
        if not active:
            raise ClusterError(f"cluster {self.cluster_id} has no active nodes")
        return lambda flow_hash: active[flow_hash % len(active)]

    def pick_member(self, flow: FlowKey) -> Member[G]:
        """Flow-hash over active members (ECMP within the cluster)."""
        return self.member_picker()(toeplitz_hash(flow.to_rss_input()))

    def forward(self, flow: FlowKey, packet: Packet):
        """Steer one packet to a member and forward it."""
        self.packets += 1
        return self.pick_member(flow).gateway.forward(packet)

    def load_share(self) -> Dict[str, float]:
        """Fraction of flows each active member receives (uniform hash)."""
        active = self.active_members()
        if not active:
            return {}
        share = 1.0 / len(active)
        return {m.name: share for m in active}
