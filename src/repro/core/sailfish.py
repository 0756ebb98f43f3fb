"""Sailfish: the full region-scale gateway system (§4, Fig. 10).

Assembles everything: XGW-H clusters (folded chips running the split
gateway program) fed by a VNI-steered balancer, an XGW-x86 fleet holding
the complete tables plus stateful services, the central controller that
places tenants and keeps tables consistent, and disaster recovery.

Also carries the region's *capacity model* used by the longitudinal
benchmarks: hardware loss is dominated by a tiny residual (micro-burst /
link-level) floor — calibrated to Fig. 19's 1e-11..1e-10 — because the
Tofino's headroom makes queueing loss essentially impossible at the
paper's operating point, while the x86 fleet's loss emerges from the
RSS/core model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.cluster import GatewayCluster
from ..cluster.ecmp import VniSteeredBalancer
from ..cluster.failover import DisasterRecovery
from ..cluster.health import HealthMonitor, Signal
from ..dataplane.gateway_logic import (
    DropReason,
    ForwardAction,
    ForwardResult,
    GatewayTables,
    count_drop,
)
from ..net.flow import FlowKey, rss_input, toeplitz_hash
from ..net.packet import Packet
from ..sim.rand import derive
from ..tables.snat import SnatTable
from ..telemetry.stats import CounterSet, loss_rate
from ..telemetry.timeseries import SeriesBundle
from ..workloads.topology import RegionTopology, generate_topology
from ..workloads.traffic import RegionTrafficGenerator, TrafficSample, inner_flow
from ..x86.gateway import XgwX86
from .controller import Controller, RouteEntry, VmEntry
from .splitting import ClusterCapacity, TableSplitter, TenantProfile
from .xgw_h import XgwH

#: Residual per-packet drop probability of a healthy XGW-H (Fig. 19).
HW_RESIDUAL_DROP_RATE = 3e-11


@dataclass(frozen=True)
class RegionSpec:
    """Parameters of a synthetic region."""

    num_vpcs: int = 20
    total_vms: int = 400
    nodes_per_cluster: int = 2
    x86_nodes: int = 2
    ipv6_fraction: float = 0.25
    peering_fraction: float = 0.3
    cluster_route_capacity: int = 100_000
    cluster_vm_capacity: int = 250_000
    cluster_traffic_bps: float = 2 * 3.2e12  # two folded XGW-H per cluster
    snat_public_ips: int = 4
    #: Offset of the tenant address plan; give each region of a
    #: multi-region deployment a distinct base for disjoint CIDRs.
    subnet_base_index: int = 0

    @classmethod
    def small(cls) -> "RegionSpec":
        """A laptop-scale region for tests and the quickstart."""
        return cls(num_vpcs=8, total_vms=64, nodes_per_cluster=2, x86_nodes=1)

    @classmethod
    def medium(cls) -> "RegionSpec":
        """A benchmark-scale region."""
        return cls(num_vpcs=60, total_vms=2_000, nodes_per_cluster=2, x86_nodes=2)


@dataclass
class ForwardingReport:
    """Aggregate outcome of a traffic sample through the region."""

    packets: int = 0
    hardware_packets: int = 0
    software_packets: int = 0
    delivered: int = 0
    uplinked: int = 0
    dropped: int = 0
    drop_details: Dict[str, int] = field(default_factory=dict)

    @property
    def software_ratio(self) -> float:
        """Fraction of packets that needed XGW-x86 (Fig. 22's metric)."""
        return self.software_packets / self.packets if self.packets else 0.0


class Sailfish:
    """The assembled region.

    >>> region = Sailfish.build(RegionSpec.small(), seed=7)
    >>> report = region.forward_sample(packets=200)
    >>> report.dropped
    0
    """

    def __init__(
        self,
        spec: RegionSpec,
        topology: RegionTopology,
        controller: Controller,
        balancer: VniSteeredBalancer,
        x86_fleet: List[XgwX86],
        recovery: DisasterRecovery,
        monitor: HealthMonitor,
        seed,
    ):
        self.spec = spec
        self.topology = topology
        self.controller = controller
        self.balancer = balancer
        self.x86_fleet = x86_fleet
        self.recovery = recovery
        self.monitor = monitor
        self.seed = seed
        self.counters = CounterSet()
        self.series = SeriesBundle()
        self._public_ip_owner: Dict[int, XgwX86] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, spec: RegionSpec, seed) -> "Sailfish":
        """Generate a topology and bring the whole region online."""
        topology = generate_topology(
            num_vpcs=spec.num_vpcs,
            total_vms=spec.total_vms,
            seed=seed,
            peering_fraction=spec.peering_fraction,
            ipv6_fraction=spec.ipv6_fraction,
            subnet_base_index=spec.subnet_base_index,
        )
        balancer = VniSteeredBalancer()
        splitter = TableSplitter(
            ClusterCapacity(
                routes=spec.cluster_route_capacity,
                vms=spec.cluster_vm_capacity,
                traffic_bps=spec.cluster_traffic_bps,
            )
        )
        controller = Controller(splitter, balancer)
        ip_counter = [0]

        def next_gateway_ip() -> int:
            ip_counter[0] += 1
            return (10 << 24) | (255 << 16) | ip_counter[0]

        def cluster_factory(cluster_id: str) -> GatewayCluster[XgwH]:
            nodes = [
                (f"{cluster_id}-gw{i}", XgwH(gateway_ip=next_gateway_ip()))
                for i in range(spec.nodes_per_cluster)
            ]
            backup_nodes = [
                (f"{cluster_id}-bk{i}", XgwH(gateway_ip=next_gateway_ip()))
                for i in range(spec.nodes_per_cluster)
            ]
            backup = GatewayCluster(f"{cluster_id}-backup", backup_nodes)
            return GatewayCluster(cluster_id, nodes, backup=backup)

        controller.set_cluster_factory(cluster_factory)

        # The x86 fleet holds the complete region tables + SNAT state.
        # Each box owns a disjoint public-IP slice so Internet responses
        # route back to the box holding the session.
        x86_fleet: List[XgwX86] = []
        public_ip_owner: Dict[int, XgwX86] = {}
        for i in range(spec.x86_nodes):
            tables = GatewayTables()
            owned_ips = [
                (203 << 24) | (113 << 8) | (i * spec.snat_public_ips + j + 1)
                for j in range(spec.snat_public_ips)
            ]
            snat = SnatTable(public_ips=owned_ips)
            box = XgwX86(gateway_ip=(10 << 24) | (254 << 16) | (i + 1),
                         tables=tables, snat=snat)
            x86_fleet.append(box)
            for ip_addr in owned_ips:
                public_ip_owner[ip_addr] = box

        # Onboard every tenant through the controller.
        rng = derive(seed, "tenant-traffic")
        for vni in topology.vnis():
            vpc = topology.vpcs[vni]
            routes = [
                RouteEntry(v, prefix, action) for v, prefix, action in topology.route_entries(vni)
            ]
            vms = [
                VmEntry(vm.vni, vm.ip, vm.version, vm.binding())
                for vm in topology.vm_entries(vni)
            ]
            profile = TenantProfile(
                vni=vni,
                routes=len(routes),
                vms=len(vms),
                traffic_bps=len(vms) * 1e9 * (0.5 + rng.random()),
            )
            controller.add_tenant(profile, routes, vms)
            for x86 in x86_fleet:
                for route in routes:
                    x86.tables.routing.insert(route.vni, route.prefix, route.action, replace=True)
                for vm in vms:
                    x86.tables.vm_nc.insert(vm.vni, vm.vm_ip, vm.version, vm.binding, replace=True)

        recovery = DisasterRecovery(
            balancer,
            controller.clusters,
            cold_standby=[XgwH(gateway_ip=next_gateway_ip())],
        )
        monitor = HealthMonitor()
        monitor.set_level(Signal.TABLE_WATER_LEVEL, threshold=0.85)
        monitor.set_level(Signal.PACKET_LOSS, threshold=1e-6, festival_threshold=1e-5)
        monitor.on_alert(recovery.alert_handler())
        region = cls(spec, topology, controller, balancer, x86_fleet, recovery, monitor, seed)
        region._public_ip_owner = public_ip_owner
        return region

    # -- data path ---------------------------------------------------------------

    def _pick_x86(self, flow_hash: int) -> XgwX86:
        """The x86 box serving a redirected flow, by its flow hash."""
        return self.x86_fleet[flow_hash % len(self.x86_fleet)]

    def forward(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """One packet through LB -> XGW-H cluster (-> XGW-x86 if needed).

        The per-packet oracle of :meth:`forward_batch`: every fabric
        traversal runs through the Tofino simulator.
        """
        self.counters.add("packets")
        if not packet.is_vxlan:
            # Internet-side return traffic is routed by its destination
            # public IP to the box that owns that SNAT slice.
            owner = self._public_ip_owner.get(packet.ip.dst)
            if owner is None:
                count_drop(self.counters, DropReason.NO_OWNER.value)
                return ForwardResult(ForwardAction.DROP, packet,
                                     detail=DropReason.NO_OWNER.value)
            self.counters.add("software_packets")
            return owner.forward_response(packet, now)
        vni = packet.vni
        cluster_id = self.balancer.cluster_for_vni(vni)
        src, dst, proto, sport, dport = packet.inner.five_tuple()
        flow = FlowKey(src, dst, proto, sport, dport, version=packet.inner_version)
        if cluster_id is None:
            self.counters.add(DropReason.UNASSIGNED_VNI.counter)
            return ForwardResult(ForwardAction.DROP, packet,
                                 detail=DropReason.UNASSIGNED_VNI.value)
        cluster = self.recovery.serving_cluster(cluster_id)
        result = cluster.forward(flow, packet)
        self.counters.add("hardware_packets")
        if result.action is ForwardAction.REDIRECT_X86:
            self.counters.add("software_packets")
            result = self._pick_x86(toeplitz_hash(flow.to_rss_input())).forward(packet, now)
        return result

    def forward_batch(self, packets: Sequence[Packet], now: float = 0.0) -> List[ForwardResult]:
        """A burst through the region: the columnar data path.

        Results and every side effect — region, cluster, member and x86
        counters, chip and pipe tallies, meters, SNAT sessions — equal
        ``[self.forward(p, now) for p in packets]`` (differentially
        tested). The serving cluster is looked up once per VNI and its
        active members once per cluster; each flow is hashed once, and
        that hash picks both the ECMP member and the x86 box of a
        redirected lane. Each member forwards its lanes in one
        :meth:`XgwH.forward_batch`; each x86 box then serves its
        redirected lanes and its Internet responses in lane order (SNAT
        state depends on it), requests in runs through
        :meth:`XgwX86.forward_batch`. A cluster with no active member
        raises :class:`ClusterError` before anything is forwarded.
        """
        n = len(packets)
        if not n:
            return []
        results: List[Optional[ForwardResult]] = [None] * n
        hashes = [0] * n
        # Stage: group lanes by owner — members for tenant traffic, x86
        # boxes for Internet responses.
        members: Dict[int, tuple] = {}
        response_box: Dict[int, XgwX86] = {}
        clusters: Dict[int, Optional[tuple]] = {}
        flow_hash: Dict[tuple, int] = {}
        owner_of = self._public_ip_owner.get
        no_owner = unassigned = 0
        for lane, packet in enumerate(packets):
            vxlan = packet.vxlan
            if vxlan is None:
                owner = owner_of(packet.ip.dst)
                if owner is None:
                    no_owner += 1
                    results[lane] = ForwardResult(ForwardAction.DROP, packet,
                                                  detail=DropReason.NO_OWNER.value)
                else:
                    response_box[lane] = owner
                continue
            vni = vxlan.vni
            serving = clusters.get(vni, False)
            if serving is False:
                serving = clusters[vni] = self._serving_members(vni)
            if serving is None:
                unassigned += 1
                results[lane] = ForwardResult(ForwardAction.DROP, packet,
                                              detail=DropReason.UNASSIGNED_VNI.value)
                continue
            cluster, pick = serving
            iip = packet.inner.ip
            l4 = packet.inner.l4
            flow = (iip.src, iip.dst,
                    l4.src_port if l4 is not None else 0,
                    l4.dst_port if l4 is not None else 0, iip.version)
            h = flow_hash.get(flow)
            if h is None:
                h = flow_hash[flow] = toeplitz_hash(rss_input(*flow))
            hashes[lane] = h
            member = pick(h)
            group = members.get(id(member))
            if group is None:
                group = members[id(member)] = (cluster, member.gateway, [], [])
            group[2].append(lane)
            group[3].append(packet)

        counters = self.counters
        counters.add("packets", n)
        if no_owner:
            counters.add(DropReason.NO_OWNER.counter, no_owner)
        if unassigned:
            counters.add(DropReason.UNASSIGNED_VNI.counter, unassigned)
        hardware = n - no_owner - unassigned - len(response_box)
        if hardware:
            counters.add("hardware_packets", hardware)

        # Stage: one XGW-H burst per member.
        redirected: List[int] = []
        for cluster, gateway, lanes, burst in members.values():
            cluster.packets += len(lanes)
            for lane, result in zip(lanes, gateway.forward_batch(burst)):
                results[lane] = result
                if result.action is ForwardAction.REDIRECT_X86:
                    redirected.append(lane)
        software = len(redirected) + len(response_box)
        if not software:
            return results
        counters.add("software_packets", software)

        # Stage: each x86 box serves its lanes in lane order.
        boxes: Dict[int, tuple] = {}
        for lane in sorted([*redirected, *response_box]):
            box = response_box.get(lane)
            if box is None:
                box = self._pick_x86(hashes[lane])
            work = boxes.get(id(box))
            if work is None:
                work = boxes[id(box)] = (box, [])
            work[1].append(lane)
        for box, lanes in boxes.values():
            for is_response, run in groupby(lanes, response_box.__contains__):
                if is_response:
                    for lane in run:
                        results[lane] = box.forward_response(packets[lane], now)
                    continue
                run = list(run)
                burst = [packets[lane] for lane in run]
                for lane, result in zip(run, box.forward_batch(burst, now)):
                    results[lane] = result
        return results

    def _serving_members(self, vni: int) -> Optional[tuple]:
        """``(cluster, member picker)`` serving *vni*, None when the VNI
        is unassigned."""
        cluster_id = self.balancer.cluster_for_vni(vni)
        if cluster_id is None:
            return None
        cluster = self.recovery.serving_cluster(cluster_id)
        return cluster, cluster.member_picker()

    def trace(self, packet: Packet, now: float = 0.0):
        """VTrace-style diagnostic forwarding: returns (result, PathTrace).

        Follows the same path as :meth:`forward` while recording every
        decision point — the balancer's VNI steering, the cluster and
        gateway chosen, each pipe the chip traversed, and the exact drop
        location if the packet died (§3.1's loss-diagnosis use case).
        """
        from ..telemetry.trace import PathTrace

        trace = PathTrace()
        if not packet.is_vxlan:
            owner = self._public_ip_owner.get(packet.ip.dst)
            if owner is None:
                trace.add("balancer", "region", "unknown public IP")
                trace.outcome = "drop"
                trace.drop_reason = DropReason.NO_OWNER.value
                return ForwardResult(ForwardAction.DROP, packet,
                                     DropReason.NO_OWNER.value), trace
            trace.add("x86", f"{owner.gateway_ip:#010x}", "snat-response")
            result = owner.forward_response(packet, now)
            trace.outcome = "drop" if result.action is ForwardAction.DROP else result.action.value
            trace.drop_reason = result.detail if result.action is ForwardAction.DROP else ""
            return result, trace

        vni = packet.vni
        cluster_id = self.balancer.cluster_for_vni(vni)
        if cluster_id is None:
            trace.add("balancer", "region", f"VNI {vni} unassigned")
            trace.outcome = "drop"
            trace.drop_reason = DropReason.UNASSIGNED_VNI.value
            return ForwardResult(ForwardAction.DROP, packet,
                                 DropReason.UNASSIGNED_VNI.value), trace
        trace.add("balancer", "region", f"VNI {vni} -> {cluster_id}")
        cluster = self.recovery.serving_cluster(cluster_id)
        src, dst, proto, sport, dport = packet.inner.five_tuple()
        flow = FlowKey(src, dst, proto, sport, dport, version=packet.inner_version)
        member = cluster.pick_member(flow)
        trace.add("cluster", cluster.cluster_id, f"flow-hash -> {member.name}")
        result, traversal = member.gateway.forward_traced(packet, now)
        for pipeline, gress in traversal.path:
            trace.add("pipe", f"{member.name}/pipeline{pipeline}", gress.value)
        if result.action is ForwardAction.REDIRECT_X86:
            box = self._pick_x86(toeplitz_hash(flow.to_rss_input()))
            trace.add("x86", f"{box.gateway_ip:#010x}", result.detail)
            result = box.forward(packet, now)
        trace.outcome = "drop" if result.action is ForwardAction.DROP else result.action.value
        trace.drop_reason = result.detail if result.action is ForwardAction.DROP else ""
        return result, trace

    def forward_sample(self, packets: int, generator: Optional[RegionTrafficGenerator] = None,
                       seed=None) -> ForwardingReport:
        """Generate *packets* and forward them as one burst through
        :meth:`forward_batch`, aggregating outcomes."""
        generator = generator or RegionTrafficGenerator(self.topology, seed or self.seed)
        report = ForwardingReport()
        hw_before = self.counters["hardware_packets"]
        sw_before = self.counters["software_packets"]
        burst = [sample.packet for sample in generator.packets(packets)]
        for result in self.forward_batch(burst):
            report.packets += 1
            if result.action is ForwardAction.DROP:
                report.dropped += 1
                report.drop_details[result.detail] = (
                    report.drop_details.get(result.detail, 0) + 1
                )
            elif result.action is ForwardAction.DELIVER_NC:
                report.delivered += 1
            else:
                report.uplinked += 1
        report.hardware_packets = self.counters["hardware_packets"] - hw_before
        report.software_packets = self.counters["software_packets"] - sw_before
        return report

    # -- capacity model (Figs. 19-22) ------------------------------------------------

    def hardware_capacity_pps(self, packet_bytes: int = 512) -> float:
        """Aggregate XGW-H forwarding budget across active main clusters."""
        total = 0.0
        for cluster_id in sorted(self.controller.clusters):
            cluster = self.recovery.serving_cluster(cluster_id)
            for member in cluster.active_members():
                total += member.gateway.chip.rate_at(packet_bytes).packet_rate_pps
        return total

    def expected_hw_loss(self, offered_pps: float, packet_bytes: int = 512) -> float:
        """Loss rate of the hardware path at *offered_pps*: queueing loss
        beyond capacity plus the residual floor."""
        capacity = self.hardware_capacity_pps(packet_bytes)
        overload = max(0.0, offered_pps - capacity) / offered_pps if offered_pps else 0.0
        return overload + HW_RESIDUAL_DROP_RATE

    def record_festival_sample(self, time_days: float, offered_pps: float) -> Tuple[float, float]:
        """Record one (rate, loss) sample into the region's time series."""
        loss = self.expected_hw_loss(offered_pps)
        self.series.record("offered_pps", time_days, offered_pps)
        self.series.record("loss_rate", time_days, loss)
        self.monitor.observe("region", Signal.PACKET_LOSS, loss, time_days)
        return offered_pps, loss
