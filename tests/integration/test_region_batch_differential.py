"""Differential property test: the region batch path vs the per-packet region.

Two identically built regions (twins) take the same bursts: one through
:meth:`Sailfish.forward_batch`, the other packet by packet through
:meth:`Sailfish.forward`, the Tofino-simulator oracle. After every burst
the per-lane outcomes must be identical, and so must every side effect:
the region counters, each cluster's packet count, each member's stats,
drop counters and chip/per-pipe tallies, and each x86 box's counters and
SNAT session table.

Bursts mix IPv4 and IPv6 tenants, same- and peer-VPC flows (including
peerings split across clusters), SNAT-bound Internet flows, unassigned
VNIs, stray and unowned Internet responses, and responses to SNAT
sessions opened earlier in the same burst. Regions run with a member
offline, a cluster failed over to its hot backup, and a redirect-path
rate limit that turns some SERVICE lanes red.

The per-packet twin builds each burst as it forwards it: a response is
spliced in a few lanes after the SNAT request whose public IP/port it
answers, as the twin just allocated them. The batched twin then takes
the finished burst in one call.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterError
from repro.core.sailfish import RegionSpec, Sailfish
from repro.dataplane.gateway_logic import ForwardAction
from repro.net.headers import ETHERTYPE_IPV4, Ethernet, IPv4, PROTO_UDP, UDP
from repro.net.packet import Packet
from repro.workloads.traffic import RegionTrafficGenerator, build_vxlan_packet

#: Three clusters of three members, two x86 boxes, IPv6 subnets, and
#: peerings that cross clusters (seed 3).
SPEC = RegionSpec(num_vpcs=8, total_vms=64, nodes_per_cluster=3, x86_nodes=2,
                  ipv6_fraction=0.4, cluster_route_capacity=20)
SEED = 3
UNASSIGNED_VNI = 0xABCDE
REMOTE_IP = (198 << 24) | (18 << 16) | 7
UNOWNED_IP = (192 << 24) | (0 << 16) | (2 << 8) | 9


def build_region(config) -> Sailfish:
    offline, failed_over, redirect_burst = config
    region = Sailfish.build(SPEC, seed=SEED)
    cluster_ids = sorted(region.controller.clusters)
    for index in failed_over:
        region.recovery.fail_over_cluster(cluster_ids[index])
    if offline is not None:
        cluster_id = cluster_ids[offline[0]]
        members = region.recovery.serving_cluster(cluster_id).members()
        region.recovery.fail_node(cluster_id, members[offline[1]].name)
    if redirect_burst is not None:
        for cluster in region.controller.clusters.values():
            for member in cluster.all_members():
                member.gateway.set_redirect_rate_limit(8.0, burst_bytes=redirect_burst)
    return region


def plain_packet(src: int, dst: int, sport: int, dport: int) -> Packet:
    """An Internet-side IPv4/UDP packet (no tunnel)."""
    return Packet(eth=Ethernet(dst=0x02CC00000002, src=0x02CC00000001,
                               ethertype=ETHERTYPE_IPV4),
                  ip=IPv4(src=src, dst=dst, proto=PROTO_UDP),
                  l4=UDP(src_port=sport, dst_port=dport), payload=b"resp")


def tenant_lanes(region: Sailfish, draw):
    """The burst's VXLAN lanes, in order."""
    gen_seed, count, internet_share, extras = draw
    # Uniform VM popularity, so the few IPv6 VMs show up in most bursts.
    generator = RegionTrafficGenerator(region.topology, ("region-diff", gen_seed),
                                       hot_fraction=0.5, hot_share=0.5,
                                       internet_share=internet_share)
    lanes = [sample.packet for sample in generator.packets(count)]
    for position, kind in extras:
        if kind == "unassigned":
            packet = build_vxlan_packet(UNASSIGNED_VNI, 0x0A000001, 0x0A000002)
        elif lanes:
            # A repeat of an earlier lane: the same flow twice in a burst.
            packet = lanes[position % len(lanes)]
        else:
            continue
        lanes.insert(position % (len(lanes) + 1), packet)
    return lanes


def forward_scalar_burst(region: Sailfish, lanes, answers, strays):
    """Forward *lanes* packet by packet on *region*, splicing in
    responses as they become known: the i-th SNAT request is answered
    ``answers[i]`` lanes after it (None or past the list: unanswered);
    *strays* add responses without a session, to owned or unowned
    public IPs, after lane ``position``. Returns the burst as forwarded
    and its outcomes."""
    public_ips = sorted(region._public_ip_owner)
    pending = [(position, seq, plain_packet(
        REMOTE_IP, public_ips[port % len(public_ips)] if owned else UNOWNED_IP, 80, port))
        for seq, (position, owned, port) in enumerate(strays)]
    burst, outcomes = [], []

    def send(packet):
        burst.append(packet)
        result = region.forward(packet)
        outcomes.append(outcome(result))
        return result

    snat_seen = 0
    for index, packet in enumerate(lanes):
        result = send(packet)
        if result.detail == "snat-request":
            delay = answers[snat_seen] if snat_seen < len(answers) else None
            snat_seen += 1
            if delay is not None:
                out = result.packet
                pending.append((index + delay, len(pending), plain_packet(
                    out.ip.dst, out.ip.src, out.l4.dst_port, out.l4.src_port)))
        pending.sort(key=lambda item: item[:2])
        while pending and pending[0][0] <= index:
            send(pending.pop(0)[2])
    for _anchor, _seq, packet in sorted(pending, key=lambda item: item[:2]):
        send(packet)
    return burst, outcomes


def outcome(result):
    return (result.action, result.detail, result.nc_ip, result.packet.to_bytes())


def region_state(region: Sailfish):
    clusters = {}
    for cluster_id, cluster in sorted(region.controller.clusters.items()):
        members = {}
        for member in cluster.all_members():
            gw = member.gateway
            members[member.name] = (
                gw.stats, gw.counters.snapshot(), dict(gw.chip.fabric.pipe_packets),
                gw.chip.packets_in, gw.chip.packets_dropped, member.state,
            )
        clusters[cluster_id] = (cluster.packets, cluster.backup.packets, members)
    boxes = []
    for box in region.x86_fleet:
        service = box.snat_service
        sessions = sorted(
            (flow, s.public_ip, s.public_port, s.last_active)
            for flow, s in service.snat.items()
        )
        boxes.append((box.counters.snapshot(), sessions,
                      service.requests, service.responses, service.failures))
    return region.counters.snapshot(), clusters, boxes


configs = st.tuples(
    st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.sets(st.integers(0, 2), max_size=2),
    st.one_of(st.none(), st.sampled_from([60.0, 200.0, 1000.0])),
)

bursts = st.tuples(
    st.tuples(
        st.integers(0, 2**16),
        st.integers(0, 40),
        st.sampled_from([0.0, 0.3, 0.7]),
        st.lists(st.tuples(st.integers(0, 64), st.sampled_from(["unassigned", "repeat"])),
                 max_size=4),
    ),
    # Per SNAT request: answer it this many lanes later, or not at all.
    st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=12),
    st.lists(st.tuples(st.integers(0, 48), st.booleans(), st.integers(1024, 65535)),
             max_size=3),
)


class TestRegionBatchDifferential:
    @settings(max_examples=40, deadline=None)
    @given(config=configs, schedule=st.lists(bursts, min_size=1, max_size=3))
    def test_forward_batch_matches_forward_loop(self, config, schedule):
        batched = build_region(config)
        scalar = build_region(config)
        assert region_state(batched) == region_state(scalar)
        for draw, answers, strays in schedule:
            burst, want = forward_scalar_burst(scalar, tenant_lanes(scalar, draw),
                                               answers, strays)
            got = [outcome(r) for r in batched.forward_batch(burst)]
            assert got == want
            assert region_state(batched) == region_state(scalar)

    def test_same_burst_responses_reach_their_sessions(self):
        """Responses spliced right after their requests must find the
        session the request opened earlier in the same burst."""
        config = (None, set(), None)
        scalar = build_region(config)
        burst, _ = forward_scalar_burst(scalar, tenant_lanes(scalar, (5, 40, 0.7, [])),
                                        [0] * 40, [])
        results = build_region(config).forward_batch(burst)
        answered = [r for r in results if r.detail == "snat-response"]
        assert answered
        assert all(r.action is ForwardAction.DELIVER_NC for r in answered)
        assert not any(r.detail == "snat-no-session" for r in results)

    def test_unowned_public_ip_dropped_at_region(self):
        region = build_region((None, set(), None))
        packet = plain_packet(REMOTE_IP, UNOWNED_IP, 80, 4242)
        before = [box.counters.snapshot() for box in region.x86_fleet]
        for result in (region.forward(packet), region.forward_batch([packet])[0]):
            assert (result.action, result.detail) == (ForwardAction.DROP, "no-owner")
        assert region.counters["drop_no_owner"] == 2
        assert region.counters["software_packets"] == 0
        assert [box.counters.snapshot() for box in region.x86_fleet] == before

    def test_drained_cluster_raises_before_forwarding(self):
        """A burst that reaches a cluster with no active member raises
        ClusterError and leaves the region untouched, lanes served by
        other clusters ahead of it included."""
        region = build_region((None, set(), None))
        generator = RegionTrafficGenerator(region.topology, ("region-diff", 11),
                                           hot_fraction=0.5, hot_share=0.5)
        drained_id = sorted(region.controller.clusters)[1]
        # The drained cluster's lanes last, after lanes other clusters serve.
        burst = sorted((sample.packet for sample in generator.packets(32)),
                       key=lambda p: region.balancer.cluster_for_vni(p.vni) == drained_id)
        assert region.balancer.cluster_for_vni(burst[0].vni) != drained_id
        assert region.balancer.cluster_for_vni(burst[-1].vni) == drained_id
        drained = region.recovery.serving_cluster(drained_id)
        for member in drained.members():
            drained.take_offline(member.name)
        before = region_state(region)
        with pytest.raises(ClusterError):
            region.forward_batch(burst)
        assert region_state(region) == before
