"""Tests for the flow-cache fast path and its generation invalidation."""

import ipaddress

import pytest

from repro.dataplane.flowcache import FlowCache, KeyDecision, forward_cached
from repro.dataplane.gateway_logic import (
    ForwardAction,
    GatewayTables,
    forward,
)
from repro.net.addr import Prefix
from repro.tables.acl import AclRule, AclVerdict
from repro.tables.meter import TokenBucket
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet

GATEWAY_IP = 0x0AFFFF01
VPC_A, VPC_B = 100, 200


def ip(text):
    return int(ipaddress.ip_address(text))


@pytest.fixture
def tables():
    t = GatewayTables()
    t.routing.insert(VPC_A, Prefix.parse("192.168.10.0/24"), RouteAction(Scope.LOCAL))
    t.routing.insert(VPC_A, Prefix.parse("192.168.30.0/24"),
                     RouteAction(Scope.PEER, next_hop_vni=VPC_B))
    t.routing.insert(VPC_B, Prefix.parse("192.168.30.0/24"), RouteAction(Scope.LOCAL))
    t.vm_nc.insert(VPC_A, ip("192.168.10.3"), 4, NcBinding(ip("10.1.1.12")))
    t.vm_nc.insert(VPC_B, ip("192.168.30.5"), 4, NcBinding(ip("10.1.1.15")))
    return t


def packet(vni=VPC_A, src="192.168.10.2", dst="192.168.10.3", **kw):
    return build_vxlan_packet(vni=vni, src_ip=ip(src), dst_ip=ip(dst), **kw)


def results_equal(a, b):
    return (a.action is b.action and a.detail == b.detail
            and a.resolved_vni == b.resolved_vni and a.nc_ip == b.nc_ip
            and a.packet.to_bytes() == b.packet.to_bytes())


class TestHitMissSemantics:
    def test_hit_matches_slow_path_bytes(self, tables):
        oracle_tables = GatewayTables()
        oracle_tables.routing.insert(VPC_A, Prefix.parse("192.168.10.0/24"),
                                     RouteAction(Scope.LOCAL))
        oracle_tables.vm_nc.insert(VPC_A, ip("192.168.10.3"), 4,
                                   NcBinding(ip("10.1.1.12")))
        cache = FlowCache()
        pkt = packet()
        miss = forward_cached(tables, cache, pkt, GATEWAY_IP)
        hit = forward_cached(tables, cache, pkt, GATEWAY_IP)
        oracle = forward(oracle_tables, pkt, GATEWAY_IP)
        assert cache.hits == 1 and cache.misses == 1
        assert results_equal(miss, hit)
        assert results_equal(hit, oracle)

    def test_cross_vpc_hit_rewrites_vni(self, tables):
        cache = FlowCache()
        pkt = packet(dst="192.168.30.5")
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        hit = forward_cached(tables, cache, pkt, GATEWAY_IP)
        assert hit.action is ForwardAction.DELIVER_NC
        assert hit.packet.vni == VPC_B
        assert hit.packet.ip.dst == ip("10.1.1.15")
        assert results_equal(hit, forward(tables, pkt, GATEWAY_IP))

    def test_negative_decision_is_cached(self, tables):
        cache = FlowCache()
        pkt = packet(dst="10.99.1.1")  # no route in VPC_A
        assert forward_cached(tables, cache, pkt, GATEWAY_IP).detail == "no-route"
        assert forward_cached(tables, cache, pkt, GATEWAY_IP).detail == "no-route"
        assert cache.hits == 1

    def test_non_vxlan_never_touches_cache(self, tables):
        cache = FlowCache()
        plain = packet().decap()
        result = forward_cached(tables, cache, plain, GATEWAY_IP)
        assert result.detail == "not-vxlan"
        assert cache.hits == cache.misses == len(cache) == 0

    def test_counters_charge_on_hits(self, tables):
        cache = FlowCache()
        pkt = packet()
        for _ in range(5):
            forward_cached(tables, cache, pkt, GATEWAY_IP)
        assert tables.counters.total_packets() == 5

    def test_meter_red_on_hit_path(self, tables):
        tables.meters.configure(("vni", VPC_A),
                                TokenBucket(committed_rate=1.0,
                                            committed_burst=1e6))
        cache = FlowCache()
        pkt = packet()
        first = forward_cached(tables, cache, pkt, GATEWAY_IP, now=0.0)
        assert first.action is ForwardAction.DELIVER_NC
        # Burst exhausted: the cached entry must not shield the flow.
        for _ in range(20000):
            result = forward_cached(tables, cache, pkt, GATEWAY_IP, now=0.0)
        assert result.detail == "meter-red"
        assert result.action is ForwardAction.DROP


class TestGenerationInvalidation:
    @pytest.mark.parametrize("mutate", [
        lambda t: t.routing.insert(VPC_A, Prefix.parse("172.16.0.0/16"),
                                   RouteAction(Scope.LOCAL)),
        lambda t: t.vm_nc.insert(VPC_A, ip("192.168.10.99"), 4,
                                 NcBinding(ip("10.1.1.99"))),
        lambda t: t.acl.insert(AclRule(priority=5, verdict=AclVerdict.PERMIT)),
    ], ids=["routing", "vm_nc", "acl"])
    def test_any_table_mutation_invalidates(self, tables, mutate):
        cache = FlowCache()
        pkt = packet()
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        assert cache.hits == 1
        mutate(tables)
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        assert cache.hits == 1  # stale, re-resolved
        assert cache.stale == 1
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        assert cache.hits == 2  # fresh entry serves again

    def test_remove_bumps_generation_too(self, tables):
        gen = tables.vm_nc.generation
        tables.vm_nc.remove(VPC_B, ip("192.168.30.5"), 4)
        assert tables.vm_nc.generation == gen + 1

    def test_failed_mutation_does_not_bump(self, tables):
        gen = tables.routing.generation
        with pytest.raises(Exception):
            tables.routing.remove(VPC_A, Prefix.parse("203.0.113.0/24"))
        assert tables.routing.generation == gen

    def test_negative_entry_revalidates_after_route_add(self, tables):
        cache = FlowCache()
        pkt = packet(vni=999, dst="192.168.10.3")
        assert forward_cached(tables, cache, pkt, GATEWAY_IP).detail == "no-route"
        tables.routing.insert(999, Prefix.parse("192.168.10.0/24"),
                              RouteAction(Scope.PEER, next_hop_vni=VPC_A))
        result = forward_cached(tables, cache, pkt, GATEWAY_IP)
        assert result.action is ForwardAction.DELIVER_NC
        assert result.nc_ip == ip("10.1.1.12")


class TestAclOnHitPath:
    def test_per_flow_deny_under_shared_key(self, tables):
        """The cache key is dst-only; ACL verdicts are per 5-tuple. A hit
        must still evaluate rules so one src can be denied while another
        src to the same dst stays cached-fast."""
        tables.acl.insert(AclRule(
            priority=1, verdict=AclVerdict.DENY, vni=VPC_A,
            src_net=(ip("192.168.10.66"), 0xFFFFFFFF)))
        cache = FlowCache()
        allowed = packet(src="192.168.10.2")
        denied = packet(src="192.168.10.66")
        assert forward_cached(tables, cache, allowed,
                              GATEWAY_IP).action is ForwardAction.DELIVER_NC
        hit = forward_cached(tables, cache, denied, GATEWAY_IP)
        assert cache.hits == 1  # same (vni, dst, version) key
        assert hit.action is ForwardAction.DROP
        assert hit.detail == "acl-deny"
        # The permitted flow keeps flowing.
        again = forward_cached(tables, cache, allowed, GATEWAY_IP)
        assert again.action is ForwardAction.DELIVER_NC

    def test_acl_deny_result_is_not_cached(self, tables):
        tables.acl.insert(AclRule(priority=1, verdict=AclVerdict.DENY, vni=VPC_A))
        cache = FlowCache()
        pkt = packet()
        assert forward_cached(tables, cache, pkt, GATEWAY_IP).detail == "acl-deny"
        assert len(cache) == 0

    def test_acl_bypass_only_when_provably_permit_all(self, tables):
        cache = FlowCache()
        pkt = packet()
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        (entry,) = cache._entries.values()
        # Empty table, PERMIT default: the rule scan is skipped, but the
        # lookup still charges and the entry is guarded by the ACL
        # generation.
        assert (tables.acl.lookups, tables.acl.matched) == (1, 0)
        assert entry.generations[2] == tables.acl.generation
        tables.acl.insert(AclRule(priority=9, verdict=AclVerdict.PERMIT))
        forward_cached(tables, cache, pkt, GATEWAY_IP)  # stale re-capture
        (entry,) = cache._entries.values()
        assert cache.stale == 1
        assert entry.generations[2] == tables.acl.generation
        assert (tables.acl.lookups, tables.acl.matched) == (2, 1)


class TestLruBounds:
    def test_capacity_evicts_oldest(self, tables):
        cache = FlowCache(capacity=2)
        for host in (3, 4, 5):
            tables.vm_nc.insert(VPC_A, ip(f"192.168.10.{host}"), 4,
                                NcBinding(ip(f"10.1.1.{host}")), replace=True)
        pkts = [packet(dst=f"192.168.10.{h}") for h in (3, 4, 5)]
        forward_cached(tables, cache, pkts[0], GATEWAY_IP)
        forward_cached(tables, cache, pkts[1], GATEWAY_IP)
        # Touch pkt0 so pkt1 is the LRU victim.
        forward_cached(tables, cache, pkts[0], GATEWAY_IP)
        forward_cached(tables, cache, pkts[2], GATEWAY_IP)
        assert len(cache) == 2
        assert cache.evictions == 1
        hits_before = cache.hits
        forward_cached(tables, cache, pkts[0], GATEWAY_IP)
        assert cache.hits == hits_before + 1  # survivor
        forward_cached(tables, cache, pkts[1], GATEWAY_IP)
        assert cache.hits == hits_before + 1  # evicted -> miss

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowCache(capacity=0)

    def test_counters_snapshot(self, tables):
        cache = FlowCache()
        pkt = packet()
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        forward_cached(tables, cache, pkt, GATEWAY_IP)
        snap = cache.counters()
        assert snap == {"flowcache_hits": 1, "flowcache_misses": 1,
                        "flowcache_evictions": 0, "flowcache_stale": 0}
        assert cache.hit_rate == 0.5

    def test_entries_are_slotted(self):
        entry = KeyDecision((0, 0, 0))
        with pytest.raises(AttributeError):
            entry.extra = 1


class TestWireLength:
    @pytest.mark.parametrize("kw", [
        {},
        {"payload": b"x" * 73},
        {"version": 6, "src": "2001:db8::1", "dst": "2001:db8::2"},
    ], ids=["v4", "payload", "v6-inner"])
    def test_matches_serialized_length(self, kw):
        version = kw.pop("version", 4)
        src = kw.pop("src", "192.168.10.2")
        dst = kw.pop("dst", "192.168.10.3")
        pkt = build_vxlan_packet(vni=VPC_A, src_ip=ip(src), dst_ip=ip(dst),
                                 version=version, **kw)
        assert pkt.wire_length() == len(pkt.to_bytes())
        plain = pkt.decap()
        assert plain.wire_length() == len(plain.to_bytes())
