"""Tests for the XGW-x86 fast path: batched forwarding, cache telemetry
and the binary-search line-rate crossover."""

import ipaddress

import pytest

from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import ForwardAction, GatewayTables
from repro.net.addr import Prefix
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86


def ip(text):
    return int(ipaddress.ip_address(text))


VNI = 100


def make_tables(hosts=8):
    t = GatewayTables()
    t.routing.insert(VNI, Prefix.parse("192.168.10.0/24"), RouteAction(Scope.LOCAL))
    for h in range(1, hosts + 1):
        t.vm_nc.insert(VNI, ip(f"192.168.10.{h}"), 4, NcBinding(ip(f"10.1.1.{h}")))
    return t


def burst(n=32, hosts=8):
    return [build_vxlan_packet(vni=VNI, src_ip=ip("192.168.10.100"),
                               dst_ip=ip(f"192.168.10.{1 + i % hosts}"))
            for i in range(n)]


class TestForwardBatch:
    def test_matches_per_packet_forwarding(self):
        batch_gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables())
        loop_gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables())
        packets = burst()
        batched = batch_gw.forward_batch(packets, now=1.0)
        looped = [loop_gw.forward(p, now=1.0) for p in packets]
        assert len(batched) == len(looped) == len(packets)
        for got, want in zip(batched, looped):
            assert got.action is want.action
            assert got.packet.to_bytes() == want.packet.to_bytes()
        assert batch_gw.counters.snapshot() == loop_gw.counters.snapshot()

    def test_uncached_gateway_still_batches(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables(), cache_entries=0)
        assert gw.flow_cache is None
        results = gw.forward_batch(burst(8))
        assert all(r.action is ForwardAction.DELIVER_NC for r in results)
        assert gw.counters["rx_packets"] == 8

    def test_empty_batch(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables())
        assert gw.forward_batch([]) == []
        assert gw.counters["rx_packets"] == 0


class TestCacheTelemetry:
    # The columnar path reads and fills the gateway's one decision memo
    # and counts its hits and misses per lane, like the per-packet loop.
    def test_counters_flow_into_counterset(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables(hosts=4))
        gw.forward_batch(burst(12, hosts=4))
        snap = gw.publish_cache_counters()
        assert snap["flowcache_misses"] == 4
        assert snap["flowcache_hits"] == 8
        assert gw.counters["flowcache_hits"] == 8
        assert gw.counters["flowcache_misses"] == 4

    def test_publish_is_idempotent_on_deltas(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables(hosts=4))
        gw.forward_batch(burst(12, hosts=4))
        gw.publish_cache_counters()
        gw.publish_cache_counters()  # no new traffic: no double counting
        assert gw.counters["flowcache_hits"] == 8
        gw.forward_batch(burst(4, hosts=4))
        gw.publish_cache_counters()
        assert gw.counters["flowcache_hits"] == 12

    def test_disabled_cache_publishes_nothing(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, cache_entries=0)
        assert gw.publish_cache_counters() == {}


class TestMemoBound:
    """The one decision memo stays LRU-bounded on the batch path, and
    the columnar path counts it exactly like the per-packet loop."""

    @staticmethod
    def unique_bursts(bursts=5, size=40):
        # Every lane a distinct (VNI, dst) key: each one a no-route miss.
        return [[build_vxlan_packet(vni=VNI, src_ip=ip("192.168.10.100"),
                                    dst_ip=ip("10.0.0.0") + b * size + i)
                 for i in range(size)] for b in range(bursts)]

    def test_x86_memo_is_bounded_by_cache_entries(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables(), cache_entries=16)
        for packets in self.unique_bursts():
            gw.forward_batch(packets)
            assert len(gw.flow_cache) <= 16
        assert gw.flow_cache.misses == 200
        assert gw.flow_cache.evictions == 200 - 16

    def test_xgw_h_memo_is_bounded(self):
        gw = XgwH(gateway_ip=0x0A0000FE, tables=make_tables())
        memo = gw._batch_compiler.memo
        assert not hasattr(gw, "flow_cache")
        memo.capacity = 16
        for packets in self.unique_bursts():
            gw.forward_batch(packets)
            assert len(memo) <= 16
        assert memo.evictions == 200 - 16

    def test_recompile_drops_retired_entries(self):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables())
        gw.forward_batch(self.unique_bursts(bursts=1)[0])
        assert len(gw.flow_cache) == 40
        gw.install_route(VNI + 1, Prefix.parse("10.0.0.0/8"),
                         RouteAction(Scope.LOCAL))
        gw.forward_batch(burst(1))
        assert len(gw.flow_cache) == 1
        assert gw.flow_cache.stale == 40

    def test_all_admitted_burst_counts_like_the_forward_loop(self):
        packets = burst(24, hosts=5) + burst(8, hosts=3)
        batch_gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables())
        loop_gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables(),
                         columnar=False)
        for _ in range(2):
            batch_gw.forward_batch(packets)
            loop_gw.forward_batch(packets)
            assert (batch_gw.publish_cache_counters()
                    == loop_gw.publish_cache_counters())
        assert batch_gw.flow_cache.misses == 5
        assert batch_gw.counters.snapshot() == loop_gw.counters.snapshot()


class TestBatchCounterConservation:
    """Regression for batch-path counter attribution: a mixed
    accept/drop burst must keep the CounterConservation identities
    (``rx_packets == Σ action_*``, ``Σ drop_* == action_drop``) on both
    batch paths — columnar (one per-reason drop flush) and the per-packet
    ``forward`` loop, over the memo or the uncached walk."""

    @staticmethod
    def mixed_burst():
        packets = burst(10, hosts=4)
        # no-vm: LOCAL route, host outside the installed bindings.
        packets.append(build_vxlan_packet(vni=VNI, src_ip=ip("192.168.10.100"),
                                          dst_ip=ip("192.168.10.200")))
        # no-route: VNI with no routing entries at all.
        packets.append(build_vxlan_packet(vni=VNI + 1, src_ip=ip("192.168.10.100"),
                                          dst_ip=ip("192.168.10.1")))
        return packets

    @staticmethod
    def assert_conserved(gw):
        counts = gw.counters.snapshot()
        actions = sum(v for k, v in counts.items() if k.startswith("action_"))
        drops = sum(v for k, v in counts.items() if k.startswith("drop_"))
        assert counts["rx_packets"] == actions
        assert drops == counts.get("action_drop", 0)

    @pytest.mark.parametrize("kwargs", [
        {},                                       # columnar path
        {"columnar": False},                      # forward loop, memo
        {"columnar": False, "cache_entries": 0},  # forward loop, uncached
    ])
    def test_mixed_burst_conserves_counters(self, kwargs):
        gw = XgwX86(gateway_ip=0x0A0000FD, tables=make_tables(hosts=4), **kwargs)
        results = gw.forward_batch(self.mixed_burst() * 3)
        seen = {r.detail for r in results if r.action is ForwardAction.DROP}
        assert {"no-vm", "no-route"} <= seen
        assert any(r.action is ForwardAction.DELIVER_NC for r in results)
        self.assert_conserved(gw)
        assert gw.counters["drop_no_vm"] == 3
        assert gw.counters["drop_no_route"] == 3


class TestMinLineRatePacket:
    @staticmethod
    def linear_scan(gw):
        """The pre-optimisation reference implementation."""
        size = 64
        while gw.nic.max_pps(size) > gw.total_capacity_pps:
            size += 1
        return size

    @pytest.mark.parametrize("cores,core_pps,nic_bps", [
        (32, 1.8e9 / 32 * 0.444, 100e9),  # default-ish calibration
        (32, 25e6 / 32, 100e9),
        (8, 1e6, 10e9),
        (64, 3e6, 400e9),
        (4, 100e6, 1e9),                  # CPU never the bottleneck
    ])
    def test_binary_search_matches_linear_scan(self, cores, core_pps, nic_bps):
        gw = XgwX86(gateway_ip=1, num_cores=cores, core_pps=core_pps,
                    nic_bps=nic_bps)
        assert gw.min_line_rate_packet() == self.linear_scan(gw)

    def test_default_calibration_near_512(self):
        gw = XgwX86(gateway_ip=1)
        size = gw.min_line_rate_packet()
        # Paper: "line rate with packets larger than 512B".
        assert 256 <= size <= 1024
        assert gw.nic.max_pps(size) <= gw.total_capacity_pps
        assert gw.nic.max_pps(size - 1) > gw.total_capacity_pps
