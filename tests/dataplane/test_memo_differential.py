"""Differential property test: one gateway's shared decision memo.

An XGW-x86 box keeps one decision memo that both its single-packet
``forward`` and its columnar ``forward_batch`` read and fill. Hypothesis
interleaves the two entry points with routing/VM/ACL/meter mutations on
one gateway (with a small memo, so evictions interleave too) and checks
every result against the never-cached scalar oracle,
``XgwX86(cache_entries=0, columnar=False)``. Packets are interned per
op, so replays exercise the memo's prototype results across both entry
points. At the end the gateway counters, the tenant counter table, the
ACL telemetry and the meter colors must agree exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.dataplane.test_columnar_differential import (
    BACKENDS,
    apply_mutation,
    build_plain_packet,
    dports,
    hosts,
    ops as batch_ops,
    vnis,
)

from repro.dataplane.columnar import PacketBatch, resolve_backend
from repro.dataplane.gateway_logic import GatewayTables
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86

GATEWAY_IP = 0x0AFFFF01

ops = st.one_of(batch_ops,
                st.tuples(st.just("single"), vnis, hosts, hosts, dports))


def assert_same(got, want, ctx):
    assert got.action is want.action, ctx
    assert got.detail == want.detail, ctx
    assert got.resolved_vni == want.resolved_vni, ctx
    assert got.nc_ip == want.nc_ip, ctx
    assert got.packet.to_bytes() == want.packet.to_bytes(), ctx


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=250, deadline=None)
@given(op_list=st.lists(ops, min_size=1, max_size=40))
def test_shared_memo_matches_scalar_oracle(backend_name, op_list):
    backend = resolve_backend(backend_name)
    gw = XgwX86(gateway_ip=GATEWAY_IP, tables=GatewayTables(), cache_entries=8)
    oracle = XgwX86(gateway_ip=GATEWAY_IP, tables=GatewayTables(),
                    cache_entries=0, columnar=False)
    assert gw._batch_compiler.memo is gw.flow_cache
    interned = {}
    pending = []
    now = 0.0

    def packet(op):
        pkt = interned.get(op)
        if pkt is None:
            if op[0] == "plain":
                pkt = build_plain_packet(op[1], op[2])
            else:
                pkt = build_vxlan_packet(vni=op[1], src_ip=op[2],
                                         dst_ip=op[3], dst_port=op[4])
            interned[op] = pkt
        return pkt

    def flush(step):
        if not pending:
            return
        got_list = gw.forward_batch(PacketBatch.from_packets(pending, backend), now)
        want_list = [oracle.forward(p, now) for p in pending]
        for lane, (got, want) in enumerate(zip(got_list, want_list)):
            assert_same(got, want, (step, lane))
        pending.clear()

    for step, op in enumerate(op_list):
        now += 0.001
        kind = op[0]
        if kind in ("forward", "plain"):
            pending.append(packet(op))
        elif kind == "flush":
            flush(step)
        elif kind == "single":
            flush(step)
            pkt = packet(("forward",) + op[1:])
            assert_same(gw.forward(pkt, now), oracle.forward(pkt, now), step)
        else:
            flush(step)
            outcome_a = apply_mutation(gw.tables, op)
            outcome_b = apply_mutation(oracle.tables, op)
            assert outcome_a == outcome_b, (step, op)
    flush(len(op_list))
    assert len(gw.flow_cache) <= 8
    assert gw.counters.snapshot() == oracle.counters.snapshot()
    t_gw, t_ora = gw.tables, oracle.tables
    assert (t_gw.counters.total_packets(), t_gw.counters.total_bytes()) \
        == (t_ora.counters.total_packets(), t_ora.counters.total_bytes())
    assert (t_gw.acl.lookups, t_gw.acl.matched) \
        == (t_ora.acl.lookups, t_ora.acl.matched)
    assert (t_gw.meters.green, t_gw.meters.yellow, t_gw.meters.red) \
        == (t_ora.meters.green, t_ora.meters.yellow, t_ora.meters.red)
