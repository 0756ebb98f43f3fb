"""The transactional write path costs O(op) on real gateways.

Committing a batch reads each touched key back from each member with
one exact lookup, encodes the journal record once and folds typed ops
into desired state: no routing-table scan, no prefix parse and no
journal decode. These tests count those calls while real ``XgwH``
members (one behind a ``FaultyGateway`` proxy) plus a hot backup commit
a single-shard and a two-shard batch, and check that the exact readback
restores a replaced route when a batch aborts part-way."""

from contextlib import contextmanager

import pytest

from tests.shard.helpers import ip

import repro.core.controller as controller_module
import repro.core.journal as journal_module
from repro.cluster.cluster import GatewayCluster
from repro.core.controller import RouteEntry, TransactionAborted, VmEntry
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.core.xgw_h import XgwH
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.injector import FaultyGateway
from repro.net.addr import Prefix
from repro.shard import ShardedController
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope, VxlanRoutingTable

#: One tenant on each shard of a 2-shard region.
A, B = 100, (1 << 23) + 9
LOCAL = RouteAction(Scope.LOCAL)
SERVICE = RouteAction(Scope.SERVICE, target="svc")
SUBNETS = 24


def subnet(vni, i):
    return Prefix((10 << 24) | ((vni % 100) << 16) | (i << 8), 24, 4)


def vm_ip(vni, i):
    return subnet(vni, i).network + 10


def make_region():
    """Two shards; each cluster has two XgwH members and a one-member
    hot backup; every tenant holds SUBNETS routes and VMs."""
    counter = [0]

    def gateway():
        counter[0] += 1
        return XgwH(gateway_ip=(10 << 24) | counter[0])

    def factory(cluster_id):
        nodes = [(f"{cluster_id}-gw{i}", gateway()) for i in range(2)]
        backup = GatewayCluster(f"{cluster_id}-backup",
                                [(f"{cluster_id}-bk0", gateway())])
        return GatewayCluster(cluster_id, nodes, backup=backup)

    sharded = ShardedController.build(
        2, ClusterCapacity(routes=100, vms=100, traffic_bps=1e13),
        cluster_factory=factory)
    for vni in (A, B):
        routes = [RouteEntry(vni, subnet(vni, i), LOCAL) for i in range(SUBNETS)]
        vms = [VmEntry(vni, vm_ip(vni, i), 4, NcBinding(ip("10.9.0.1") + i))
               for i in range(SUBNETS)]
        sharded.add_tenant(TenantProfile(vni, SUBNETS, SUBNETS, 1e9), routes, vms)
    return sharded


def wrap_second_member(sharded, vni, specs=()):
    """Put member 1 of *vni*'s cluster behind a FaultyGateway; returns
    its plan (write indices count that member's writes only)."""
    cluster_id = sharded.cluster_of(vni)
    member = sharded.shard_for(vni).clusters[cluster_id].members()[1]
    plan = FaultPlan(seed=3, specs=list(specs))
    member.gateway = FaultyGateway(member.gateway, plan, cluster_id, member.name)
    return plan


def all_members(sharded, vni):
    cluster = sharded.shard_for(vni).clusters[sharded.cluster_of(vni)]
    return cluster.all_members()


@contextmanager
def counting():
    """Count calls to the O(table) and decode entry points."""
    calls = {"items": 0, "parse": 0, "decode_action": 0, "decode_binding": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VxlanRoutingTable, "items",
                   counted("items", VxlanRoutingTable.items))
        mp.setattr(Prefix, "parse",
                   classmethod(counted("parse", Prefix.parse.__func__)))
        for module in (journal_module, controller_module):
            for name in ("decode_action", "decode_binding"):
                mp.setattr(module, name, counted(name, getattr(module, name)))
        yield calls


ZERO = {"items": 0, "parse": 0, "decode_action": 0, "decode_binding": 0}


class TestCommitPathCost:
    def test_single_shard_commit_scans_and_decodes_nothing(self):
        sharded = make_region()
        plan = wrap_second_member(sharded, A)
        new = RouteEntry(A, Prefix.parse("172.16.0.0/28"), LOCAL)
        replaced = RouteEntry(A, subnet(A, 0), SERVICE)
        vm = VmEntry(A, ip("172.16.0.1"), 4, NcBinding(ip("10.9.9.9")))
        with counting() as calls:
            with sharded.transaction(A) as txn:
                txn.install_route(new)
                txn.install_route(replaced)
                txn.remove_route(A, subnet(A, 1))
                txn.install_vm(vm)
                txn.remove_vm(A, vm_ip(A, 1), 4)
        assert calls == ZERO
        assert plan.write_index == 5  # the proxied member saw the batch
        for member in all_members(sharded, A):
            routing = member.gateway.tables.routing
            assert routing.get(A, new.prefix) == LOCAL
            assert routing.get(A, replaced.prefix) == SERVICE
            assert routing.get(A, subnet(A, 1)) is None
        assert sharded.consistency_check() == {}

    def test_cross_shard_commit_scans_and_decodes_nothing(self):
        sharded = make_region()
        plans = [wrap_second_member(sharded, vni) for vni in (A, B)]
        chain = [
            (RouteEntry(A, subnet(B, 0), RouteAction(Scope.PEER, next_hop_vni=B)), None),
            (RouteEntry(B, subnet(B, 0), LOCAL), A),
            (RouteEntry(B, subnet(A, 0), RouteAction(Scope.PEER, next_hop_vni=A)), None),
            (RouteEntry(A, subnet(A, 0), LOCAL), B),
        ]
        vm = VmEntry(B, vm_ip(B, 0), 4, NcBinding(ip("10.9.0.1")))
        with counting() as calls:
            with sharded.cross_transaction() as xtxn:
                for route, owner in chain:
                    xtxn.install_route(route, owner=owner)
                xtxn.install_vm(vm, owner=A)
                xtxn.remove_route(B, subnet(B, 2))
                xtxn.remove_vm(A, vm_ip(A, 2), 4)
        assert calls == ZERO
        assert sharded.counters["xtxns_committed"] == 1
        assert all(plan.write_index > 0 for plan in plans)
        assert sharded.consistency_check() == {}


class TestReplaceUndo:
    """A batch that replaces a route aborts on the second member: every
    member must hold the previous action again. The restore comes from
    each member's exact readback (the ``prev is not None`` undo)."""

    def test_single_shard_replace_restored_on_abort(self):
        sharded = make_region()
        # Member 1's second route write (the new route) fails, after its
        # own replace went through: both member 0 and member 1 undo.
        wrap_second_member(sharded, A, [FaultSpec(FaultKind.FAIL_ROUTE_WRITE,
                                                  at_writes=(1,))])
        fresh = Prefix.parse("172.16.1.0/28")
        with pytest.raises(TransactionAborted):
            with sharded.transaction(A) as txn:
                txn.install_route(RouteEntry(A, subnet(A, 0), SERVICE))
                txn.install_route(RouteEntry(A, fresh, LOCAL))
        for member in all_members(sharded, A):
            routing = member.gateway.tables.routing
            assert routing.get(A, subnet(A, 0)) == LOCAL, member.name
            assert routing.get(A, fresh) is None, member.name
        assert sharded.consistency_check() == {}

    def test_cross_shard_replace_restored_on_abort(self):
        sharded = make_region()
        wrap_second_member(sharded, B, [FaultSpec(FaultKind.FAIL_ROUTE_WRITE,
                                                  at_writes=(1,))])
        fresh = Prefix.parse("172.16.2.0/28")
        with pytest.raises(TransactionAborted):
            with sharded.cross_transaction() as xtxn:
                xtxn.install_route(RouteEntry(A, subnet(A, 0), SERVICE))
                xtxn.install_route(RouteEntry(B, subnet(B, 0), SERVICE))
                xtxn.install_route(RouteEntry(B, fresh, LOCAL))
        assert sharded.counters["xtxns_aborted"] == 1
        for vni in (A, B):
            for member in all_members(sharded, vni):
                routing = member.gateway.tables.routing
                assert routing.get(vni, subnet(vni, 0)) == LOCAL, member.name
                assert routing.get(vni, fresh) is None, member.name
        assert sharded.consistency_check() == {}
