"""Pinned journal bytes: the transactional write path must journal
exactly the same records, byte for byte, however it stages ops.

A seeded mix of single-shard and cross-shard transactions (v4 and v6
routes, VM moves, replaces, removes), one shard snapshot, one
single-shard abort and one cross-shard abort runs on a 4-shard region;
the sha256 of every shard's ``Journal.dump()`` is pinned below."""

import hashlib
import random

import pytest

from tests.shard.helpers import (SHARD_VNIS, ip, make_sharded, onboard,
                                 stage_peer_chain, subnet_of)

from repro.core.controller import RouteEntry, TransactionAborted, VmEntry
from repro.net.addr import Prefix
from repro.tables.errors import TableError
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope

SEED = 1207

PINNED = {
    "s00": "3ab369ba5606708095f6e3b10f3651a11d2107a4364eaf4af0e67577fda29ece",
    "s01": "a050fc6dcc59e27215e69a5783c0d5bb8cef3ca5fe6cbcd488e31d7aff3d9cd6",
    "s02": "ef06ce27fc163320d079cdcb27127d492f2d76838b7934be6728add4c1aa5af1",
    "s03": "aabd50125f5d836baf8650a38f4a23b26cc2674540e17eb84fa2c7056dae2663",
}

LOCAL = RouteAction(Scope.LOCAL)


def _failing_install(vni, prefix, action, replace=False):
    raise TableError("injected gateway agent failure")


def _abort_on(sharded, vni, stage):
    """Run *stage* (a callable taking nothing) with the second member of
    *vni*'s cluster refusing route installs; the batch must abort."""
    ctl = sharded.shard_for(vni).controller
    victim = ctl.clusters[sharded.cluster_of(vni)].members()[1]
    original = victim.gateway.install_route
    victim.gateway.install_route = _failing_install
    try:
        with pytest.raises(TransactionAborted):
            stage()
    finally:
        victim.gateway.install_route = original


def run_mix(seed=SEED):
    """The seeded transaction mix; returns the sharded controller."""
    rng = random.Random(seed)
    sharded = make_sharded()
    for vni in SHARD_VNIS:
        onboard(sharded, vni, subnet=str(subnet_of(vni)))
    live = {vni: [] for vni in SHARD_VNIS}  # (prefix, vm_ip) per tenant
    for step in range(24):
        vni = rng.choice(SHARD_VNIS)
        if step % 6 == 5:
            a, b = rng.sample(SHARD_VNIS, 2)
            with sharded.cross_transaction() as xtxn:
                stage_peer_chain(xtxn, a, b)
            with sharded.cross_transaction() as xtxn:
                xtxn.remove_route(a, subnet_of(b))
                xtxn.remove_route(b, subnet_of(b), owner=a)
                xtxn.remove_route(b, subnet_of(a))
                xtxn.remove_route(a, subnet_of(a), owner=b)
            continue
        with sharded.transaction(vni) as txn:
            if live[vni] and rng.random() < 0.6:
                prefix, vm_ip = live[vni].pop(0)
                txn.remove_route(vni, prefix)
                txn.remove_vm(vni, vm_ip, 4)
            if live[vni] and rng.random() < 0.5:
                # Replace an installed route with a different action.
                prefix, _vm_ip = live[vni][0]
                txn.install_route(RouteEntry(vni, prefix, RouteAction(
                    Scope.SERVICE, target=f"svc{step}")))
            index = rng.randrange(1 << 12)
            if rng.random() < 0.3:
                prefix = Prefix.parse(f"2001:db8:{index:x}::/48")
            else:
                prefix = Prefix.parse(f"172.{16 + index % 16}.{index // 16}.0/24")
            vm_ip = ip(f"192.168.{20 + step}.{1 + rng.randrange(250)}")
            txn.install_route(RouteEntry(vni, prefix, LOCAL))
            txn.install_vm(VmEntry(vni, vm_ip, 4,
                                   NcBinding(ip(f"10.2.{step}.{rng.randrange(250)}"))))
            live[vni].append((prefix, vm_ip))
        if step == 10:
            sharded.snapshot(sharded.router.shard_of(vni))

    def single_abort():
        with sharded.transaction(SHARD_VNIS[1]) as txn:
            txn.install_route(RouteEntry(SHARD_VNIS[1],
                                         Prefix.parse("198.51.100.0/24"), LOCAL))

    def cross_abort():
        with sharded.cross_transaction() as xtxn:
            stage_peer_chain(xtxn, SHARD_VNIS[0], SHARD_VNIS[2])

    _abort_on(sharded, SHARD_VNIS[1], single_abort)
    _abort_on(sharded, SHARD_VNIS[2], cross_abort)
    return sharded


def journal_digests(sharded):
    return {sid: hashlib.sha256(sharded.shards[sid].journal.dump()).hexdigest()
            for sid in sorted(sharded.shards)}


class TestJournalDigests:
    def test_dump_digests_are_pinned(self):
        assert journal_digests(run_mix()) == PINNED

    def test_replay_equals_intent_after_the_mix(self):
        sharded = run_mix()
        assert sharded.counters["xtxns_aborted"] == 1
        for sid in sorted(sharded.shards):
            shard = sharded.shards[sid]
            assert shard.journal.materialize() == \
                shard.controller.intent_snapshot(), sid
        assert sharded.consistency_check() == {}
