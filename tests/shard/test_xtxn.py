"""Cross-shard transactions: atomic visibility, abort unwinding, and the
degenerate single-cluster fast path."""

import pytest

from tests.shard.helpers import (SHARD_VNIS, ip, make_sharded, onboard,
                                 stage_peer_chain, subnet_of)

from repro.core.controller import (RouteEntry, TransactionAborted, VmEntry)
from repro.net.addr import Prefix
from repro.shard import ShardError
from repro.tables.errors import TableError
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope


def region_with_tenants():
    sharded = make_sharded()
    for vni in SHARD_VNIS:
        onboard(sharded, vni, subnet=str(subnet_of(vni)))
    return sharded


class TestCrossShardCommit:
    def test_peer_chain_commits_atomically_across_shards(self):
        sharded = region_with_tenants()
        a, b = SHARD_VNIS[0], SHARD_VNIS[2]
        with sharded.cross_transaction() as xtxn:
            stage_peer_chain(xtxn, a, b)
        assert sharded.counters["xtxns_committed"] == 1
        # Both sides hold the full chain and every gateway matches intent.
        for vni, peer in ((a, b), (b, a)):
            ctl = sharded.shard_for(vni).controller
            cid = sharded.cluster_of(vni)
            keys = {p for (v, p) in ctl._routes[cid] if v == vni}
            assert subnet_of(peer) in keys or subnet_of(vni) in keys
        assert sharded.consistency_check() == {}
        assert sharded.in_doubt() == {}

    def test_commit_is_journalled_on_every_participant(self):
        sharded = region_with_tenants()
        with sharded.cross_transaction() as xtxn:
            stage_peer_chain(xtxn, SHARD_VNIS[1], SHARD_VNIS[3])
        coord = sharded.shards["s01"].journal
        ops = [r.op for r in coord.records(after_seq=-1)]
        assert "xtxn-begin" in ops and "xtxn-commit" in ops
        part = sharded.shards["s03"].journal
        part_ops = [r.op for r in part.records(after_seq=-1)]
        assert "txn" in part_ops and "txn-commit" in part_ops

    def test_xtxn_markers_survive_replay(self):
        sharded = region_with_tenants()
        with sharded.cross_transaction() as xtxn:
            stage_peer_chain(xtxn, SHARD_VNIS[0], SHARD_VNIS[2])
        for sid in ("s00", "s02"):
            shard = sharded.shards[sid]
            intent = shard.controller.intent_snapshot()
            assert shard.journal.materialize() == intent

    def test_empty_cross_transaction_is_a_noop(self):
        sharded = region_with_tenants()
        appends = {sid: s.journal.appends for sid, s in sharded.shards.items()}
        with sharded.cross_transaction():
            pass
        assert {sid: s.journal.appends
                for sid, s in sharded.shards.items()} == appends

    def test_single_cluster_batch_uses_plain_transaction(self):
        sharded = region_with_tenants()
        vni = SHARD_VNIS[0]
        with sharded.cross_transaction() as xtxn:
            xtxn.install_route(RouteEntry(vni, Prefix.parse("10.99.0.0/16"),
                                          RouteAction(Scope.LOCAL)))
        ctl = sharded.shard_for(vni).controller
        assert ctl.counters["txns_committed"] == 1
        assert sharded.counters["xtxns_committed"] == 0  # fast path
        ops = [r.op for r in sharded.shards["s00"].journal.records(after_seq=-1)]
        assert "xtxn-begin" not in ops

    def test_raising_inside_block_discards_batch(self):
        sharded = region_with_tenants()
        appends = {sid: s.journal.appends for sid, s in sharded.shards.items()}
        with pytest.raises(RuntimeError):
            with sharded.cross_transaction() as xtxn:
                stage_peer_chain(xtxn, SHARD_VNIS[0], SHARD_VNIS[2])
                raise RuntimeError("caller changed its mind")
        assert {sid: s.journal.appends
                for sid, s in sharded.shards.items()} == appends

    def test_unplaced_participant_rejected_at_staging(self):
        sharded = region_with_tenants()
        with pytest.raises(ShardError, match="not placed"):
            with sharded.cross_transaction() as xtxn:
                xtxn.install_route(RouteEntry(424242, Prefix.parse("10.0.0.0/8"),
                                              RouteAction(Scope.LOCAL)))

    def test_install_then_remove_in_one_batch_commits(self):
        sharded = region_with_tenants()
        a, b = SHARD_VNIS[0], SHARD_VNIS[2]
        intents_before = sharded.intent_snapshot()
        vm = VmEntry(b, ip("192.168.10.50"), 4, NcBinding(ip("10.1.1.50")))
        with sharded.cross_transaction() as xtxn:
            stage_peer_chain(xtxn, a, b)
            xtxn.install_vm(vm, owner=a)
            # Take the whole chain back out within the same batch.
            xtxn.remove_route(a, subnet_of(b))
            xtxn.remove_route(b, subnet_of(b), owner=a)
            xtxn.remove_route(b, subnet_of(a))
            xtxn.remove_route(a, subnet_of(a), owner=b)
            xtxn.remove_vm(b, vm.vm_ip, 4, owner=a)
        assert sharded.counters["xtxns_committed"] == 1
        # Each participant journalled a txn + txn-commit; the net change
        # to intent and to every gateway is nothing.
        intents = sharded.intent_snapshot()
        for sid in intents:
            intents[sid]["version"] = intents_before[sid]["version"]
        assert intents == intents_before
        assert sharded.consistency_check() == {}
        for sid, shard in sharded.shards.items():
            assert shard.journal.materialize() == \
                shard.controller.intent_snapshot()

    def test_vm_moves_ride_the_same_protocol(self):
        sharded = region_with_tenants()
        a, b = SHARD_VNIS[0], SHARD_VNIS[3]
        with sharded.cross_transaction() as xtxn:
            xtxn.remove_vm(a, ip("192.168.10.2"), 4)
            xtxn.install_vm(VmEntry(b, ip("192.168.10.9"), 4,
                                    NcBinding(ip("10.1.1.99"))))
        assert sharded.counters["xtxns_committed"] == 1
        assert sharded.consistency_check() == {}


class TestCrossShardAbort:
    def test_unknown_removal_aborts_before_any_journal_write(self):
        sharded = region_with_tenants()
        appends = {sid: s.journal.appends for sid, s in sharded.shards.items()}
        with pytest.raises(TableError, match="unknown entry"):
            with sharded.cross_transaction() as xtxn:
                stage_peer_chain(xtxn, SHARD_VNIS[0], SHARD_VNIS[2])
                xtxn.remove_route(SHARD_VNIS[2], Prefix.parse("1.2.3.0/24"))
        assert {sid: s.journal.appends
                for sid, s in sharded.shards.items()} == appends

    def test_double_remove_rejected_before_any_journal_write(self):
        sharded = region_with_tenants()
        a, b = SHARD_VNIS[0], SHARD_VNIS[2]
        appends = {sid: s.journal.appends for sid, s in sharded.shards.items()}
        with pytest.raises(TableError, match="unknown entry"):
            with sharded.cross_transaction() as xtxn:
                xtxn.remove_route(a, subnet_of(a))
                xtxn.remove_route(b, subnet_of(b))
                xtxn.remove_route(b, subnet_of(b))
        assert {sid: s.journal.appends
                for sid, s in sharded.shards.items()} == appends
        assert sharded.counters["xtxns_aborted"] == 0
        assert sharded.consistency_check() == {}

    def test_member_failure_rolls_back_every_shard(self):
        sharded = region_with_tenants()
        a, b = SHARD_VNIS[0], SHARD_VNIS[2]
        # Poison the second participant's gateway so its prepare raises.
        cid_b = sharded.cluster_of(b)
        ctl_b = sharded.shard_for(b).controller
        victim = ctl_b.clusters[cid_b].members()[0]
        original = victim.gateway.install_route

        def failing(vni, prefix, action, replace=False):
            raise TableError("injected gateway agent failure")

        victim.gateway.install_route = failing
        intents_before = sharded.intent_snapshot()
        try:
            with pytest.raises(TransactionAborted):
                with sharded.cross_transaction() as xtxn:
                    stage_peer_chain(xtxn, a, b)
        finally:
            victim.gateway.install_route = original
        assert sharded.counters["xtxns_aborted"] == 1
        # No shard's intent moved; the first participant (which had fully
        # prepared) was unwound on every member.
        assert sharded.intent_snapshot() == intents_before
        assert sharded.consistency_check() == {}
        assert sharded.in_doubt() == {}
        # The journals carry the abort markers, so replay also sees the
        # batch as never-happened.
        ops_a = [r.op for r in sharded.shards["s00"].journal.records(after_seq=-1)]
        assert "txn-abort" in ops_a
        coord_ops = [r.op for r in sharded.shards["s00"].journal.records(after_seq=-1)]
        assert "xtxn-abort" in coord_ops
