"""Two-phase transactional table updates: a mid-batch member fault must
never leave a partially-applied batch on any member, hot backup included."""

import ipaddress

import pytest

from tests.faults.helpers import ip, make_controller, onboard

from repro.core.controller import RouteEntry, TransactionAborted, VmEntry
from repro.core.journal import ControllerCrash, Journal
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.net.addr import Prefix
from repro.tables.errors import TableError
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope


def batch_routes(n, vni=100):
    return [RouteEntry(vni, Prefix.parse(f"10.{i}.0.0/16"), RouteAction(Scope.LOCAL))
            for i in range(n)]


def arm_after_onboard(*specs, seed=5):
    """Onboard cleanly, then arm — so write/mutation indices start at 0
    for the transaction under test."""
    ctrl = make_controller()
    ctrl.journal = Journal()
    cluster_id, routes, vms = onboard(ctrl)
    plan = FaultPlan(seed=seed, specs=list(specs))
    FaultInjector(plan).arm_controller(ctrl)
    return ctrl, plan, cluster_id, routes, vms


def installed_prefixes(gw, vni=100):
    return {p for v, p, _a in gw.tables.routing.items() if v == vni}


class TestCommit:
    def test_batch_commits_on_every_member_and_backup(self):
        ctrl, _plan, cluster_id, _routes, _vms = arm_after_onboard()
        batch = batch_routes(10)
        with ctrl.transaction(cluster_id) as txn:
            for route in batch:
                txn.install_route(route)
            txn.install_vm(VmEntry(100, int(ipaddress.ip_address("192.168.10.3")),
                                   4, NcBinding(int(ipaddress.ip_address("10.1.1.12")))))
        for member in ctrl.clusters[cluster_id].all_members():
            assert {r.prefix for r in batch} <= installed_prefixes(member.gateway)
        assert ctrl.route_count(cluster_id) == 11
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.counters["txns_committed"] == 1
        ops = [r.op for r in ctrl.journal.records(after_seq=-1)]
        assert ops[-2:] == ["txn", "txn-commit"]

    def test_committed_batch_survives_replay(self):
        ctrl, _plan, cluster_id, _routes, _vms = arm_after_onboard()
        with ctrl.transaction(cluster_id) as txn:
            for route in batch_routes(3):
                txn.install_route(route)
        state = ctrl.journal.materialize()
        assert len(state["routes"][cluster_id]) == 1 + 3

    def test_raise_inside_block_discards_batch_untouched(self):
        ctrl, _plan, cluster_id, _routes, _vms = arm_after_onboard()
        appends_before = ctrl.journal.appends
        with pytest.raises(RuntimeError, match="caller bug"):
            with ctrl.transaction(cluster_id) as txn:
                txn.install_route(batch_routes(1)[0])
                raise RuntimeError("caller bug")
        assert ctrl.journal.appends == appends_before
        assert ctrl.route_count(cluster_id) == 1

    def test_empty_transaction_is_a_noop(self):
        ctrl, _plan, cluster_id, _routes, _vms = arm_after_onboard()
        appends_before = ctrl.journal.appends
        with ctrl.transaction(cluster_id):
            pass
        assert ctrl.journal.appends == appends_before


class TestAbort:
    def test_member_fault_mid_100_entry_batch_leaves_no_partial_state(self):
        # 100-route batch prepares member by member (gw0: writes 0-99,
        # gw1: 100-199, then the backups); write 150 dies on gw1 with 50
        # entries already prepared there and 100 on gw0.
        ctrl, plan, cluster_id, onboarded_routes, _vms = arm_after_onboard(
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, at_writes=(150,)))
        batch = batch_routes(100)
        with pytest.raises(TransactionAborted):
            with ctrl.transaction(cluster_id) as txn:
                for route in batch:
                    txn.install_route(route)
        assert plan.injected(FaultKind.FAIL_ROUTE_WRITE) == 1
        # Zero partially-applied entries anywhere — members and backups
        # hold exactly the pre-transaction table.
        for member in ctrl.clusters[cluster_id].all_members():
            assert installed_prefixes(member.gateway) == \
                {onboarded_routes[0].prefix}
        assert ctrl.route_count(cluster_id) == 1
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.counters["txns_aborted"] == 1
        assert ctrl.counters["txn_rollback_failures"] == 0

    def test_abort_restores_overwritten_entry(self):
        ctrl, _plan, cluster_id, routes, _vms = arm_after_onboard(
            FaultSpec(FaultKind.FAIL_VM_WRITE, at_writes=(1,)))
        overwrite = RouteEntry(100, routes[0].prefix,
                               RouteAction(Scope.SERVICE, target="svc"))
        with pytest.raises(TransactionAborted):
            with ctrl.transaction(cluster_id) as txn:
                txn.install_route(overwrite)
                txn.install_vm(VmEntry(100, 1, 4, NcBinding(2)))
        # gw0 had the LOCAL route replaced by SERVICE, then rolled back.
        gw = ctrl.clusters[cluster_id].members()[0].gateway
        actions = {a.scope for v, _p, a in gw.tables.routing.items() if v == 100}
        assert actions == {Scope.LOCAL}
        assert ctrl.consistency_check(cluster_id) == []

    def test_aborted_batch_never_replays(self):
        ctrl, _plan, cluster_id, _routes, _vms = arm_after_onboard(
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, at_writes=(0,)))
        with pytest.raises(TransactionAborted):
            with ctrl.transaction(cluster_id) as txn:
                txn.install_route(batch_routes(1)[0])
        ops = [r.op for r in ctrl.journal.records(after_seq=-1)]
        assert ops[-2:] == ["txn", "txn-abort"]
        assert len(ctrl.journal.materialize()["routes"][cluster_id]) == 1

    def test_removing_unknown_entry_rejected_before_any_write(self):
        ctrl, plan, cluster_id, _routes, _vms = arm_after_onboard()
        appends_before = ctrl.journal.appends
        with pytest.raises(TableError, match="unknown entry"):
            with ctrl.transaction(cluster_id) as txn:
                txn.remove_route(100, Prefix.parse("203.0.113.0/24"))
        assert ctrl.journal.appends == appends_before
        assert plan.write_index == 0

    def test_install_then_remove_in_one_batch_commits(self):
        ctrl, plan, cluster_id, routes, _vms = arm_after_onboard()
        route = batch_routes(1)[0]
        vm = VmEntry(100, ip("192.168.10.77"), 4, NcBinding(ip("10.1.1.77")))
        with ctrl.transaction(cluster_id) as txn:
            txn.install_route(route)
            txn.install_vm(vm)
            txn.remove_route(100, route.prefix)
            txn.remove_vm(100, vm.vm_ip, 4)
        # Validation folded the batch in staged order, so the removes
        # found the entries the same batch installed.
        assert ctrl.counters["txns_committed"] == 1
        assert ctrl.route_count(cluster_id) == 1
        for member in ctrl.clusters[cluster_id].all_members():
            assert installed_prefixes(member.gateway) == {routes[0].prefix}
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.journal.materialize() == ctrl.intent_snapshot()

    def test_double_remove_rejected_before_any_journal_write(self):
        ctrl, plan, cluster_id, routes, _vms = arm_after_onboard()
        appends_before = ctrl.journal.appends
        with pytest.raises(TableError, match="unknown entry"):
            with ctrl.transaction(cluster_id) as txn:
                txn.remove_route(100, routes[0].prefix)
                txn.remove_route(100, routes[0].prefix)
        # No txn record, no gateway write, no state change.
        assert ctrl.journal.appends == appends_before
        assert plan.write_index == 0
        assert ctrl.route_count(cluster_id) == 1
        assert ctrl.consistency_check(cluster_id) == []

    def test_batch_with_removes_rolls_back_removes_too(self):
        ctrl, _plan, cluster_id, routes, vms = arm_after_onboard(
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, at_writes=(2,)))
        # Ops per member: remove-vm (write 0), remove-route (1),
        # install-route (2, dies on gw0) — both removes must come back.
        with pytest.raises(TransactionAborted):
            with ctrl.transaction(cluster_id) as txn:
                txn.remove_vm(100, vms[0].vm_ip, 4)
                txn.remove_route(100, routes[0].prefix)
                txn.install_route(batch_routes(1)[0])
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.probe(cluster_id).ok
        gw = ctrl.clusters[cluster_id].members()[0].gateway
        assert gw.split_vm_nc.lookup(100, vms[0].vm_ip, 4) == vms[0].binding


class TestFailingUndo:
    def test_undo_failure_reports_original_cause_and_leaves_repairable_residue(self):
        # gw0 prepares writes 0-2; gw1's first write (3) fails — the
        # original cause. Rollback then runs gw0's undos as writes 4-6,
        # and write 4 (removing batch[2]) fails too: one undo is lost.
        ctrl, plan, cluster_id, onboarded_routes, _vms = arm_after_onboard(
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, at_writes=(3, 4)))
        pre_txn = {m.name: installed_prefixes(m.gateway)
                   for m in ctrl.clusters[cluster_id].all_members()}
        batch = batch_routes(3)
        with pytest.raises(TransactionAborted) as excinfo:
            with ctrl.transaction(cluster_id) as txn:
                for route in batch:
                    txn.install_route(route)
        # The abort names the *prepare* failure, not the undo failure.
        cause = excinfo.value.__cause__
        assert isinstance(cause, TableError)
        assert "gw1" in str(cause) and "10.0.0.0/16" in str(cause)
        assert plan.injected(FaultKind.FAIL_ROUTE_WRITE) == 2
        assert ctrl.counters["txn_rollback_failures"] == 1
        # Desired state never changed; gw0 kept the entry whose undo
        # failed — visible residue, not silent corruption.
        assert ctrl.route_count(cluster_id) == 1
        gw0 = ctrl.clusters[cluster_id].members()[0].gateway
        assert batch[2].prefix in installed_prefixes(gw0)
        findings = ctrl.consistency_check(cluster_id)
        assert [f.kind for f in findings] == ["extra-route"]
        # Targeted repair restores the pre-transaction fabric exactly.
        applied, failed = ctrl.targeted_repair(cluster_id, findings)
        assert applied == 1 and failed == []
        assert {m.name: installed_prefixes(m.gateway)
                for m in ctrl.clusters[cluster_id].all_members()} == pre_txn
        assert ctrl.consistency_check(cluster_id) == []


class TestSideEffects:
    def test_failing_side_effect_unwinds_members_and_prior_effects(self):
        ctrl, _plan, cluster_id, onboarded_routes, _vms = arm_after_onboard()
        journal = []

        def effect(tag):
            journal.append(tag)

        def failing():
            raise TableError("side effect refused")

        with pytest.raises(TransactionAborted, match="side effect refused"):
            with ctrl.transaction(cluster_id) as txn:
                txn.install_route(batch_routes(1)[0])
                txn.stage_side_effect("first", lambda: effect("apply-1"),
                                      lambda: effect("undo-1"))
                txn.stage_side_effect("second", failing,
                                      lambda: effect("undo-2"))
        # The first effect applied, then unwound; the failing one never
        # needed (and never got) an undo.
        assert journal == ["apply-1", "undo-1"]
        # Every member rolled the route batch back too.
        for member in ctrl.clusters[cluster_id].all_members():
            assert installed_prefixes(member.gateway) == \
                {onboarded_routes[0].prefix}
        assert ctrl.counters["txns_aborted"] == 1

    def test_side_effect_only_transaction_is_not_journalled(self):
        ctrl, plan, cluster_id, _routes, _vms = arm_after_onboard()
        appends_before = ctrl.journal.appends
        ran = []
        with ctrl.transaction(cluster_id) as txn:
            txn.stage_side_effect("only", lambda: ran.append("apply"),
                                  lambda: ran.append("undo"))
        assert ran == ["apply"]
        # Non-journalled by design: a crash-recovered controller simply
        # never ran the effect, so nothing replays it.
        assert ctrl.journal.appends == appends_before
        assert plan.write_index == 0


class TestCrashDuringTransaction:
    def test_crash_between_txn_append_and_push_aborts_on_replay(self):
        ctrl, plan, cluster_id, _routes, _vms = arm_after_onboard(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(0,)))
        with pytest.raises(ControllerCrash, match="txn"):
            with ctrl.transaction(cluster_id) as txn:
                for route in batch_routes(5):
                    txn.install_route(route)
        assert plan.injected(FaultKind.CONTROLLER_CRASH) == 1
        # No member ever saw the batch, and replay skips the unterminated
        # txn record — the journal and the gateways agree.
        assert plan.write_index == 0
        assert len(ctrl.journal.materialize()["routes"][cluster_id]) == 1
        assert ctrl.consistency_check(cluster_id) == []
