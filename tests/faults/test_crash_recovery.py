"""Controller crash between journal append and cluster push, then
recovery by replay: the rebuilt intent is the pre-crash intent and a
full sync leaves ``consistency_check() == []``."""

import json
import os

import pytest

from tests.faults.helpers import make_controller, onboard, tenant_payload

from repro.core.controller import Controller
from repro.core.journal import ControllerCrash, Journal
from repro.core.splitting import ClusterCapacity, TableSplitter
from repro.cluster.ecmp import VniSteeredBalancer
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.telemetry.artifacts import artifact_dir


def journaled_controller(*specs, seed=11):
    ctrl = make_controller()
    ctrl.journal = Journal()
    plan = FaultPlan(seed=seed, specs=list(specs))
    FaultInjector(plan).arm_controller(ctrl)
    return ctrl, plan


def recover_into_new_controller(crashed):
    """Stand up a fresh controller over the survivors' clusters (the
    gateways kept their tables; only the controller process died)."""
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13)),
        VniSteeredBalancer(),
        clusters=crashed.clusters,
    )
    writes = ctrl.recover(crashed.journal)
    return ctrl, writes


def save_artifacts(name, journal):
    """Drop the journal + replayed state where CI can upload them."""
    art_dir = artifact_dir("crash-recovery")
    if art_dir is None:
        return
    with open(os.path.join(art_dir, f"{name}.journal"), "wb") as fh:
        fh.write(journal.dump())
    with open(os.path.join(art_dir, f"{name}.state.json"), "w") as fh:
        json.dump(journal.materialize(), fh, indent=2, sort_keys=True)


class TestCrashRecovery:
    def test_crash_mid_onboard_recovers_to_consistent_cluster(self):
        # Mutation 2 is the onboard's install-vm: the VM is journalled
        # but dies before reaching any gateway.
        ctrl, plan = journaled_controller(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(2,)))
        with pytest.raises(ControllerCrash, match="install-vm"):
            onboard(ctrl)
        assert plan.injected(FaultKind.CONTROLLER_CRASH) == 1
        save_artifacts("crash-mid-onboard", ctrl.journal)

        recovered, writes = recover_into_new_controller(ctrl)
        cluster_id = recovered.plan.assignments[100]
        # The journalled VM was pushed to all 4 gateways during recovery.
        assert writes == 4
        assert recovered.consistency_check(cluster_id) == []
        assert recovered.probe(cluster_id).ok
        assert recovered.counters["recoveries"] == 1

    def test_crash_on_add_tenant_recovers_placement(self):
        ctrl, _plan = journaled_controller(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(0,)))
        with pytest.raises(ControllerCrash, match="add-tenant"):
            onboard(ctrl)

        recovered, _writes = recover_into_new_controller(ctrl)
        # The tenant's placement survived even though no entry did.
        cluster_id = recovered.plan.assignments[100]
        assert recovered.balancer.cluster_for_vni(100) == cluster_id
        assert recovered.consistency_check(cluster_id) == []
        # The recovered controller keeps serving mutations.
        _profile, routes, _vms = tenant_payload(100)
        recovered.install_route(cluster_id, routes[0])
        assert recovered.consistency_check(cluster_id) == []

    def test_recovered_intent_matches_pre_crash_journal(self):
        ctrl, _plan = journaled_controller(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(4,)))
        cluster_id, _routes, _vms = onboard(ctrl, vni=100)
        with pytest.raises(ControllerCrash):
            onboard(ctrl, vni=101, subnet="192.168.11.0/24", vm="192.168.11.2")

        recovered, _writes = recover_into_new_controller(ctrl)
        # The rebuilt desired state is exactly what the journal holds.
        assert recovered._intent_state() == ctrl.journal.materialize()
        assert recovered.consistency_check(cluster_id) == []

    def test_recovery_replays_snapshot_plus_tail(self):
        # Mutations: add-tenant 0, install-route 1, install-vm 2 (the
        # onboard), then post-snapshot install-route 3 and install-vm 4.
        ctrl, _plan = journaled_controller(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(4,)))
        cluster_id, _routes, _vms = onboard(ctrl, vni=100)
        ctrl.snapshot()
        assert ctrl.journal.snapshot_seq == 2
        _profile, routes, vms = tenant_payload(101, subnet="192.168.11.0/24",
                                               vm="192.168.11.2")
        ctrl.install_route(cluster_id, routes[0])
        with pytest.raises(ControllerCrash):
            ctrl.install_vm(cluster_id, vms[0])
        save_artifacts("crash-after-snapshot", ctrl.journal)

        recovered, writes = recover_into_new_controller(ctrl)
        # Only the post-snapshot VM was missing from the gateways.
        assert writes == 4
        assert recovered.consistency_check(cluster_id) == []

    def test_same_seed_same_ops_byte_identical_journal(self):
        def run():
            ctrl, _plan = journaled_controller(
                FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(2,)),
                seed=23)
            with pytest.raises(ControllerCrash):
                onboard(ctrl)
            return ctrl.journal.dump()

        assert run() == run()

    def test_clean_run_journal_replays_without_faults(self):
        ctrl, plan = journaled_controller()
        cluster_id, _routes, _vms = onboard(ctrl)
        assert plan.injected(FaultKind.CONTROLLER_CRASH) == 0
        recovered, writes = recover_into_new_controller(ctrl)
        # Gateways already match the journal: recovery writes nothing.
        assert writes == 0
        assert recovered.consistency_check(cluster_id) == []
