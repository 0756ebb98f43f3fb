"""Live endpoint migration under a seeded fault matrix (DESIGN §11).

The paper's operational bar for endpoint moves is *hitless*: established
connections survive the migration, and a migration that cannot meet that
bar rolls back (or leaves audit-repairable residue) instead of losing
traffic silently. This bench drives five seeded scenarios through the
full stack — migrator, bounded freeze buffer, transactional commit,
fault injector, audit scanner + repair bridge — and checks:

* committed runs deliver every packet (zero loss, replay included) and
  the freeze window's added p99 latency stays within the blackout
  budget;
* fault runs terminate in the designed state (rolled back to the source
  binding, or crashed with residue the audit clears in one cycle);
* every scenario's event log is byte-identical across two runs of the
  same seed — the replayability property that makes fault runs
  debuggable.

Writes per-scenario event logs and a run summary under
``$REPRO_ARTIFACT_DIR/migration/`` when that variable is set (CI uploads
them on failure).

Benchmarks the full clean-migration cycle (freeze -> commit -> replay)
as the hot path.
"""

import ipaddress
import json
import os

from conftest import emit
from repro.audit import AuditScanner, RepairBridge
from repro.cluster.cluster import GatewayCluster, NodeState
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import (
    Controller,
    RouteEntry,
    VmEntry,
    build_probe_packet,
)
from repro.core.journal import Journal
from repro.core.splitting import ClusterCapacity, TableSplitter, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import DropReason, ForwardAction
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.migration import EndpointMigrator, MigrationStatus
from repro.net.addr import Prefix
from repro.sim.engine import Engine
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.telemetry.artifacts import artifact_dir
from repro.x86.gateway import XgwX86


def ip(text):
    return int(ipaddress.ip_address(text))


VNI = 100
VM_IP = ip("192.168.10.2")
OLD_NC = ip("10.1.1.11")
NEW_NC = ip("10.1.1.99")
BLACKOUT_BUDGET = 1.0
COPY_TIME = 0.5


def make_controller(x86=False):
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13)),
        VniSteeredBalancer(),
        journal=Journal(),
    )

    def factory(cluster_id):
        gw_cls = XgwX86 if x86 else XgwH
        return GatewayCluster(cluster_id, [
            (f"{cluster_id}-gw{i}", gw_cls(gateway_ip=0x0AC00000 + i))
            for i in range(2)
        ])

    ctrl.set_cluster_factory(factory)
    cluster_id = ctrl.add_tenant(
        TenantProfile(VNI, 1, 1, 1e9),
        [RouteEntry(VNI, Prefix.parse("192.168.10.0/24"),
                    RouteAction(Scope.LOCAL))],
        [VmEntry(VNI, VM_IP, 4, NcBinding(OLD_NC))],
    )
    return ctrl, cluster_id


def drive(engine, ctrl, cluster_id, interval=0.1, until=3.0):
    packet = build_probe_packet(VNI, VM_IP)
    log = []

    def tick():
        member = ctrl.clusters[cluster_id].members()[0]
        log.append((engine.now, member.gateway.forward(packet, engine.now)))

    engine.schedule_every(interval, tick, until=until)
    return log


SCENARIOS = {
    # name: (fault specs, x86, buffer capacity, drive interval/until)
    "clean": ((), False, 256, 0.1, 3.0),
    "controller-crash": (
        (FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(0,)),),
        False, 256, 0.1, 1.4),
    "member-crash": (
        (FaultSpec(FaultKind.MEMBER_CRASH, node="*gw0", at_time=1.3),),
        False, 256, 0.1, 1.25),
    "buffer-overflow": ((), True, 2, 0.05, 3.0),
    "commit-stall": (
        (FaultSpec(FaultKind.MIGRATION_STALL, at_phase="commit",
                   stall_for=2.0),),
        False, 256, 0.1, 5.0),
}


def run_scenario(name, seed=7):
    specs, x86, capacity, interval, until = SCENARIOS[name]
    ctrl, cluster_id = make_controller(x86=x86)
    plan = FaultPlan(seed=seed, specs=list(specs))
    injector = FaultInjector(plan)
    injector.arm_controller(ctrl)
    engine = Engine()
    migrator = EndpointMigrator(ctrl, cluster_id, engine,
                                blackout_budget=BLACKOUT_BUDGET,
                                copy_time=COPY_TIME,
                                buffer_capacity=capacity)
    injector.arm_migrator(migrator)
    if name == "member-crash":
        injector.schedule(engine, ctrl.clusters)
    log = drive(engine, ctrl, cluster_id, interval=interval, until=until)
    mid = migrator.migrate_vm(VNI, VM_IP, 4, NcBinding(NEW_NC), start=1.0)
    engine.run()
    record = migrator.records[mid]
    drops = [r for _t, r in log if r.action is ForwardAction.DROP]
    return {
        "ctrl": ctrl,
        "cluster_id": cluster_id,
        "migrator": migrator,
        "record": record,
        "log": log,
        "drops": drops,
        "buffered": sum(1 for _t, r in log
                        if r.action is ForwardAction.BUFFERED),
        "events": migrator.dump_events(),
    }


def audit_repair_cycle(crashed):
    """Recover a fresh controller over the survivors, then run the
    detect -> repair -> rescan cycle; returns the residue left."""
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13)),
        VniSteeredBalancer(),
        clusters=crashed.clusters,
    )
    ctrl.recover(crashed.journal)
    scanner = AuditScanner(ctrl)
    RepairBridge(ctrl).attach(scanner)
    scanner.full_scan()  # detect + repair
    residue = [f for f in scanner.full_scan()
               if f.invariant == "migration-residue"]
    return ctrl, residue


def save_artifacts(results):
    art_dir = artifact_dir("migration")
    if art_dir is None:
        return
    summary = {}
    for name, out in results.items():
        with open(os.path.join(art_dir, f"{name}.events.log"), "wb") as fh:
            fh.write(out["events"])
        record = out["record"]
        summary[name] = {
            "status": record.status,
            "reason": record.reason,
            "buffered": out["buffered"],
            "replayed": record.replayed,
            "replay_lost": record.replay_lost,
            "added_p99_latency": record.added_p99_latency,
            "drops": len(out["drops"]),
        }
    with open(os.path.join(art_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


def test_migration_fault_matrix_is_hitless_and_replayable(benchmark):
    results = {name: run_scenario(name) for name in SCENARIOS}
    save_artifacts(results)

    # Replayability: the same seed produces byte-identical event logs.
    for name in SCENARIOS:
        assert run_scenario(name)["events"] == results[name]["events"], name

    # Committed runs: zero connection loss, p99 within the budget.
    for name in ("clean", "member-crash"):
        out = results[name]
        assert out["record"].status == MigrationStatus.COMMITTED, name
        assert out["drops"] == [] and out["record"].replay_lost == 0, name
        assert out["buffered"] > 0 and \
            out["record"].replayed == out["buffered"], name
        assert out["record"].added_p99_latency <= BLACKOUT_BUDGET, name

    # Bounded-freeze runs roll back to the source binding; the only
    # drops carry the designed migration reasons.
    overflow = results["buffer-overflow"]
    assert overflow["record"].status == MigrationStatus.ROLLED_BACK
    assert overflow["record"].reason == "buffer-overflow"
    assert overflow["drops"] and all(
        r.detail == DropReason.MIGRATION_BUFFER_OVERFLOW.value
        for r in overflow["drops"])
    stall = results["commit-stall"]
    assert stall["record"].status == MigrationStatus.ROLLED_BACK
    assert stall["record"].reason == "blackout-budget-exceeded"
    assert stall["drops"] and all(
        r.detail == DropReason.MIGRATION_BLACKOUT.value
        for r in stall["drops"])
    for out in (overflow, stall):
        after = [r for t, r in out["log"] if t >= 3.6] or \
            [r for t, r in out["log"] if t >= 1.6]
        assert after and all(r.action is ForwardAction.DELIVER_NC
                             and r.nc_ip == OLD_NC for r in after), \
            "rolled-back endpoint must serve on the source binding"

    # Crashed commit: residue survives on the gateways, and one
    # detect+repair audit cycle clears it with every parked packet
    # replayed — the stranded bytes still deliver.
    crash = results["controller-crash"]
    assert crash["record"].status == MigrationStatus.CRASHED
    assert crash["buffered"] > 0
    recovered, residue = audit_repair_cycle(crash["ctrl"])
    assert residue == []
    for member in recovered.clusters[crash["cluster_id"]].members():
        assert not member.gateway.migration.active()

    rows = []
    for name, out in results.items():
        record = out["record"]
        claim = ("committed, 0 loss" if name in ("clean", "member-crash")
                 else "crashed, residue repaired"
                 if name == "controller-crash" else "rolled back, 0 loss")
        rows.append((name, claim,
                     f"{record.status} replay={record.replayed}"
                     f" lost={record.replay_lost}"
                     f" p99=+{record.added_p99_latency:.2f}s"))
    emit("Live migration fault matrix (seed 7)", rows,
         header=("scenario", "designed outcome", "measured"))

    benchmark(run_scenario, "clean")
