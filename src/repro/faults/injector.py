"""The fault injector: arms gateways, controllers and engines with a plan.

Injection sits between the controller's replication path and the
gateway tables: every armed member's gateway is replaced by a
:class:`FaultyGateway` proxy that consults the :class:`FaultPlan` on
each ``install_route``/``install_vm`` and drops, corrupts or rejects the
write accordingly. Reads (consistency checks, probes, forwarding) pass
through untouched, so the *detection* machinery sees exactly what a
buggy gateway agent would have left behind.

Scheduled faults (member crash/flap) register on the simulation engine
and go through the cluster's normal health path: the member is taken
offline/online and, when a :class:`~repro.cluster.health.HealthMonitor`
is attached, a ``NODE_DOWN`` observation is fed to it so the §6.1
disaster-recovery reactions fire.
"""

from __future__ import annotations

from dataclasses import replace
from fnmatch import fnmatchcase
from typing import Dict, Optional

from ..cluster.cluster import GatewayCluster
from ..cluster.health import HealthMonitor, Signal
from ..core.journal import ControllerCrash
from ..sim.engine import Engine
from ..tables.errors import TableError
from ..tables.vm_nc import NcBinding
from ..tables.vxlan_routing import RouteAction
from .plan import FaultKind, FaultPlan, InjectedFault

_DROP_KINDS = {
    FaultKind.DROP_ROUTE_WRITE,
    FaultKind.DROP_VM_WRITE,
    FaultKind.PARTIAL_ONBOARD,
    FaultKind.STALE_BACKUP,
}
_FAIL_KINDS = {FaultKind.FAIL_ROUTE_WRITE, FaultKind.FAIL_VM_WRITE}


def corrupt_route_action(action: RouteAction) -> RouteAction:
    """A deterministically-wrong variant of *action* (bit-rot stand-in)."""
    return replace(action, target=f"{action.target or ''}!corrupt")


def corrupt_binding(binding: NcBinding) -> NcBinding:
    """Mis-point the VM at a neighbouring NC (same family, wrong host)."""
    return NcBinding(nc_ip=binding.nc_ip ^ 0x2, nc_version=binding.nc_version)


class FaultyGateway:
    """A transparent gateway proxy that misapplies writes per the plan.

    Only the mutation paths are overridden; every other attribute —
    ``tables``, ``split_vm_nc``, ``forward`` — delegates to the wrapped
    gateway, so consistency checks and probes observe the real state.
    """

    def __init__(self, inner, plan: FaultPlan, cluster_id: str, node: str,
                 is_backup: bool = False):
        self._inner = inner
        self._plan = plan
        self._cluster_id = cluster_id
        self._node = node
        self._is_backup = is_backup

    @property
    def wrapped(self):
        """The real gateway underneath."""
        return self._inner

    def install_route(self, vni, prefix, action, replace=False) -> None:
        kind = self._plan.decide_write("route", self._cluster_id, self._node,
                                       self._is_backup)
        if kind in _DROP_KINDS:
            return
        if kind in _FAIL_KINDS:
            raise TableError(
                f"injected {kind.value} on {self._node}: vni={vni} {prefix}"
            )
        if kind is FaultKind.CORRUPT_ROUTE_WRITE:
            action = corrupt_route_action(action)
        self._inner.install_route(vni, prefix, action, replace=replace)

    def install_vm(self, vni, vm_ip, version, binding, replace=False) -> None:
        kind = self._plan.decide_write("vm", self._cluster_id, self._node,
                                       self._is_backup)
        if kind in _DROP_KINDS:
            return
        if kind in _FAIL_KINDS:
            raise TableError(
                f"injected {kind.value} on {self._node}: vni={vni} vm={vm_ip:#x}"
            )
        if kind is FaultKind.CORRUPT_VM_WRITE:
            binding = corrupt_binding(binding)
        self._inner.install_vm(vni, vm_ip, version, binding, replace=replace)

    def remove_route(self, vni, prefix):
        """Delete-path faults: a DROP or CORRUPT kind misapplies the
        delete, so the entry survives on the gateway ("extra-route")."""
        kind = self._plan.decide_write("route", self._cluster_id, self._node,
                                       self._is_backup)
        if kind in _DROP_KINDS or kind is FaultKind.CORRUPT_ROUTE_WRITE:
            return None
        if kind in _FAIL_KINDS:
            raise TableError(
                f"injected {kind.value} on {self._node}: remove vni={vni} {prefix}"
            )
        return self._inner.remove_route(vni, prefix)

    def remove_vm(self, vni, vm_ip, version):
        kind = self._plan.decide_write("vm", self._cluster_id, self._node,
                                       self._is_backup)
        if kind in _DROP_KINDS or kind is FaultKind.CORRUPT_VM_WRITE:
            return None
        if kind in _FAIL_KINDS:
            raise TableError(
                f"injected {kind.value} on {self._node}: remove vni={vni} vm={vm_ip:#x}"
            )
        return self._inner.remove_vm(vni, vm_ip, version)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FaultInjector:
    """Wires a :class:`FaultPlan` into clusters, a controller and an engine.

    >>> from repro.faults import FaultPlan
    >>> injector = FaultInjector(FaultPlan(seed=1))
    >>> injector.plan.seed
    1
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    # -- write-path arming -------------------------------------------------

    def arm_cluster(self, cluster: GatewayCluster,
                    cluster_id: Optional[str] = None) -> GatewayCluster:
        """Wrap every member gateway (and the hot backup's) in the proxy."""
        cid = cluster_id if cluster_id is not None else cluster.cluster_id
        for member in cluster.members():
            if not isinstance(member.gateway, FaultyGateway):
                member.gateway = FaultyGateway(
                    member.gateway, self.plan, cid, member.name, is_backup=False
                )
        if cluster.backup is not None:
            for member in cluster.backup.members():
                if not isinstance(member.gateway, FaultyGateway):
                    member.gateway = FaultyGateway(
                        member.gateway, self.plan, cid, member.name, is_backup=True
                    )
        return cluster

    def arm_controller(self, controller) -> None:
        """Arm all of a controller's clusters, present and future.

        Existing clusters are wrapped in place; the cluster factory is
        wrapped so clusters allocated later are armed on creation;
        ``add_tenant`` is bracketed so the plan can delimit onboard
        windows for :data:`FaultKind.PARTIAL_ONBOARD`; and the
        controller's crash gate is armed so
        :data:`FaultKind.CONTROLLER_CRASH` specs can kill it between a
        journal append and the cluster push.
        """
        for cid, cluster in controller.clusters.items():
            self.arm_cluster(cluster, cid)
        factory = controller._cluster_factory
        if factory is not None:
            def arming_factory(cluster_id, _factory=factory):
                return self.arm_cluster(_factory(cluster_id), cluster_id)

            controller.set_cluster_factory(arming_factory)
        original_add = controller.add_tenant

        def add_tenant(profile, routes, vms, time=0.0):
            self.plan.begin_onboard(profile.vni)
            try:
                return original_add(profile, routes, vms, time=time)
            finally:
                self.plan.end_onboard()

        controller.add_tenant = add_tenant

        def crash_gate(op, cluster_id):
            kind = self.plan.decide_mutation(op, cluster_id)
            if kind is FaultKind.CONTROLLER_CRASH:
                raise ControllerCrash(
                    f"injected controller-crash during {op} on {cluster_id}"
                )

        controller.crash_gate = crash_gate

    def arm_sharded(self, sharded) -> None:
        """Arm a :class:`~repro.shard.ShardedController`: every shard's
        controller (write faults, per-shard mutation crashes) plus the
        sharded 2PC stage gate.

        The 2PC stages route through ``decide_mutation`` with the stage
        name as the op and the *shard id* as the cluster, so a spec like
        ``FaultSpec(CONTROLLER_CRASH, cluster="s01", at_op="xtxn-prepare",
        max_fires=1)`` kills a participant between prepares, and
        ``at_op="xtxn-decide"`` kills the coordinator just before the
        commit point becomes durable.
        """
        for sid in sorted(sharded.shards):
            self.arm_controller(sharded.shards[sid].controller)

        def crash_gate(stage, shard_id):
            kind = self.plan.decide_mutation(stage, shard_id)
            if kind is FaultKind.CONTROLLER_CRASH:
                raise ControllerCrash(
                    f"injected controller-crash at {stage} on {shard_id}"
                )

        sharded.crash_gate = crash_gate

    def arm_migrator(self, migrator) -> None:
        """Arm an :class:`~repro.migration.EndpointMigrator`'s phase gate
        so :data:`FaultKind.MIGRATION_STALL` specs can hang its phases."""
        migrator.fault_gate = self.plan.decide_phase

    # -- flow-cache poisoning ----------------------------------------------

    def poison_caches(self, clusters: Dict[str, GatewayCluster]) -> int:
        """Apply the plan's :data:`FaultKind.POISON_FLOW_CACHE` specs.

        For each matching member carrying a non-empty decision memo
        (``flow_cache``, which ``forward`` and ``forward_batch`` share),
        the oldest resident DELIVER_NC entry is corrupted in place: its
        NC IP is mis-pointed (same perturbation as
        :func:`corrupt_binding`), and its rewrite template and prototype
        result are dropped so every later hit — a replayed interned
        packet included — really delivers to the wrong host. The entry's
        generation vector is left untouched — the memo's own staleness
        guard stays green, which is exactly the corruption class only an
        audit recompute can catch. Returns how many entries were
        poisoned.
        """
        poisoned = 0
        for index, spec in self.plan.cache_specs():
            for cid in sorted(clusters):
                if not fnmatchcase(cid, spec.cluster):
                    continue
                for member in clusters[cid].all_members():
                    if not self.plan.can_fire(index):
                        break
                    if not fnmatchcase(member.name, spec.node):
                        continue
                    cache = getattr(member.gateway, "flow_cache", None)
                    if cache is None:
                        continue
                    target = next(((key, entry) for key, entry in cache.items()
                                   if entry.nc_ip is not None), None)
                    if target is None:
                        continue
                    key, entry = target
                    entry.nc_ip ^= 0x2
                    # Hits now rebuild from the bad NC IP.
                    entry.outer_in = None
                    entry.proto_packet = entry.proto_result = None
                    self.plan.mark_fired(index)
                    self.plan.record(InjectedFault(
                        spec.kind, cid, member.name,
                        detail=f"key={key}",
                    ))
                    poisoned += 1
        return poisoned

    # -- scheduled faults ---------------------------------------------------

    def schedule(self, engine: Engine, clusters: Dict[str, GatewayCluster],
                 monitor: Optional[HealthMonitor] = None) -> int:
        """Register the plan's crash/flap specs on *engine*; returns how
        many outages were scheduled."""
        scheduled = 0
        for index, spec in self.plan.scheduled_specs():
            for cid in sorted(clusters):
                if not fnmatchcase(cid, spec.cluster):
                    continue
                cluster = clusters[cid]
                for member in cluster.members():
                    if not fnmatchcase(member.name, spec.node):
                        continue
                    self._schedule_outage(engine, index, spec, cluster, cid,
                                          member.name, monitor)
                    scheduled += 1
        return scheduled

    def _schedule_outage(self, engine, index, spec, cluster, cid, name, monitor):
        def down():
            cluster.take_offline(name)
            detail = "offline"
            if spec.kind is FaultKind.DPU_DEVICE_FAIL:
                # Device death loses the on-device session state too; the
                # planner's drain then moves the steering to x86.
                member = cluster.find_member(name)
                device = getattr(member.gateway, "wrapped", member.gateway)
                if hasattr(device, "fail"):
                    device.fail()
                    detail = "offline+sessions-lost"
            self.plan.mark_fired(index)
            self.plan.record(InjectedFault(
                spec.kind, cid, name, time=engine.now, detail=detail,
            ))
            if monitor is not None:
                monitor.observe(f"{cid}/{name}", Signal.NODE_DOWN, 1.0,
                                time=engine.now)

        engine.schedule(spec.at_time, down)
        if spec.kind is FaultKind.MEMBER_FLAP:
            def up():
                cluster.bring_online(name)
                self.plan.record(InjectedFault(
                    spec.kind, cid, name, time=engine.now, detail="online",
                ))

            engine.schedule(spec.at_time + spec.down_for, up)
