"""The ``control_churn`` workload: the write path on real gateways.

A :class:`~repro.shard.ShardedController` with 4 shards whose clusters
are real :class:`~repro.core.xgw_h.XgwH` members (2 active plus a hot
backup). Every tenant is onboarded through ``add_tenant``; then a
seeded stream of updates runs:

* single-shard ``transaction(vni)`` updates that move one of the
  tenant's routes (a /28) and the VM inside it: the old route and VM are
  removed and a new pair installed in the same transaction, so every
  install is balanced by a remove, table size stays stationary, and
  every update has the same shape (alternating install-only and
  remove-only updates would give ``update_p50_ms`` two modes of equal
  weight, and a median that jumps between them);
* every tenth update a ``cross_transaction`` that moves a peer chain
  spanning two shards the same way (each end holds its PEER hop, the
  remote terminal route and the remote VM);
* every ``snapshot_every`` single updates, a snapshot of the updated
  shard inside that update.

After each commit one small probe burst goes through
``XgwH.forward_batch`` on an active member of the owning cluster (both
owning clusters for a peer chain) and must show the update: the new
address delivers to its NC, the old one falls to the tenant's SNAT
default. An update's time is its commit plus that first probe. The run
ends with a crash injected into one more transaction after its journal
append, then ``ShardedController.recover_from`` on the crashed
controller.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import GateFailure, check, percentile, steady_timings

from repro.cluster.cluster import GatewayCluster
from repro.core.controller import RouteEntry, TransactionAborted, VmEntry
from repro.core.journal import ControllerCrash
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import ForwardAction
from repro.net.addr import Prefix
from repro.shard import ShardedController
from repro.shard.router import ShardRouter
from repro.sim.rand import derive
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet

LOCAL = RouteAction(Scope.LOCAL)
SNAT = RouteAction(Scope.SERVICE, target="snat")
DEFAULT_V4 = Prefix(0, 0, 4)
#: Pools the churned entries come from, disjoint from tenant subnets
#: (10/8): single updates use /28s of 172.16/12, peer chains of 100.64/10.
CHURN_BASE = (172 << 24) | (16 << 16)
PEER_BASE = (100 << 24) | (64 << 16)

Expect = Tuple[str, str, Optional[int]]
_SNAT_EXPECT: Expect = (ForwardAction.REDIRECT_X86.value, "snat", None)


SHARDS = 4
#: Every CROSS_EVERY-th update is a cross-shard peer-chain move.
CROSS_EVERY = 10
PROBE_LANES = 16


@dataclass(frozen=True)
class ChurnSize:
    tenants_per_shard: int = 40
    subnets_per_tenant: int = 24
    vms_per_tenant: int = 20
    #: Routes per cluster: 20 tenants of 26 routes fill one, so each
    #: shard runs 2 clusters of about 520 routes per member.
    cluster_routes: int = 530
    cluster_vms: int = 1000
    #: Peer chains onboarded at set-up and moved by the cross updates.
    chains: int = 8
    snapshot_every: int = 50
    setups: int = 5


@dataclass
class Entry:
    """One churned /28 route of tenant ``vni`` plus one VM inside it."""

    vni: int
    prefix: Prefix
    vm_ip: int
    nc_ip: int

    def delivers(self) -> Expect:
        return (ForwardAction.DELIVER_NC.value, "local", self.nc_ip)


@dataclass
class Tenant:
    vni: int
    shard: int
    subnets: List[Prefix]
    vms: List[Tuple[int, int]]  # (ip, nc_ip)
    #: The churned entry the tenant is onboarded with.
    entry: Entry

    def profile(self) -> TenantProfile:
        return TenantProfile(self.vni, len(self.subnets) + 2, len(self.vms) + 1, 1e9)

    def routes(self) -> List[RouteEntry]:
        out = [RouteEntry(self.vni, p, LOCAL) for p in self.subnets]
        out.append(RouteEntry(self.vni, DEFAULT_V4, SNAT))
        out.append(RouteEntry(self.vni, self.entry.prefix, LOCAL))
        return out

    def vm_entries(self) -> List[VmEntry]:
        out = [VmEntry(self.vni, ip, 4, NcBinding(nc)) for ip, nc in self.vms]
        out.append(VmEntry(self.vni, self.entry.vm_ip, 4, NcBinding(self.entry.nc_ip)))
        return out


@dataclass
class Probe:
    """A probe burst on active member ``member`` of ``vni``'s cluster."""

    vni: int
    member: int
    packets: list
    expect: List[Expect]


@dataclass
class Update:
    """Move the entries ``old`` to ``new``: one per tenant of ``vnis``,
    which is one tenant, or the two ends of a peer chain."""

    vnis: Tuple[int, ...]
    old: List[Entry]
    new: List[Entry]
    probes: List[Probe]
    snapshot: bool = False

    @property
    def cross(self) -> bool:
        return len(self.vnis) == 2


def _entry(vni: int, base: int, index: int, rng) -> Entry:
    network = base + (index << 4)
    return Entry(vni, Prefix(network, 28, 4), network + 1,
                 (12 << 24) | rng.randrange(1, 1 << 16))


def _stage_move(txn, vni: int, old: Optional[Entry], new: Entry) -> None:
    """Stage removing *old* (if any) and installing *new* for *vni*."""
    if old is not None:
        txn.remove_route(vni, old.prefix)
        txn.remove_vm(vni, old.vm_ip, 4)
    txn.install_route(RouteEntry(vni, new.prefix, LOCAL))
    txn.install_vm(VmEntry(vni, new.vm_ip, 4, NcBinding(new.nc_ip)))


def _stage_chain(xtxn, a: int, b: int, old_a: Optional[Entry], old_b: Optional[Entry],
                 new_a: Entry, new_b: Entry) -> None:
    """Stage moving the peer chain between *a* and *b*: each end holds its
    PEER hop to the other end's entry plus that entry's terminal route
    and VM (gateways resolve chains locally)."""
    for near, far, old, new in ((a, b, old_b, new_b), (b, a, old_a, new_a)):
        if old is not None:
            xtxn.remove_route(near, old.prefix)
            xtxn.remove_route(far, old.prefix, owner=near)
            xtxn.remove_vm(far, old.vm_ip, 4, owner=near)
        xtxn.install_route(RouteEntry(near, new.prefix,
                                      RouteAction(Scope.PEER, next_hop_vni=far)))
        xtxn.install_route(RouteEntry(far, new.prefix, LOCAL), owner=near)
        xtxn.install_vm(VmEntry(far, new.vm_ip, 4, NcBinding(new.nc_ip)), owner=near)


def _tenants(size: ChurnSize, rng) -> List[Tenant]:
    router = ShardRouter(SHARDS)
    tenants = []
    per = size.subnets_per_tenant
    for shard, shard_range in enumerate(router.ranges()):
        for j in range(size.tenants_per_shard):
            k = shard * size.tenants_per_shard + j
            vni = shard_range.lo + 1000 + j
            subnets = [Prefix((10 << 24) | ((k * per + s) << 8), 24, 4)
                       for s in range(per)]
            vms = [(subnets[v % per].network + 10 + v // per,
                    (11 << 24) | rng.randrange(1, 1 << 16))
                   for v in range(size.vms_per_tenant)]
            tenants.append(Tenant(vni, shard, subnets, vms,
                                  _entry(vni, CHURN_BASE, k, rng)))
    return tenants


class ControlChurn:
    name = "control_churn"

    def __init__(self, seed: int, singles: int, size: ChurnSize):
        """*singles* single-shard updates, plus a cross-shard one after
        every nine."""
        self.size = size
        self.seed = seed
        rng = derive(seed, "e2ebench", "churn")
        self.tenants = _tenants(size, rng)
        self.by_vni = {t.vni: t for t in self.tenants}
        self.chains: List[Tuple[int, int, Entry, Entry]] = []
        for c in range(size.chains):
            a = rng.choice(self.tenants)
            b = rng.choice([t for t in self.tenants if t.shard != a.shard])
            self.chains.append((a.vni, b.vni, _entry(a.vni, PEER_BASE, 2 * c, rng),
                                _entry(b.vni, PEER_BASE, 2 * c + 1, rng)))
        self.updates = self._stream(rng, singles)
        self.ops = len(self.updates)
        self.crash_entry = _entry(self.tenants[0].vni, CHURN_BASE, 1 << 15, rng)
        warm = derive(seed, "e2ebench", "warm")
        self.warm_probes = [self._probe(warm, t.vni, [(t.entry.vm_ip, t.entry.delivers())])
                            for t in self.tenants]

    # -- inputs -----------------------------------------------------------

    def _probe(self, rng, vni: int, targets: List[Tuple[int, Expect]]) -> Probe:
        """The first lanes hit *targets*; one lane goes to the Internet
        (SNAT redirect); the rest hit the tenant's own VMs."""
        tenant = self.by_vni[vni]
        src = tenant.vms[0][0]
        internet = (203 << 24) | rng.randrange(1, 1 << 16)
        lanes = list(targets) + [(internet, _SNAT_EXPECT)]
        while len(lanes) < PROBE_LANES:
            ip, nc = tenant.vms[rng.randrange(len(tenant.vms))]
            lanes.append((ip, (ForwardAction.DELIVER_NC.value, "local", nc)))
        packets = [build_vxlan_packet(vni=vni, src_ip=src, dst_ip=ip,
                                      src_port=rng.randrange(1024, 65536))
                   for ip, _want in lanes]
        return Probe(vni, rng.randrange(2), packets, [want for _ip, want in lanes])

    def _stream(self, rng, singles: int) -> List[Update]:
        size = self.size
        current = {t.vni: t.entry for t in self.tenants}
        chains = list(self.chains)
        churn_id = len(self.tenants)
        peer_id = 2 * len(chains)
        updates: List[Update] = []
        done = 0
        while done < singles:
            if len(updates) % CROSS_EVERY == CROSS_EVERY - 1:
                i = (len(updates) // CROSS_EVERY) % len(chains)
                a, b, ea, eb = chains[i]
                na = _entry(a, PEER_BASE, peer_id, rng)
                nb = _entry(b, PEER_BASE, peer_id + 1, rng)
                peer_id += 2
                chains[i] = (a, b, na, nb)
                probes = [self._probe(rng, a, [(nb.vm_ip, nb.delivers()),
                                               (eb.vm_ip, _SNAT_EXPECT)]),
                          self._probe(rng, b, [(na.vm_ip, na.delivers()),
                                               (ea.vm_ip, _SNAT_EXPECT)])]
                updates.append(Update((a, b), [ea, eb], [na, nb], probes))
                continue
            vni = rng.choice(self.tenants).vni
            old = current[vni]
            new = current[vni] = _entry(vni, CHURN_BASE, churn_id, rng)
            churn_id += 1
            done += 1
            probe = self._probe(rng, vni, [(new.vm_ip, new.delivers()),
                                           (old.vm_ip, _SNAT_EXPECT)])
            updates.append(Update((vni,), [old], [new], [probe],
                                  snapshot=done % size.snapshot_every == 0))
        return updates

    # -- setup ------------------------------------------------------------

    def setup(self) -> ShardedController:
        size = self.size
        counter = [0]

        def gateway() -> XgwH:
            counter[0] += 1
            return XgwH(gateway_ip=(10 << 24) | (250 << 16) | counter[0])

        def factory(cluster_id: str) -> GatewayCluster:
            nodes = [(f"{cluster_id}-gw{i}", gateway()) for i in range(2)]
            backup = GatewayCluster(f"{cluster_id}-backup",
                                    [(f"{cluster_id}-bk0", gateway())])
            return GatewayCluster(cluster_id, nodes, backup=backup)

        sharded = ShardedController.build(
            SHARDS,
            ClusterCapacity(routes=size.cluster_routes, vms=size.cluster_vms,
                            traffic_bps=1e18),
            cluster_factory=factory)
        for tenant in self.tenants:
            sharded.add_tenant(tenant.profile(), tenant.routes(), tenant.vm_entries())
        for a, b, ea, eb in self.chains:
            with sharded.cross_transaction() as xtxn:
                _stage_chain(xtxn, a, b, None, None, ea, eb)
        # Warm-up: one probe burst per active member compiles its program.
        for probe in self.warm_probes:
            for member in self._cluster(sharded, probe.vni).active_members():
                self._check_probe(member.gateway.forward_batch(probe.packets), probe, -1)
        return sharded

    @staticmethod
    def _cluster(sharded: ShardedController, vni: int) -> GatewayCluster:
        return sharded.shard_for(vni).clusters[sharded.cluster_of(vni)]

    @staticmethod
    def _check_probe(results, probe: Probe, op: int) -> None:
        for lane, (result, want) in enumerate(zip(results, probe.expect)):
            got = (result.action.value, result.detail, result.nc_ip)
            check(got == want, f"control_churn: update {op} probe on VNI {probe.vni} "
                  f"lane {lane} saw {got}, expected {want}")

    # -- run --------------------------------------------------------------

    def run(self, sharded: ShardedController, tracer=None) -> dict:
        ops = self.ops
        times: List[float] = []
        xtimes: List[float] = []
        probe_times: List[float] = []
        clock = time.perf_counter
        span = nullcontext if tracer is None else tracer.span
        if tracer is not None:
            tracer.phase = "loop"
        for op, update in enumerate(self.updates):
            gateways = [self._cluster(sharded, p.vni).active_members()[p.member].gateway
                        for p in update.probes]
            vni = update.vnis[0]
            if tracer is not None:
                tracer.op = op
            with span("bench.op"):
                start = clock()
                try:
                    if update.cross:
                        with span("shard.cross_commit"):
                            with sharded.cross_transaction() as xtxn:
                                _stage_chain(xtxn, *update.vnis, *update.old, *update.new)
                    else:
                        with span("controller.commit"):
                            with sharded.transaction(vni) as txn:
                                _stage_move(txn, vni, update.old[0], update.new[0])
                        if update.snapshot:
                            sharded.snapshot(sharded.router.shard_of(vni))
                except TransactionAborted as exc:
                    raise GateFailure(f"control_churn: update {op} aborted with no "
                                      f"fault injected: {exc}") from exc
                results = []
                for gateway, probe in zip(gateways, update.probes):
                    probe_start = clock()
                    results.append(gateway.forward_batch(probe.packets))
                    probe_times.append(clock() - probe_start)
                elapsed = clock() - start
            (xtimes if update.cross else times).append(elapsed)
            for got, probe in zip(results, update.probes):
                self._check_probe(got, probe, op)
        findings = sharded.consistency_check()
        check(not findings, f"control_churn: audit findings after churn: {findings}")
        if tracer is not None:
            tracer.phase = "recover"
        recover_s = self._crash_and_recover(sharded)
        return {"ops": ops, "times": times, "xtimes": xtimes,
                "probe_times": probe_times,
                "recover_s": recover_s, "attempted": ops, "aborted": 0}

    def _crash_and_recover(self, sharded: ShardedController) -> float:
        """Crash one more transaction after its journal append, recover
        from the journals, and check the recovered intent."""
        intent = sharded.intent_snapshot()
        entry = self.crash_entry
        controller = sharded.shard_for(entry.vni).controller

        def crash(_op: str, _cluster: str) -> None:
            raise ControllerCrash("injected after the journal append")

        controller.crash_gate = crash
        try:
            with sharded.transaction(entry.vni) as txn:
                _stage_move(txn, entry.vni, None, entry)
        except ControllerCrash:
            pass
        else:
            raise GateFailure("control_churn: the injected crash did not fire")
        start = time.perf_counter()
        recovered, _writes = ShardedController.recover_from(sharded)
        findings = recovered.consistency_check()
        recover_s = time.perf_counter() - start
        check(not findings, f"control_churn: audit findings after recovery: {findings}")
        check(recovered.intent_snapshot() == intent,
              "control_churn: recovered intent differs from the intent before the crash")
        return recover_s

    def verify(self, sharded: ShardedController, out: dict) -> None:
        """Probes, audits and recovery are checked inside :meth:`run`,
        where the state they look at exists."""

    def metrics(self, out: dict) -> Dict[str, float]:
        """The end-to-end numbers of one pass (see ``steady_timings``)."""
        steady = steady_timings(out["times"])
        return {
            "op_p50_ms": steady["p50"] * 1e3,
            "op_p99_ms": steady["p99"] * 1e3,
            "pkts_per_s": PROBE_LANES / steady_timings(out["probe_times"])["mean"],
        }

    def layer_extras(self, out: dict) -> Dict[str, float]:
        return {}

    def report(self, out: dict) -> List[tuple]:
        """Per-workload names (``update_p50_ms``, ``recover_s``, ...) for
        people reading the log."""
        e2e = self.metrics(out)
        xtimes = out["xtimes"]
        return [
            ("update_p50_ms", e2e["op_p50_ms"], "ms"),
            ("update_p99_ms", e2e["op_p99_ms"], "ms"),
            ("updates", len(out["times"]), "count"),
            ("xupdate_p50_ms", percentile(xtimes, 50) * 1e3 if xtimes else 0.0, "ms"),
            ("xupdates", len(xtimes), "count"),
            ("abort_frac", out["aborted"] / out["attempted"], "ratio"),
            ("recover_s", out["recover_s"], "s"),
            ("probe_pkts_per_s", e2e["pkts_per_s"], "pkt/s"),
            ("raw_update_p50_ms", percentile(out["times"], 50) * 1e3, "ms"),
            ("raw_update_p99_ms", percentile(out["times"], 99) * 1e3, "ms"),
        ]
