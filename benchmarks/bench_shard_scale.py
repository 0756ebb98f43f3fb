"""Million-tenant sharded control plane: churn latency vs shard count.

The §7 scale goal is O(10M) routes under sustained churn. This bench
builds a region of ``SHARD_BENCH_VNIS`` tenants (default 1M, 10 routes +
1 VM each => 10M routes) behind 4 and then 16 shards, applies a sustained
route-churn workload through the sharded facade, and measures:

* per-update latency (p50/p99) — must stay flat as the shard count
  grows, because every update is O(1) against its owning shard;
* per-shard snapshot/compaction cost — must *shrink* as shards are
  added, because each checkpoint covers only its own range;
* cross-shard 2PC throughput for peer chains spanning shards.

Gateways in that run are O(1) null sinks: its subject is the control
plane (journal appends, split-plan lookups, per-tenant indexes, 2PC
markers), not table microstructure, which has its own benches.

A null sink holds no table, so it cannot show a commit cost that grows
with the member's table. The second run therefore commits the same kind
of transactions on real XGW-H members (two plus a hot backup) holding
``SHARD_BENCH_REAL_ROUTES`` routes each, and gates that the
per-route transactional cost at the largest table stays within 2x of the
smallest. It also splits that cost by layer: journal encode, journal
append, per-member prepare, and commit.

Scaled down by env knobs for CI (see .github/workflows/ci.yml, which
runs a 50k-VNI smoke and the 1k/16k real-member run); the run emits
``BENCH_shard.json`` under ``$REPRO_ARTIFACT_DIR/shard/`` (default: the
working directory).
"""

import json
import os
import time
from collections import defaultdict

import pytest

import repro.core.controller as controller_module
from conftest import emit
from repro.core.controller import Controller, RouteEntry, VmEntry
from repro.core.journal import Journal
from repro.core.xgw_h import XgwH
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.cluster.cluster import GatewayCluster
from repro.net.addr import Prefix
from repro.shard import ShardedController
from repro.sim.rand import derive
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.telemetry.artifacts import artifact_dir

NUM_VNIS = int(os.environ.get("SHARD_BENCH_VNIS", "1000000"))
ROUTES_PER = int(os.environ.get("SHARD_BENCH_ROUTES_PER", "10"))
CHURN_OPS = int(os.environ.get("SHARD_BENCH_CHURN", "4000"))
XTXNS = int(os.environ.get("SHARD_BENCH_XTXNS", "200"))
SHARD_COUNTS = tuple(
    int(n) for n in os.environ.get("SHARD_BENCH_SHARDS", "4,16").split(","))
SEED = 2021
#: Routes per real member, smallest first; the per-route commit cost at
#: each must stay within 2x of the smallest.
REAL_ROUTES = tuple(
    int(n) for n in os.environ.get("SHARD_BENCH_REAL_ROUTES",
                                   "1000,16000,50000").split(","))
REAL_TXNS = 400
REAL_ROUTES_PER_TENANT = 100

#: The VNI space the bench tenants occupy (dense from 0).
VNI_SPACE = max(NUM_VNIS, 1 << 10)

#: Shared immutable entry payloads — the control plane keys by
#: (vni, prefix), so reusing the Prefix objects changes nothing except
#: the cost of building the workload.
PREFIXES = [Prefix.parse(f"10.{i}.0.0/16") for i in range(ROUTES_PER)]
CHURN_PREFIX = Prefix.parse("172.16.0.0/12")
LOCAL = RouteAction(Scope.LOCAL)
BINDING = NcBinding(nc_ip=0x0A010101)


class _NullRouting:
    @staticmethod
    def items():
        return ()

    @staticmethod
    def get(vni, prefix):
        return None


class _NullVmNc:
    @staticmethod
    def lookup(vni, vm_ip, version):
        return None


class _NullTables:
    routing = _NullRouting()
    vm_nc = _NullVmNc()


class NullGateway:
    """Accepts every write in O(1) and stores nothing."""

    tables = _NullTables()

    def install_route(self, *args, **kwargs):
        pass

    def install_vm(self, *args, **kwargs):
        pass

    def remove_route(self, *args, **kwargs):
        pass

    def remove_vm(self, *args, **kwargs):
        pass


def build_region(num_shards):
    def factory(cluster_id):
        return GatewayCluster(cluster_id, [(f"{cluster_id}-gw0", NullGateway())])

    # Capacity sized so each shard packs its whole range into one
    # cluster: placement stays O(1) and the journal stream per shard is
    # the interesting cost.
    capacity = ClusterCapacity(routes=NUM_VNIS * ROUTES_PER,
                               vms=NUM_VNIS, traffic_bps=1e18)
    sharded = ShardedController.build(
        num_shards, capacity, cluster_factory=factory,
        vni_space=VNI_SPACE, segment_bytes=1 << 20)

    started = time.perf_counter()
    for vni in range(NUM_VNIS):
        sharded.add_tenant(TenantProfile(vni, ROUTES_PER, 1, 1.0), [], [])
        with sharded.transaction(vni) as txn:
            for prefix in PREFIXES:
                txn.install_route(RouteEntry(vni, prefix, LOCAL))
            txn.install_vm(VmEntry(vni, 0xC0A80000 + (vni & 0xFFFF), 4,
                                   BINDING))
    build_seconds = time.perf_counter() - started
    return sharded, build_seconds


def run_churn(sharded, rng):
    """Sustained single-tenant churn; returns per-update seconds."""
    latencies = []
    for _ in range(CHURN_OPS):
        vni = rng.randrange(NUM_VNIS)
        started = time.perf_counter()
        sharded.install_route(RouteEntry(vni, CHURN_PREFIX, LOCAL))
        sharded.remove_route(vni, CHURN_PREFIX)
        latencies.append((time.perf_counter() - started) / 2.0)
    return latencies


def run_xtxns(sharded, rng):
    """Cross-shard peer installs through the 2PC; returns seconds total."""
    num_shards = sharded.router.num_shards
    if num_shards < 2 or XTXNS == 0:
        return 0.0
    stride = VNI_SPACE // num_shards  # a and b always on different shards
    started = time.perf_counter()
    for i in range(XTXNS):
        a = rng.randrange(min(stride, NUM_VNIS))
        b = (a + stride) % NUM_VNIS
        with sharded.cross_transaction() as xtxn:
            xtxn.install_route(RouteEntry(a, CHURN_PREFIX,
                                          RouteAction(Scope.PEER,
                                                      next_hop_vni=b)))
            xtxn.install_route(RouteEntry(b, CHURN_PREFIX,
                                          RouteAction(Scope.PEER,
                                                      next_hop_vni=a)))
        with sharded.cross_transaction() as xtxn:
            xtxn.remove_route(a, CHURN_PREFIX)
            xtxn.remove_route(b, CHURN_PREFIX)
    return time.perf_counter() - started


def snapshot_all(sharded):
    """Checkpoint every shard, one at a time; returns per-shard seconds."""
    costs = {}
    for sid in sorted(sharded.shards):
        started = time.perf_counter()
        sharded.snapshot(sid)
        costs[sid] = time.perf_counter() - started
    return costs


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(num_shards):
    rng = derive(SEED, "shard-bench", num_shards)
    sharded, build_seconds = build_region(num_shards)
    entries = sum(s.entry_counts()["routes"] for s in sharded.shards.values())

    churn_cold = run_churn(sharded, rng)   # against un-compacted journals
    snap_costs = snapshot_all(sharded)     # per-shard compaction pause
    churn_warm = run_churn(sharded, rng)   # against compacted journals
    xtxn_seconds = run_xtxns(sharded, rng)

    latencies = churn_cold + churn_warm
    telemetry = sharded.shard_status()
    return {
        "shards": num_shards,
        "vnis": NUM_VNIS,
        "routes": entries,
        "build_seconds": round(build_seconds, 3),
        "update_p50_us": round(percentile(latencies, 0.50) * 1e6, 2),
        "update_p99_us": round(percentile(latencies, 0.99) * 1e6, 2),
        "updates_per_second": round(len(latencies) * 1.0 /
                                    max(sum(latencies), 1e-9)),
        "snapshot_seconds_max": round(max(snap_costs.values()), 3),
        "snapshot_seconds_sum": round(sum(snap_costs.values()), 3),
        "xtxns": XTXNS * 2,
        "xtxn_seconds": round(xtxn_seconds, 3),
        "xtxns_committed": sharded.counters["xtxns_committed"],
        "tail_records_max": max(t["tail_records"] for t in telemetry),
        "segments_max": max(t["segments"] for t in telemetry),
        "snapshot_bytes_max": max(t["snapshot_bytes"] for t in telemetry),
        "per_shard": telemetry,
    }


@pytest.fixture(scope="module")
def artifact():
    """``BENCH_shard.json``: each test adds its section; the file is
    written once they have run, failed ones included."""
    sections = {}
    yield sections
    art_dir = artifact_dir("shard", default=".")
    with open(os.path.join(art_dir, "BENCH_shard.json"), "w") as fh:
        json.dump(sections, fh, indent=2, sort_keys=True)


def test_shard_scale_churn(artifact):
    results = [measure(n) for n in SHARD_COUNTS]

    rows = []
    for r in results:
        rows.append((f"{r['shards']} shards", "p99 flat",
                     f"{r['update_p99_us']:.0f} us"))
        rows.append((f"{r['shards']} shards snapshot(max)", "O(shard)",
                     f"{r['snapshot_seconds_max']:.2f} s"))
    emit(f"Sharded control plane ({NUM_VNIS} VNIs, "
         f"{results[0]['routes']} routes)", rows,
         header=("config", "expectation", "measured"))

    artifact.update(vnis=NUM_VNIS, routes_per_tenant=ROUTES_PER,
                    churn_ops=CHURN_OPS, results=results)

    # Every tenant onboarded on every config, with the full route load.
    for r in results:
        assert r["routes"] == NUM_VNIS * ROUTES_PER
        assert r["xtxns_committed"] == (r["xtxns"] if r["shards"] > 1 else 0)
        # Compaction really pruned the per-shard tails.
        assert r["tail_records_max"] <= 3 * CHURN_OPS + 4 * XTXNS + 16

    # Single-shard updates are O(1): p99 must not grow with the shard
    # count (allow 3x for scheduler noise on shared CI runners).
    if len(results) > 1:
        p99s = [r["update_p99_us"] for r in results]
        assert max(p99s) <= 3.0 * max(min(p99s), 1.0), p99s

    # Per-shard checkpoint pause shrinks as shards are added: the most
    # expensive single-shard snapshot with more shards must not exceed
    # the one with fewer (each covers a smaller range).
    if len(results) > 1:
        assert results[-1]["snapshot_seconds_max"] <= \
            1.5 * results[0]["snapshot_seconds_max"] + 0.05


# -- real members: per-route transactional cost vs table size --------------


class LayerClock:
    """Self time per wrapped function, nested wrapped calls excluded
    (a commit's own journal append counts as append, not commit)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn):
        clock, stack, self_s = time.perf_counter, self._stack, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper


def churn_prefix(i):
    return Prefix((172 << 24) | (16 << 16) | i, 32, 4)


def build_real_region(routes_per_member):
    """One shard, one cluster of two XgwH members plus a one-member hot
    backup, filled to *routes_per_member* routes by onboarding tenants of
    REAL_ROUTES_PER_TENANT routes each (one of them a churn /32).
    Returns the region and each tenant's current churn prefix."""
    counter = [0]

    def gateway():
        counter[0] += 1
        return XgwH(gateway_ip=(10 << 24) | counter[0])

    def factory(cluster_id):
        nodes = [(f"{cluster_id}-gw{i}", gateway()) for i in range(2)]
        backup = GatewayCluster(f"{cluster_id}-backup",
                                [(f"{cluster_id}-bk0", gateway())])
        return GatewayCluster(cluster_id, nodes, backup=backup)

    tenants = routes_per_member // REAL_ROUTES_PER_TENANT
    sharded = ShardedController.build(
        1, ClusterCapacity(routes=routes_per_member, vms=1, traffic_bps=1e18),
        cluster_factory=factory, segment_bytes=1 << 20)
    current = {}
    for vni in range(1, tenants + 1):
        current[vni] = churn_prefix(vni)
        routes = [RouteEntry(vni, Prefix((10 << 24) | (vni << 12) | (i << 4), 28, 4),
                             LOCAL)
                  for i in range(REAL_ROUTES_PER_TENANT - 1)]
        routes.append(RouteEntry(vni, current[vni], LOCAL))
        sharded.add_tenant(TenantProfile(vni, REAL_ROUTES_PER_TENANT, 0, 1.0),
                           routes, [])
    return sharded, current


def move_routes(sharded, current, rng, txns):
    """*txns* transactions, each moving one tenant's churn route (remove
    the current /32, install a fresh one: two route ops, table size
    unchanged); returns per-txn seconds."""
    latencies = []
    for _ in range(txns):
        vni = rng.randrange(1, len(current) + 1)
        new = churn_prefix(len(current) + 1 + sharded.version)
        started = time.perf_counter()
        with sharded.transaction(vni) as txn:
            txn.remove_route(vni, current[vni])
            txn.install_route(RouteEntry(vni, new, LOCAL))
        latencies.append(time.perf_counter() - started)
        current[vni] = new
    return latencies


def measure_real(routes_per_member):
    rng = derive(SEED, "shard-bench-real", routes_per_member)
    sharded, current = build_real_region(routes_per_member)
    move_routes(sharded, current, rng, REAL_TXNS // 4)  # warm-up
    # Best of three passes (as timeit keeps its fastest repeat), so a
    # slow phase of a shared runner does not read as table-size cost.
    latencies = min((move_routes(sharded, current, rng, REAL_TXNS)
                     for _ in range(3)), key=lambda xs: percentile(xs, 0.50))
    # Per-layer split, from a second pass with the layers wrapped.
    clock = LayerClock()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller_module, "encode_op",
                   clock.wrap("encode", controller_module.encode_op))
        mp.setattr(Journal, "append", clock.wrap("append", Journal.append))
        mp.setattr(Controller, "_prepare", clock.wrap("prepare", Controller._prepare))
        mp.setattr(Controller, "_finish_commit",
                   clock.wrap("commit", Controller._finish_commit))
        traced = move_routes(sharded, current, rng, REAL_TXNS)
    per_route = 1e6 / (2 * REAL_TXNS)
    layers = {f"{name}_us": round(s * per_route, 3)
              for name, s in sorted(clock.self_s.items())}
    layers["other_us"] = round(sum(traced) * per_route - sum(layers.values()), 3)
    (cluster,) = sharded.shards["s00"].controller.clusters.values()
    members = cluster.all_members()
    return {
        "routes_per_member": len(members[0].gateway.tables.routing),
        "members": len(members),
        "txns": REAL_TXNS,
        "txn_p50_us": round(percentile(latencies, 0.50) * 1e6, 2),
        "txn_p99_us": round(percentile(latencies, 0.99) * 1e6, 2),
        # Each txn moves one route: a remove plus an install.
        "route_p50_us": round(percentile(latencies, 0.50) * 1e6 / 2, 2),
        "layers_per_route": layers,
        "consistent": sharded.consistency_check() == {},
    }


def test_real_member_commit_cost_is_flat(artifact):
    results = [measure_real(n) for n in REAL_ROUTES]
    emit("Transactional route move on real XGW-H members "
         "(2 + hot backup)",
         [(f"{r['routes_per_member']} routes/member", "flat (<=2x)",
           f"{r['route_p50_us']:.0f} us/route") for r in results],
         header=("config", "expectation", "measured"))
    artifact["real_members"] = {"txns": REAL_TXNS, "results": results}
    for r, target in zip(results, REAL_ROUTES):
        assert r["consistent"]
        assert r["routes_per_member"] == target
    base = results[0]["route_p50_us"]
    for r in results[1:]:
        assert r["route_p50_us"] <= 2.0 * base, \
            [x["route_p50_us"] for x in results]
