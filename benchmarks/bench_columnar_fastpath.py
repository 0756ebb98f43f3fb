"""Columnar batch data plane: compiled bursts vs the scalar table walk.

The columnar executor (DESIGN §13) compiles the placed gateway program
— ACL, per-VNI meters, PEER-chained VXLAN routing, VM-NC, rewrite —
into flat vectorized match-action steps over struct-of-arrays bursts.
This bench replays a Zipf(1.1) stream of interned packets (default one
million; ``COLUMNAR_PACKETS`` overrides, the CI smoke uses 150k) over
the same 512-flow, 3-hop-PEER-chain tenant layout as the flow-cache
bench, with a DENY ACL rule and a metered VNI mixed in, and checks:

* byte-identical results and identical counter/meter state between the
  columnar path (both backends) and the never-cached scalar oracle;
* >= 10x packet-rate speedup for the columnar path over the uncached
  scalar walk, measured burst-for-burst including batch shredding.

Writes ``BENCH_columnar.json`` (under ``$REPRO_ARTIFACT_DIR/columnar/``
when set, else the working directory) so CI accrues the batch-path perf
trajectory per PR — the artifact is written before the speedup gate so
a failing run still uploads its numbers.
"""

import ipaddress
import json
import os
import time

from conftest import emit
from repro.dataplane.columnar import PacketBatch, numpy_available, resolve_backend
from repro.dataplane.gateway_logic import GatewayTables, vni_key
from repro.net.addr import Prefix
from repro.sim.rand import WeightedSampler, derive, zipf_weights
from repro.tables.acl import AclRule, AclVerdict
from repro.tables.meter import TokenBucket
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.telemetry.artifacts import artifact_dir
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86

SEED = 2021
N_VNIS = 32
FLOWS_PER_VNI = 16          # 512 distinct (VNI, dst) flows
PEER_DEPTH = 3              # service-chained peering: 4 LPM resolutions
ZIPF_ALPHA = 1.1
N_PACKETS = int(os.environ.get("COLUMNAR_PACKETS", "1000000"))
BURST = 8192
#: The scalar oracle walks every table per packet; timing it on the full
#: replay would dominate the bench, so its rate is measured on a subset.
ORACLE_PACKETS = min(N_PACKETS, 50_000)
EQUIV_PACKETS = min(N_PACKETS, 20_000)
TIMING_REPEATS = 3
GATEWAY_IP = int(ipaddress.ip_address("10.255.0.1"))
METERED_VNI = 100           # wire VNI of tenant 0
DENY_PORTS = (9000, 9100)


def build_tables():
    """The flow-cache bench's tenant layout plus a DENY ACL rule and a
    (generously provisioned) meter, so bursts exercise every compiled
    stage."""
    tables = GatewayTables()
    for i in range(N_VNIS):
        chain = [100 + i] + [1000 * (hop + 1) + i for hop in range(PEER_DEPTH)]
        prefix = Prefix.parse(f"10.{i}.0.0/16")
        for src_vni, dst_vni in zip(chain, chain[1:]):
            tables.routing.insert(src_vni, prefix,
                                  RouteAction(Scope.PEER, next_hop_vni=dst_vni))
        terminal = chain[-1]
        for j in range(8):  # more-specific routes deepen the LPM walk
            tables.routing.insert(terminal, Prefix.parse(f"10.{i}.{j}.0/24"),
                                  RouteAction(Scope.LOCAL))
        tables.routing.insert(terminal, prefix, RouteAction(Scope.LOCAL))
        for f in range(FLOWS_PER_VNI):
            tables.vm_nc.insert(terminal, flow_dst(i, f), 4,
                                NcBinding(int(ipaddress.ip_address(
                                    f"172.16.{i}.{10 + f}"))))
    tables.acl.insert(AclRule(priority=2, verdict=AclVerdict.DENY,
                              dst_ports=DENY_PORTS))
    tables.acl.insert(AclRule(priority=1, verdict=AclVerdict.PERMIT))
    tables.meters.configure(vni_key(METERED_VNI),
                            TokenBucket(committed_rate=1e12,
                                        committed_burst=1e12))
    return tables


def flow_dst(vni_index, flow_index):
    return int(ipaddress.ip_address(
        f"10.{vni_index}.{flow_index % 8}.{10 + flow_index}"))


def build_workload():
    """A Zipf(1.1) replay of *interned* packets: one Packet object per
    flow (the steady-state NIC-ring shape), ~3% of flows aimed at the
    DENY'd port range so bursts carry mixed fates."""
    interned = []
    for i in range(N_VNIS):
        for f in range(FLOWS_PER_VNI):
            dport = 9050 if (i * FLOWS_PER_VNI + f) % 32 == 0 else 80
            interned.append(build_vxlan_packet(
                vni=100 + i, src_ip=int(ipaddress.ip_address("10.200.0.1")),
                dst_ip=flow_dst(i, f), dst_port=dport))
    sampler = WeightedSampler(zipf_weights(len(interned), ZIPF_ALPHA),
                              derive(SEED, "columnar"))
    return [interned[sampler.sample()] for _ in range(N_PACKETS)]


def bursts_of(packets):
    return [packets[i:i + BURST] for i in range(0, len(packets), BURST)]


def replay_columnar(gateway, bursts, backend, clock):
    """*clock* is a shared one-cell monotonic time (meters reject time
    running backwards across timing repeats)."""
    for burst in bursts:
        clock[0] += 1e-4
        gateway.forward_batch(PacketBatch.from_packets(burst, backend),
                              now=clock[0])


def replay_scalar(gateway, bursts, clock):
    for burst in bursts:
        clock[0] += 1e-4
        gateway.forward_batch(burst, now=clock[0])


def best_seconds(fn, repeats=TIMING_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_equivalence(backend_name, packets):
    """Byte-identical results + identical stateful end state between the
    columnar path on *backend_name* and the never-cached scalar oracle."""
    backend = resolve_backend(backend_name)
    col = XgwX86(gateway_ip=GATEWAY_IP, tables=build_tables())
    oracle = XgwX86(gateway_ip=GATEWAY_IP, tables=build_tables(),
                    cache_entries=0, columnar=False)
    for index, burst in enumerate(bursts_of(packets)):
        now = index * 1e-4
        got_list = col.forward_batch(PacketBatch.from_packets(burst, backend),
                                     now=now)
        want_list = oracle.forward_batch(burst, now=now)
        for got, want in zip(got_list, want_list):
            assert got.action is want.action
            assert got.detail == want.detail
            assert got.resolved_vni == want.resolved_vni
            assert got.nc_ip == want.nc_ip
            assert got.packet.to_bytes() == want.packet.to_bytes()
    assert col.counters.snapshot() == oracle.counters.snapshot()
    assert col.counters["drop_acl_deny"] > 0, "workload must mix fates"
    assert (col.tables.counters.total_packets()
            == oracle.tables.counters.total_packets())
    assert (col.tables.counters.total_bytes()
            == oracle.tables.counters.total_bytes())
    assert (col.tables.meters.green, col.tables.meters.red) \
        == (oracle.tables.meters.green, oracle.tables.meters.red)


def save_artifact(payload):
    art_dir = artifact_dir("columnar", default=".")
    with open(os.path.join(art_dir, "BENCH_columnar.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def test_columnar_speedup(benchmark):
    packets = build_workload()
    equiv = packets[:EQUIV_PACKETS]

    # Differential gate first: both backends must match the oracle
    # byte for byte before any rate is worth reporting.
    backends = ["python"] + (["numpy"] if numpy_available() else [])
    for name in backends:
        check_equivalence(name, equiv)

    timed_backend = resolve_backend(backends[-1])
    col = XgwX86(gateway_ip=GATEWAY_IP, tables=build_tables())
    col_clock = [0.0]
    col_bursts = bursts_of(packets)
    columnar_s = best_seconds(
        lambda: replay_columnar(col, col_bursts, timed_backend, col_clock))

    oracle = XgwX86(gateway_ip=GATEWAY_IP, tables=build_tables(),
                    cache_entries=0, columnar=False)
    oracle_clock = [0.0]
    oracle_bursts = bursts_of(packets[:ORACLE_PACKETS])
    uncached_s = best_seconds(
        lambda: replay_scalar(oracle, oracle_bursts, oracle_clock), repeats=2)

    columnar_pps = N_PACKETS / columnar_s
    uncached_pps = ORACLE_PACKETS / uncached_s
    speedup = columnar_pps / uncached_pps
    rows = [
        ("distinct flows", "512", f"{N_VNIS * FLOWS_PER_VNI}"),
        ("replayed packets", "1M", f"{N_PACKETS}"),
        ("backend", "", timed_backend.name),
        ("uncached scalar rate", "", f"{uncached_pps / 1e3:.0f} kpps"),
        ("columnar batch rate", "", f"{columnar_pps / 1e3:.0f} kpps"),
        ("columnar/uncached speedup", ">= 10x", f"{speedup:.1f}x"),
    ]
    emit("Columnar batch path (Zipf 1.1, 3-hop PEER chains)", rows)

    save_artifact({
        "workload": {
            "flows": N_VNIS * FLOWS_PER_VNI,
            "packets": N_PACKETS,
            "burst": BURST,
            "zipf_alpha": ZIPF_ALPHA,
            "peer_depth": PEER_DEPTH,
            "seed": SEED,
        },
        "backend": timed_backend.name,
        "backends_verified": backends,
        "equivalence_packets": EQUIV_PACKETS,
        "oracle_packets": ORACLE_PACKETS,
        "columnar_pps": columnar_pps,
        "uncached_pps": uncached_pps,
        "speedup": speedup,
    })

    assert speedup >= 10.0

    bench_bursts = bursts_of(packets[:EQUIV_PACKETS])
    benchmark(replay_columnar, col, bench_bursts, timed_backend, col_clock)
