"""The two traffic workloads: ``region_mix`` and ``gateway_burst``.

Both build the same region with :meth:`Sailfish.build` and replay the
same kind of traffic, generated from the seed before anything is timed:

* a pool of ``RegionTrafficGenerator`` samples (hot 5% of VMs take 95%
  of traffic, 30% of flows peer-VPC, 5% Internet, 25% IPv6 tenants);
* a stream drawn uniformly from that pool, in which every Internet
  sample is rebuilt with a fresh random destination, so Internet flows
  keep unique keys however long the stream is.

``region_mix`` feeds the stream in bursts of 64 to
``Sailfish.forward_sample`` (the scalar region path). ``gateway_burst``
feeds bursts of 1024: outside the timer each burst is split by owning
member with ``balancer.cluster_for_vni`` and ``GatewayCluster.
pick_member``; inside it, each member gets ``XgwH.forward_batch`` and
the ``REDIRECT_X86`` lanes go to ``XgwX86.forward_batch`` on the box
picked by ``toeplitz_hash``.

The correctness gate replays the same packets through a never-cached
scalar oracle, ``XgwX86(cache_entries=0, columnar=False)`` over the
region's full tables with SNAT. A VM-to-VM packet's outcome depends
only on the tables, because the region configures no meter and no ACL
rule (the gate checks this), so the oracle forwards each distinct pool
packet once; Internet packets, which touch SNAT state, are replayed one
by one in stream order.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import check, percentile, steady_timings

from repro.core.sailfish import RegionSpec, Sailfish
from repro.dataplane.gateway_logic import ForwardAction, GatewayTables
from repro.net.flow import FlowKey, toeplitz_hash
from repro.sim.rand import derive
from repro.tables.snat import SnatTable
from repro.workloads.topology import generate_topology
from repro.workloads.traffic import (
    RegionTrafficGenerator,
    TrafficSample,
    build_vxlan_packet,
    inner_flow,
)
from repro.x86.gateway import XgwX86

_DROP = ForwardAction.DROP
_DELIVER = ForwardAction.DELIVER_NC
_REDIRECT = ForwardAction.REDIRECT_X86

Outcome = Tuple[str, str, Optional[int], bool]

#: The region's own seed. The region is the same in every run, so
#: run-to-run spread measures the code and the machine, not a different
#: tenant mix; ``--seed`` varies the traffic.
REGION_SEED = 2021


@dataclass(frozen=True)
class RegionSize:
    """Region and stream dimensions of one traffic workload."""

    num_vpcs: int = 120
    total_vms: int = 6000
    cluster_route_capacity: int = 200
    cluster_vm_capacity: int = 2000
    #: Distinct generator samples the stream is drawn from.
    pool: int = 16384
    #: Region builds per run; ``setup_s`` is their median.
    setups: int = 5
    #: Bursts forwarded during set-up, so compiles and the hot keys'
    #: first decisions land in ``setup_s`` and the timed bursts start
    #: from a steady state.
    warm_bursts: int = 16
    #: Bursts whose lanes are compared one by one with the oracle.
    lane_checked_bursts: int = 64

    def spec(self) -> RegionSpec:
        return RegionSpec(
            num_vpcs=self.num_vpcs,
            total_vms=self.total_vms,
            cluster_route_capacity=self.cluster_route_capacity,
            cluster_vm_capacity=self.cluster_vm_capacity,
        )


def outcome_of(result) -> Outcome:
    """What the gate compares: action, detail, NC address and whether
    the packet needed the software gateway."""
    detail = result.detail
    software = result.action is _REDIRECT or detail.startswith("snat")
    return (result.action.value, detail, result.nc_ip, software)


class Traffic:
    """The seeded stream: samples[i] is sample pool_index[i] of a pool
    drawn from the generator, or a fresh Internet sample when
    pool_index[i] is -1."""

    def __init__(self, topology, seed: int, count: int, pool_size: int):
        generator = RegionTrafficGenerator(topology, ("e2ebench", seed))
        pool = list(generator.packets(pool_size))
        rng = derive(seed, "e2ebench", "stream")
        self.samples: List[TrafficSample] = []
        self.pool_index: List[int] = []
        for i in rng.choices(range(pool_size), k=count):
            sample = pool[i]
            if sample.dst_vm is None:
                src = sample.src_vm
                dst = rng.randrange(1 << (32 if src.version == 4 else 128))
                packet = build_vxlan_packet(vni=src.vni, src_ip=src.ip,
                                            dst_ip=dst, version=src.version)
                sample = TrafficSample(packet, src, None, sample.route)
                i = -1
            self.samples.append(sample)
            self.pool_index.append(i)


class Replay:
    """A ``generator=`` for ``Sailfish.forward_sample`` that hands out
    pre-built samples in order."""

    def __init__(self, samples: List[TrafficSample], start: int = 0):
        self._samples = samples
        self._next = start

    def packets(self, count: int):
        start = self._next
        self._next = start + count
        return iter(self._samples[start:start + count])


def build_oracle(topology, spec: RegionSpec) -> XgwX86:
    tables = GatewayTables()
    for vni in topology.vnis():
        for v, prefix, action in topology.route_entries(vni):
            tables.routing.insert(v, prefix, action, replace=True)
        for vm in topology.vm_entries(vni):
            tables.vm_nc.insert(vm.vni, vm.ip, vm.version, vm.binding(), replace=True)
    public_ips = [(198 << 24) | (51 << 16) | (100 << 8) | (j + 1)
                  for j in range(spec.snat_public_ips * spec.x86_nodes)]
    return XgwX86(gateway_ip=(10 << 24) | (253 << 16) | 1, tables=tables,
                  snat=SnatTable(public_ips=public_ips),
                  cache_entries=0, columnar=False)


def oracle_outcomes(oracle: XgwX86, traffic: Traffic) -> List[Outcome]:
    memo: Dict[int, Outcome] = {}
    out: List[Outcome] = []
    forward = oracle.forward
    for sample, i in zip(traffic.samples, traffic.pool_index):
        if i < 0:
            out.append(outcome_of(forward(sample.packet)))
            continue
        outcome = memo.get(i)
        if outcome is None:
            outcome = memo[i] = outcome_of(forward(sample.packet))
        out.append(outcome)
    return out


def tally(outcomes) -> Dict[str, int]:
    """Per action, per drop reason, and the hardware/software split.

    Every generated packet is a tenant VXLAN packet, so every packet
    enters the hardware tier."""
    out: Counter = Counter()
    for action, detail, _nc, software in outcomes:
        out["packets"] += 1
        out["hardware"] += 1
        out["software"] += software
        if action == _DROP.value:
            out["dropped"] += 1
            out["drop:" + detail] += 1
        elif action == _DELIVER.value:
            out["delivered"] += 1
        else:
            out["uplinked"] += 1
    return {key: n for key, n in out.items() if n}


#: The region's one known defect, pinned exactly. Onboarding places
#: peered tenants independently, so when two peered tenants land on
#: different clusters the source cluster holds the PEER hop but not the
#: remote tenant's terminal route: the hardware drops the flow as
#: "no-route" where the full-table oracle delivers it. The gate expects
#: exactly this outcome on exactly those packets, so any other
#: difference fails the run, and so does a fix that does not also
#: remove this expectation.
SPLIT_PEER_DROP: Outcome = (_DROP.value, "no-route", None, False)


class _TrafficWorkload:
    burst = 0
    name = ""

    def __init__(self, seed: int, ops: int, size: RegionSize):
        self.size = size
        self.spec = size.spec()
        self.seed = seed
        self.ops = ops
        spec = self.spec
        self.topology = generate_topology(
            num_vpcs=spec.num_vpcs, total_vms=spec.total_vms, seed=REGION_SEED,
            peering_fraction=spec.peering_fraction,
            ipv6_fraction=spec.ipv6_fraction,
            subnet_base_index=spec.subnet_base_index)
        # The warm-up bursts come first in the stream; timed bursts follow.
        self.warm = size.warm_bursts * self.burst
        self.traffic = Traffic(self.topology, seed, self.warm + self.ops * self.burst,
                               size.pool)
        self.oracle = oracle_outcomes(build_oracle(self.topology, spec), self.traffic)

    def build(self) -> Sailfish:
        region = Sailfish.build(self.spec, seed=REGION_SEED)
        check(region.topology.vnis() == self.topology.vnis(),
              "region topology differs from the generated inputs")
        return region

    def expected(self, region: Sailfish, first: int, last: int):
        """The oracle's outcomes for stream positions [first, last) with
        the known split-peer defect applied under *region*'s placement,
        and how many lanes that defect changed."""
        cluster_of = region.balancer.cluster_for_vni
        samples = self.traffic.samples
        split: Dict[Tuple[int, int], bool] = {}
        out: List[Outcome] = []
        changed = 0
        for i in range(first, last):
            want = self.oracle[i]
            dst = samples[i].dst_vm
            if dst is not None:
                pair = (samples[i].src_vm.vni, dst.vni)
                crosses = split.get(pair)
                if crosses is None:
                    crosses = split[pair] = cluster_of(pair[0]) != cluster_of(pair[1])
                if crosses and want != SPLIT_PEER_DROP:
                    want = SPLIT_PEER_DROP
                    changed += 1
            out.append(want)
        return out, changed

    def _check_stateless(self, region: Sailfish) -> None:
        gateways = list(region.x86_fleet)
        for cluster_id in sorted(region.controller.clusters):
            for member in region.controller.clusters[cluster_id].all_members():
                gateways.append(member.gateway)
        for gw in gateways:
            check(len(gw.tables.meters) == 0 and len(gw.tables.acl) == 0,
                  "a gateway has meters or ACL rules; the pooled oracle "
                  "assumes VM-to-VM outcomes depend only on the tables")

    def verify(self, region: Sailfish, out: dict) -> None:
        """Tallies (and, where the run kept them, single lanes) must equal
        the oracle's over the same packets; raises GateFailure."""
        self._check_stateless(region)
        first = self.warm
        expected, changed = self.expected(region, first, first + out["ops"] * self.burst)
        want = tally(expected)
        got = out["tally"]
        check(got == want, f"{self.name}: outcome tallies differ from the "
              f"oracle: got {sorted(got.items())}, want {sorted(want.items())}")
        for op, lanes in out.get("lanes", {}).items():
            for lane, outcome in enumerate(lanes):
                want_lane = expected[op * self.burst + lane]
                check(outcome == want_lane,
                      f"{self.name}: burst {op} lane {lane} is {outcome}, "
                      f"the oracle says {want_lane}")
        out["split_peer_drops"] = changed

    def metrics(self, out: dict) -> Dict[str, float]:
        """The end-to-end numbers of one pass (see ``steady_timings``)."""
        steady = steady_timings(out["times"])
        return {
            "op_p50_ms": steady["p50"] * 1e3,
            "op_p99_ms": steady["p99"] * 1e3,
            "pkts_per_s": self.burst / steady["mean"],
        }

    def layer_extras(self, out: dict) -> Dict[str, float]:
        """Per-layer ratios the run measures itself, not through spans."""
        got = out["tally"]
        packets = got["packets"]
        lookups = out["cache_hits"] + out["cache_misses"]
        return {
            "sailfish.sw_frac": got.get("software", 0) / packets,
            "sailfish.drop_frac": got.get("dropped", 0) / packets,
            "flowcache.hit_rate": out["cache_hits"] / lookups if lookups else 0.0,
        }

    def report(self, out: dict) -> List[tuple]:
        """Per-workload names (``burst_p50_ms``, ``drop_frac``, ...) for
        people reading the log."""
        e2e = self.metrics(out)
        extra = self.layer_extras(out)
        times = out["times"]
        return [
            ("pkts_per_s", e2e["pkts_per_s"], "pkt/s"),
            ("burst_p50_ms", e2e["op_p50_ms"], "ms"),
            ("burst_p99_ms", e2e["op_p99_ms"], "ms"),
            ("bursts", out["ops"], "count"),
            ("raw_pkts_per_s", out["packets"] / sum(times), "pkt/s"),
            ("raw_burst_p50_ms", percentile(times, 50) * 1e3, "ms"),
            ("raw_burst_p99_ms", percentile(times, 99) * 1e3, "ms"),
            ("drop_frac", extra["sailfish.drop_frac"], "ratio"),
            ("sw_frac", extra["sailfish.sw_frac"], "ratio"),
            ("known_split_peer_drops", out["split_peer_drops"], "count"),
        ]


class RegionMix(_TrafficWorkload):
    """Scalar region path, bursts of 64 through ``forward_sample``."""

    name = "region_mix"
    burst = 64

    def setup(self) -> Sailfish:
        region = self.build()
        replay = Replay(self.traffic.samples[:self.warm])
        for _ in range(self.size.warm_bursts):
            region.forward_sample(self.burst, generator=replay)
        return region

    def run(self, region: Sailfish, tracer=None) -> dict:
        ops = self.ops
        replay = Replay(self.traffic.samples, start=self.warm)
        burst = self.burst
        before = [box.publish_cache_counters() for box in region.x86_fleet]
        times: List[float] = []
        got: Counter = Counter()
        clock = time.perf_counter
        forward_sample = region.forward_sample
        if tracer is not None:
            tracer.phase = "loop"
        for op in range(ops):
            if tracer is not None:
                tracer.op = op
                tracer.begin("bench.op")
            start = clock()
            report = forward_sample(burst, generator=replay)
            times.append(clock() - start)
            if tracer is not None:
                tracer.end()
            got["packets"] += report.packets
            got["hardware"] += report.hardware_packets
            got["software"] += report.software_packets
            got["delivered"] += report.delivered
            got["uplinked"] += report.uplinked
            got["dropped"] += report.dropped
            for reason, n in report.drop_details.items():
                got["drop:" + reason] += n
        after = [box.publish_cache_counters() for box in region.x86_fleet]
        hits = sum(a["flowcache_hits"] - b["flowcache_hits"] for a, b in zip(after, before))
        misses = sum(a["flowcache_misses"] - b["flowcache_misses"]
                     for a, b in zip(after, before))
        return {"ops": ops, "times": times, "packets": ops * burst,
                "tally": {k: v for k, v in got.items() if v},
                "cache_hits": hits, "cache_misses": misses}


class GatewayBurst(_TrafficWorkload):
    """Columnar path, NIC-ring bursts of 1024 split by owning member."""

    name = "gateway_burst"
    burst = 1024

    def _split(self, region: Sailfish, first: int, member_of: Dict[int, object]):
        """One burst starting at stream position *first*, as
        (gateway, packets, lanes) per owning member. *member_of* caches
        the member picked for each pool sample."""
        samples = self.traffic.samples
        pool_index = self.traffic.pool_index
        balancer = region.balancer
        serving = region.recovery.serving_cluster
        groups: Dict[int, tuple] = {}
        for lane in range(self.burst):
            sample = samples[first + lane]
            i = pool_index[first + lane]
            member = member_of.get(i) if i >= 0 else None
            if member is None:
                cluster = serving(balancer.cluster_for_vni(sample.packet.vni))
                member = cluster.pick_member(inner_flow(sample))
                if i >= 0:
                    member_of[i] = member
            group = groups.get(id(member))
            if group is None:
                group = groups[id(member)] = (member.gateway, [], [])
            group[1].append(sample.packet)
            group[2].append(lane)
        return list(groups.values())

    def setup(self) -> Sailfish:
        region = self.build()
        member_of: Dict[int, object] = {}
        for op in range(self.size.warm_bursts):
            self.forward_burst(region, self._split(region, op * self.burst, member_of))
        return region

    @staticmethod
    def forward_burst(region: Sailfish, groups) -> list:
        """One burst: every member's sub-burst, then the redirected
        lanes on their x86 boxes. Returns (lanes, results) pairs."""
        parts = []
        redirected: Dict[int, tuple] = {}
        fleet = region.x86_fleet
        for gateway, packets, lanes in groups:
            results = gateway.forward_batch(packets)
            parts.append((lanes, results))
            for j, result in enumerate(results):
                if result.action is _REDIRECT:
                    packet = packets[j]
                    src, dst, proto, sport, dport = packet.inner.five_tuple()
                    flow = FlowKey(src, dst, proto, sport, dport,
                                   version=packet.inner_version)
                    box = toeplitz_hash(flow.to_rss_input()) % len(fleet)
                    group = redirected.get(box)
                    if group is None:
                        group = redirected[box] = ([], [])
                    group[0].append(packet)
                    group[1].append(lanes[j])
        for box, (packets, lanes) in redirected.items():
            parts.append((lanes, fleet[box].forward_batch(packets)))
        return parts

    def run(self, region: Sailfish, tracer=None) -> dict:
        ops = self.ops
        burst = self.burst
        member_of: Dict[int, object] = {}
        bursts = [self._split(region, self.warm + op * burst, member_of)
                  for op in range(ops)]
        rng = derive(self.seed, "e2ebench", "lane-check")
        checked = set(rng.sample(range(ops), min(ops, self.size.lane_checked_bursts)))
        kept: Dict[int, List[Outcome]] = {}
        times: List[float] = []
        got: Counter = Counter()
        clock = time.perf_counter
        forward_burst = self.forward_burst
        if tracer is not None:
            tracer.phase = "loop"
        for op in range(ops):
            groups = bursts[op]
            bursts[op] = None
            if tracer is not None:
                tracer.op = op
                tracer.begin("bench.op")
            start = clock()
            parts = forward_burst(region, groups)
            times.append(clock() - start)
            if tracer is not None:
                tracer.end()
            final: List[Optional[Outcome]] = [None] * burst
            for lanes, results in parts:
                for lane, result in zip(lanes, results):
                    outcome = outcome_of(result)
                    if final[lane] is not None:
                        # The x86 leg of a redirected lane decides its
                        # fate; the hardware leg made it software.
                        outcome = outcome[:3] + (True,)
                    final[lane] = outcome
            got.update(tally(final))
            if op in checked:
                kept[op] = final
        return {"ops": ops, "times": times, "packets": ops * burst,
                "tally": {k: v for k, v in got.items() if v}, "lanes": kept,
                "cache_hits": 0, "cache_misses": 0}
