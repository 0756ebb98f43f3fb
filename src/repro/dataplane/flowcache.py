"""The decision memo: cache the terminal decision, not the walk.

A production DPDK gateway survives at ~1 Mpps/core only because it does
*not* run the full table program per packet: the first packet of a flow
walks ACL + meters + VXLAN routing (with PEER chains) + VM-NC, and the
terminal decision is cached so every later packet is one exact-match
lookup plus the per-packet stateful work. This module gives every
simulated gateway that split, with **one** memo per gateway: the
LRU-bounded :class:`FlowCache` of :class:`KeyDecision` entries. The
single-packet path (:func:`forward_cached`) and the columnar batch path
(:mod:`repro.dataplane.columnar`) read and fill the same entries, and
both resolve a missing key with the same decide routine,
:func:`resolve_keys`.

**What is cached** — the resolved terminal decision for a
``(VNI, inner dst IP, IP version)`` key: the forward action, resolved
VNI, NC IP and the outer-header rewrite template. Negative decisions
(``no-route``, ``peer-loop``, ``no-vm``) are cached too; they are just
as deterministic given the table state.

**What must never be cached** — anything per-packet stateful or
per-flow dependent:

* counters and meters charge every packet (a meter can flip a cached
  flow to ``meter-red`` at any time);
* ACL verdicts depend on the full 5-tuple, not the cache key, so rules
  are still evaluated per packet — unless the table is provably
  pass-all (empty with a PERMIT default);
* SNAT state (the XGW-x86 service layer re-runs on every redirect hit).

**Generation-based invalidation** — every mutable table the decision
reads (:class:`~repro.tables.vxlan_routing.VxlanRoutingTable`,
:class:`~repro.tables.vm_nc.VmNcTable`,
:class:`~repro.tables.acl.AclTable`) carries a monotonically increasing
``generation`` bumped on every insert/remove. An entry captures the
*generation vector* at resolution time and is valid only while the live
vector is identical. Any mutation — controller repairs, transactional
migrations, offload steering — silently invalidates every older entry
with no invalidation plumbing, and correctness survives arbitrary update
interleavings (property-tested against a never-cached oracle).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..net.headers import VXLAN
from ..net.packet import Packet
from ..tables.acl import AclVerdict
from ..tables.errors import MissingEntryError
from ..tables.meter import MeterColor
from ..tables.vxlan_routing import RoutingLoopError, Scope
from .gateway_logic import (
    ForwardAction,
    ForwardResult,
    GatewayTables,
    inner_flow_key,
    vni_key,
)

#: Default entry bound: roughly one DPDK box's flow-cache budget.
DEFAULT_CAPACITY = 65536

_DROP = ForwardAction.DROP
_DELIVER = ForwardAction.DELIVER_NC
_REDIRECT = ForwardAction.REDIRECT_X86
_UPLINK = ForwardAction.UPLINK


class KeyDecision:
    """The memoized terminal decision for one (VNI, dst, version) key.

    The rewrite template is captured lazily on the first :meth:`build`,
    and a prototype (packet, result) pair lets replayed bursts of
    interned packets reuse the frozen result object instead of
    re-allocating it.
    """

    __slots__ = ("action", "detail", "resolved_vni", "nc_ip", "rewrite_vni",
                 "generations", "outer_in", "outer_out", "vx_flags", "vx_out",
                 "proto_packet", "proto_result")

    def __init__(self, generations: tuple):
        self.action: Optional[ForwardAction] = None
        self.detail = ""
        self.resolved_vni: Optional[int] = None
        self.nc_ip: Optional[int] = None
        #: VNI to write into the outgoing packet, or None when unchanged.
        self.rewrite_vni: Optional[int] = None
        #: The table generation vector captured at resolution time.
        self.generations = generations
        self.outer_in = None
        self.outer_out = None
        self.vx_flags: Optional[int] = None
        self.vx_out = None
        self.proto_packet: Optional[Packet] = None
        self.proto_result: Optional[ForwardResult] = None

    def build(self, packet: Packet, gateway_ip: int, hw: bool) -> ForwardResult:
        """The ForwardResult for *packet* under this decision.

        *hw* selects the XGW-H result shape (no ``resolved_vni``,
        DELIVER detail fixed to ``"local"``) vs the XGW-x86 one.
        """
        action = self.action
        if action is _DELIVER:
            pip = packet.ip
            outer_in = self.outer_in
            if pip is outer_in or pip == outer_in:
                new_ip = self.outer_out
            else:
                new_ip = pip.replace_src_dst(gateway_ip, self.nc_ip)
                if outer_in is None:
                    self.outer_in = pip
                    self.outer_out = new_ip
            vxlan = packet.vxlan
            if self.rewrite_vni is not None:
                flags = vxlan.flags
                if flags == self.vx_flags:
                    vxlan = self.vx_out
                else:
                    new_vx = VXLAN(vni=self.rewrite_vni, flags=flags)
                    if self.vx_flags is None:
                        self.vx_flags = flags
                        self.vx_out = new_vx
                    vxlan = new_vx
            out = Packet(eth=packet.eth, ip=new_ip, l4=packet.l4,
                         vxlan=vxlan, inner=packet.inner,
                         payload=packet.payload)
            if hw:
                result = ForwardResult(action, out, detail="local",
                                       nc_ip=self.nc_ip)
            else:
                result = ForwardResult(action, out, detail=self.detail,
                                       resolved_vni=self.resolved_vni,
                                       nc_ip=self.nc_ip)
        elif hw:
            result = ForwardResult(action, packet, detail=self.detail)
        else:
            result = ForwardResult(action, packet, detail=self.detail,
                                   resolved_vni=self.resolved_vni,
                                   nc_ip=self.nc_ip)
        if self.proto_packet is None:
            self.proto_packet = packet
            self.proto_result = result
        return result


def resolve_keys(tables: GatewayTables, keys: List[tuple], generations: tuple,
                 split_vm_nc=None) -> List[KeyDecision]:
    """The decide routine: one fresh :class:`KeyDecision` per key, via
    the bulk table helpers (routing resolution incl. PEER chains, then
    the VM-NC lookup for LOCAL keys). *split_vm_nc* reads the XGW-H
    parity halves instead of ``tables.vm_nc``."""
    decisions: List[KeyDecision] = []
    local: List[tuple] = []
    for key, res in zip(keys, tables.routing.resolve_many(keys)):
        d = KeyDecision(generations)
        decisions.append(d)
        if isinstance(res, MissingEntryError):
            d.action = _DROP
            d.detail = "no-route"
            continue
        if isinstance(res, RoutingLoopError):
            d.action = _DROP
            d.detail = "peer-loop"
            continue
        scope = res.action.scope
        if scope is Scope.LOCAL:
            local.append((key, res, d))
        elif scope is Scope.SERVICE:
            d.action = _REDIRECT
            d.detail = res.action.target or "service"
            d.resolved_vni = res.vni
        else:
            d.action = _UPLINK
            d.detail = res.action.target or scope.value
            d.resolved_vni = res.vni
    if not local:
        return decisions
    if split_vm_nc is not None:
        bindings = [split_vm_nc.lookup(res.vni, key[1], key[2])
                    for key, res, _d in local]
    else:
        bindings = tables.vm_nc.lookup_many(
            [(res.vni, key[1], key[2]) for key, res, _d in local])
    for (key, res, d), binding in zip(local, bindings):
        d.resolved_vni = res.vni
        if binding is None:
            d.action = _DROP
            d.detail = "no-vm"
        else:
            d.action = _DELIVER
            d.detail = "local"
            d.nc_ip = binding.nc_ip
            if res.vni != key[0]:
                d.rewrite_vni = res.vni
    return decisions


class FlowCache:
    """Exact-match, LRU-bounded memo of terminal forwarding decisions.

    >>> cache = FlowCache(capacity=2)
    >>> cache.capacity
    2
    >>> cache.hit_rate
    0.0
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, KeyDecision]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- core ---------------------------------------------------------------

    def lookup(self, key: tuple, generations: tuple) -> Optional[KeyDecision]:
        """The live entry for *key*, or None on miss/stale (stale entries
        are dropped so the following insert re-captures them)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.generations != generations:
            del self._entries[key]
            self.stale += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def lookup_many(self, keys: List[tuple], counts: List[int],
                    generations: tuple) -> List[Optional[KeyDecision]]:
        """:meth:`lookup` for a burst's unique keys, where ``counts[u]``
        lanes carry ``keys[u]``. Hits and misses are counted per lane, as
        the per-packet loop would count them: a live key hits on every
        lane, a missing or stale one misses on its first lane (which
        inserts it) and hits on the rest."""
        entries = self._entries
        get = entries.get
        touch = entries.move_to_end
        out: List[Optional[KeyDecision]] = []
        append = out.append
        hits = misses = stale = 0
        for key, count in zip(keys, counts):
            entry = get(key)
            if entry is not None:
                if entry.generations == generations:
                    touch(key)
                    hits += count
                    append(entry)
                    continue
                stale += 1
            misses += 1
            hits += count - 1
            append(None)
        self.hits += hits
        self.misses += misses
        self.stale += stale
        return out

    def insert(self, key: tuple, entry: KeyDecision) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def drop_stale(self, generations: tuple) -> None:
        """Drop every entry not captured under *generations*. Table
        generations only grow, so such an entry can never be live again;
        dropping it when the vector moves keeps dead decisions (and the
        packets their prototypes hold) from piling up to capacity."""
        entries = self._entries
        dead = [key for key, entry in entries.items()
                if entry.generations != generations]
        for key in dead:
            del entries[key]
        self.stale += len(dead)

    def clear(self) -> None:
        self._entries.clear()

    def items(self):
        """Readback of ``(key, entry)`` pairs in LRU order (oldest first)
        — the audit's coherence sweep recomputes each cached decision
        against the live tables without disturbing recency or counters."""
        return list(self._entries.items())

    # -- telemetry ----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction — high values signal a skewed (cache-
        friendly) workload, which the heavy-hitter detector reads as
        corroboration that a small hot set dominates."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Snapshot of the cache's telemetry counters."""
        return {
            "flowcache_hits": self.hits,
            "flowcache_misses": self.misses,
            "flowcache_evictions": self.evictions,
            "flowcache_stale": self.stale,
        }


def forward_cached(
    tables: GatewayTables,
    cache: FlowCache,
    packet: Packet,
    gateway_ip: int,
    now: float = 0.0,
) -> ForwardResult:
    """The single-packet fast path: one memo lookup instead of the walk.

    Byte-identical to :func:`~repro.dataplane.gateway_logic.forward` for
    every packet (differentially tested): counters, ACLs and meters run
    per packet in the slow path's order, and only an admitted packet
    whose key missed resolves it (and fills the memo).
    """
    vxlan = packet.vxlan
    if vxlan is None:
        return ForwardResult(_DROP, packet, detail="not-vxlan")
    vni = vxlan.vni
    generations = (tables.routing.generation, tables.vm_nc.generation,
                   tables.acl.generation)
    key = (vni, packet.inner_dst, packet.inner_version)
    decision = cache.lookup(key, generations)

    # Per-packet stateful work, in slow-path order: counter, ACL, meter.
    kvni = vni_key(vni)
    size = packet.wire_length()
    tables.counters.count(kvni, size)
    acl = tables.acl
    if len(acl) == 0 and acl.default_verdict is AclVerdict.PERMIT:
        acl.lookups += 1  # provably pass-all: skip the 5-tuple build
    elif acl.evaluate(vni, inner_flow_key(packet)) is AclVerdict.DENY:
        return ForwardResult(_DROP, packet, detail="acl-deny")
    if tables.meters.charge(kvni, now, size) is MeterColor.RED:
        return ForwardResult(_DROP, packet, detail="meter-red")

    if decision is None:
        (decision,) = resolve_keys(tables, [key], generations)
        cache.insert(key, decision)
    return decision.build(packet, gateway_ip, hw=False)
