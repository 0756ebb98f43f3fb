"""Spans around the calls into each layer, for the traced run only.

:class:`Tracer` keeps spans in memory as ``(id, parent, name, start,
end, op, phase)`` rows. :func:`installed` wraps the public entry points
of every layer the benchmark reports on, for the duration of a ``with``
block, and puts the originals back on exit; nothing is patched outside
that block and nothing under ``src/`` changes. Counts (rows, bytes,
keys) are taken at the same boundaries as the spans.

A span's self time is its duration minus the durations of its direct
children; spans are strictly nested (one thread), so the self times of
a span's subtree add up to the span's own duration.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from common import PER_LAYER

Span = Tuple[int, int, str, float, float, int, str]


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[tuple] = []
        self._next_id = 0
        #: Id shared by every span of one benchmark op (-1: outside ops).
        self.op = -1
        #: Which part of the run the spans belong to ("loop", "recover").
        self.phase = "setup"
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)

    def begin(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, parent, name, self.clock()))

    def end(self) -> None:
        sid, parent, name, start = self._stack.pop()
        self.spans.append((sid, parent, name, start, self.clock(),
                           self.op, self.phase))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    # -- reduction --------------------------------------------------------

    def self_times(self, phase: str) -> Dict[str, List[float]]:
        """``{span name: [self seconds, calls]}`` over one phase."""
        child: Dict[int, float] = defaultdict(float)
        for sid, parent, _name, start, end, _op, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = {}
        for sid, _parent, name, start, end, _op, span_phase in self.spans:
            if span_phase != phase:
                continue
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) - child.get(sid, 0.0)
            acc[1] += 1
        return out

    def phase_counts(self, phase: str) -> Dict[str, float]:
        return {name: value for (p, name), value in self.counts.items()
                if p == phase}

    def write(self, path: str, header: dict) -> None:
        """Write the header line then one JSON row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _spanned(tracer: Tracer, name: str, fn):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end()

    return wrapper


def _patches(tracer: Tracer) -> List[tuple]:
    """``(owner, attribute, replacement)`` for every traced entry point."""
    from repro.cluster.cluster import GatewayCluster
    from repro.core.controller import Controller
    from repro.core.journal import Journal
    from repro.core.sailfish import Sailfish
    from repro.core.xgw_h import XgwH
    from repro.dataplane.columnar import BatchCompiler, CompiledProgram, PacketBatch
    from repro.dataplane.services import SnatService
    from repro.tables.vxlan_routing import VxlanRoutingTable
    from repro.tofino.chip import Chip
    from repro.x86.gateway import XgwX86

    begin, end, count = tracer.begin, tracer.end, tracer.count
    plain = [
        ("sailfish.forward_sample", Sailfish, "forward_sample"),
        ("cluster.pick_member", GatewayCluster, "pick_member"),
        ("xgw_h.forward", XgwH, "forward"),
        ("xgw_h.forward_batch", XgwH, "forward_batch"),
        ("xgw_h.install_route", XgwH, "install_route"),
        ("xgw_h.install_vm", XgwH, "install_vm"),
        ("tofino.process", Chip, "process"),
        ("x86.forward", XgwX86, "forward"),
        ("x86.forward_batch", XgwX86, "forward_batch"),
        ("services.snat", SnatService, "handle_request"),
        ("columnar.key_index", PacketBatch, "key_index"),
        ("columnar.compile", BatchCompiler, "compile"),
        ("journal.snapshot", Journal, "snapshot"),
        ("journal.materialize", Journal, "materialize"),
    ]
    out = [(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
           for name, owner, attr in plain]

    from_packets = PacketBatch.__dict__["from_packets"].__func__
    out.append((PacketBatch, "from_packets", classmethod(
        _spanned(tracer, "columnar.from_packets", from_packets))))

    execute = CompiledProgram.execute
    key_index = PacketBatch.key_index

    @functools.wraps(execute)
    def traced_execute(self, batch, now=0.0):
        begin("columnar.execute")
        try:
            result = execute(self, batch, now)
        finally:
            end()
        count("columnar.lanes", batch.n)
        count("columnar.unique_keys", len(key_index(batch)[0]))
        return result

    out.append((CompiledProgram, "execute", traced_execute))

    resolve_many = VxlanRoutingTable.resolve_many

    @functools.wraps(resolve_many)
    def traced_resolve_many(self, queries, *args, **kwargs):
        count("columnar.resolved_keys", len(queries))
        return resolve_many(self, queries, *args, **kwargs)

    out.append((VxlanRoutingTable, "resolve_many", traced_resolve_many))

    items = VxlanRoutingTable.items

    @functools.wraps(items)
    def traced_items(self):
        rows = 0
        try:
            for row in items(self):
                rows += 1
                yield row
        finally:
            count("tables.routing_items.rows", rows)

    out.append((VxlanRoutingTable, "items", traced_items))

    append = Journal.append

    @functools.wraps(append)
    def traced_append(self, op, payload):
        segment = self.segments[-1]
        before = len(segment.data)
        begin("journal.append")
        try:
            record = append(self, op, payload)
        finally:
            end()
        last = self.segments[-1]
        count("journal.append.bytes",
              len(last.data) - (before if last is segment else 0))
        return record

    out.append((Journal, "append", traced_append))

    recover = Controller.recover

    @functools.wraps(recover)
    def traced_recover(self, journal):
        begin("controller.recover")
        try:
            writes = recover(self, journal)
        finally:
            end()
        count("controller.recover.writes", writes)
        return writes

    out.append((Controller, "recover", traced_recover))
    return out


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced entry point for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _new in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-op self times (ms) and call counts of the ``loop`` phase plus
    the totals of the ``recover`` phase, keyed by metric name."""
    out = {m.name: 0.0 for m in PER_LAYER}
    per_op = 1.0 / max(ops, 1)
    for name, (self_s, calls) in tracer.self_times("loop").items():
        if name + ".self_ms" in out:
            out[name + ".self_ms"] = self_s * 1e3 * per_op
        if name + ".calls" in out:
            out[name + ".calls"] = calls * per_op
    counts = tracer.phase_counts("loop")
    for name in ("tables.routing_items.rows", "journal.append.bytes"):
        out[name] = counts.get(name, 0.0) * per_op
    lanes = counts.get("columnar.lanes", 0.0)
    unique = counts.get("columnar.unique_keys", 0.0)
    if lanes:
        out["columnar.unique_key_frac"] = unique / lanes
    if unique:
        out["columnar.memo_hit_rate"] = 1.0 - counts.get("columnar.resolved_keys", 0.0) / unique
    for name, (self_s, _calls) in tracer.self_times("recover").items():
        if name in ("journal.materialize", "controller.recover"):
            out[name + ".self_ms"] = self_s * 1e3
    out["controller.recover.writes"] = tracer.phase_counts("recover").get(
        "controller.recover.writes", 0.0)
    return out
