"""Shared pieces of the end-to-end benchmark: the import of the package
under test, metric definitions, percentiles, the environment
fingerprint and the correctness-gate error.

The benchmark runs from the root of a source checkout. ``load_repro``
puts that checkout's ``src/`` first on ``sys.path`` and refuses any
other copy of the package, so a directory holding only the benchmark
fails loudly instead of measuring something else.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".e2ebench-out")


class SetupError(RuntimeError):
    """The package under test cannot be imported from this checkout."""


class GateFailure(AssertionError):
    """A correctness check failed: the run's numbers must not be used."""


def load_repro():
    """Import ``repro`` from ``<checkout>/src`` and return the module."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError(f"no repro package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != SRC:
        raise SetupError(f"repro imported from {where}, not from {SRC}")
    return repro


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


#: End-to-end metrics, reported by every workload with tracing off.
#: An "op" is one burst on the traffic workloads and one update
#: (transaction commit plus the probe burst that observes it) on
#: control_churn.
END_TO_END: List[Metric] = [
    Metric("op_p50_ms", "ms"),
    Metric("op_p99_ms", "ms"),
    Metric("pkts_per_s", "pkt/s"),
    Metric("setup_s", "s"),
    Metric("peak_rss_mb", "MB"),
]

#: Per-layer metrics, reported by every workload in the traced run.
#: Times and counts are per op of the traced pass unless the name says
#: otherwise; ``recover``-side metrics cover the one recovery per run.
PER_LAYER: List[Metric] = [
    Metric("sailfish.forward_sample.self_ms", "ms"),
    Metric("sailfish.sw_frac", "ratio"),
    Metric("sailfish.drop_frac", "ratio"),
    Metric("cluster.pick_member.self_ms", "ms"),
    Metric("xgw_h.forward.self_ms", "ms"),
    Metric("tofino.process.self_ms", "ms"),
    Metric("tofino.process.calls", "count"),
    Metric("x86.forward.self_ms", "ms"),
    Metric("x86.forward.calls", "count"),
    Metric("flowcache.hit_rate", "ratio"),
    Metric("columnar.from_packets.self_ms", "ms"),
    Metric("columnar.key_index.self_ms", "ms"),
    Metric("columnar.execute.self_ms", "ms"),
    Metric("columnar.compile.self_ms", "ms"),
    Metric("columnar.compile.calls", "count"),
    Metric("columnar.unique_key_frac", "ratio"),
    Metric("columnar.memo_hit_rate", "ratio"),
    Metric("xgw_h.forward_batch.self_ms", "ms"),
    Metric("x86.forward_batch.self_ms", "ms"),
    Metric("services.snat.self_ms", "ms"),
    Metric("services.snat.calls", "count"),
    Metric("controller.commit.self_ms", "ms"),
    Metric("tables.routing_items.rows", "count"),
    Metric("xgw_h.install_route.self_ms", "ms"),
    Metric("xgw_h.install_route.calls", "count"),
    Metric("xgw_h.install_vm.calls", "count"),
    Metric("journal.append.self_ms", "ms"),
    Metric("journal.append.calls", "count"),
    Metric("journal.append.bytes", "B"),
    Metric("journal.snapshot.self_ms", "ms"),
    Metric("shard.cross_commit.self_ms", "ms"),
    Metric("journal.materialize.self_ms", "ms"),
    Metric("controller.recover.self_ms", "ms"),
    Metric("controller.recover.writes", "count"),
    Metric("trace.overhead_frac", "ratio"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Consecutive ops per slice in :func:`steady_timings`.
SLICE_OPS = 10


def steady_timings(times: Sequence[float]) -> Dict[str, float]:
    """Median, p99 and mean op time at the pass's fastest sustained speed.

    On a shared host the same code runs up to ~1.6x slower in phases of
    seconds to minutes (a fixed Python loop reads 24 ms in one phase and
    37 ms in the next), which swamps the differences a benchmark exists
    to see. As ``timeit`` takes the fastest of several repeats, this
    takes the pass's fastest stretch as its speed: the pass is cut into
    slices of ``SLICE_OPS`` consecutive ops, the speed *level* is the
    lowest slice median, and each op time is divided by its own slice's
    median, which keeps the shape of the distribution (a slow op stays
    slow relative to its neighbours) and drops the host's phase. The
    statistics of that shape, times the level, are returned (seconds).
    Ops past the last whole slice are left out.
    """
    whole = len(times) - len(times) % SLICE_OPS
    if whole < SLICE_OPS:
        raise ValueError("fewer ops than one slice")
    level = float("inf")
    shape: List[float] = []
    for i in range(0, whole, SLICE_OPS):
        chunk = times[i:i + SLICE_OPS]
        median = statistics.median(chunk)
        level = min(level, median)
        shape.extend(t / median for t in chunk)
    return {"p50": level * percentile(shape, 50),
            "p99": level * percentile(shape, 99),
            "mean": level * statistics.fmean(shape)}


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def env_fingerprint(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    from repro.dataplane.columnar import resolve_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "columnar_backend": type(resolve_backend()).__name__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def check(condition: bool, message: str) -> None:
    """Raise :class:`GateFailure` unless *condition* holds (survives -O)."""
    if not condition:
        raise GateFailure(message)
