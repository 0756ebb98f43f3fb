"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 e2ebench/run.py --workload region_mix --seed 1 --seconds 20 --trace 0

Workloads: ``region_mix`` (scalar region path, bursts of 64),
``gateway_burst`` (columnar path, bursts of 1024) and ``control_churn``
(transactional updates on real gateways, then crash recovery); see
``e2ebench/README.md``. Inputs are generated from ``--seed`` before
anything is timed. The amount of work scales with ``--seconds``
(calibrated on a 2-core x86 box), with a floor that keeps at least ten
samples beyond every reported p99.

With ``--trace 0`` the last line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the run makes two passes over the
first half of the inputs on two fresh systems, the first untraced and
the second with spans around every layer's entry points; the JSON then
holds per-layer metrics, including the tracing overhead, and the spans
are written to ``.e2ebench-out/trace-<workload>.jsonl``.

Every run checks its outputs (see each workload's module). A failed
check exits with status 1 and prints no result; a checkout without the
package under ``src/`` exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

from common import (
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    UNITS,
    GateFailure,
    SetupError,
    env_fingerprint,
    load_repro,
    peak_rss_mb,
)

#: Ops per requested second, calibrated so a pass measures about that
#: long on a 2-core x86 box (bursts; single-shard updates for
#: control_churn), and the floor that keeps ten samples beyond p99.
OPS_PER_SECOND = {"region_mix": 95, "gateway_burst": 45, "control_churn": 100}
MIN_OPS = 1000
WORKLOADS = tuple(OPS_PER_SECOND)


def make_workload(name: str, seed: int, seconds: float, trace: bool = False,
                  tiny: bool = False):
    """The workload object, with the inputs of one pass generated (a
    traced run makes two passes of half the length). Imports the
    package under test, so call :func:`load_repro` first."""
    import churn
    import region

    if tiny:
        ops = 30 if name == "control_churn" else 20
    else:
        ops = max(MIN_OPS, round(OPS_PER_SECOND[name] * seconds))
    if trace:
        ops //= 2
    if name == "control_churn":
        size = churn.ChurnSize()
        if tiny:
            size = churn.ChurnSize(tenants_per_shard=4, subnets_per_tenant=4,
                                   vms_per_tenant=6, cluster_routes=12,
                                   cluster_vms=100, chains=2, snapshot_every=10,
                                   setups=1)
        return churn.ControlChurn(seed, ops, size)
    size = region.RegionSize()
    if tiny:
        size = region.RegionSize(num_vpcs=12, total_vms=300,
                                 cluster_route_capacity=40,
                                 cluster_vm_capacity=200, pool=512,
                                 setups=2, warm_bursts=2, lane_checked_bursts=3)
    cls = region.RegionMix if name == "region_mix" else region.GatewayBurst
    return cls(seed, ops, size)


def timed_pass(workload, system, tracer=None) -> dict:
    """One pass over the workload's ops, then its correctness gate.

    The cyclic garbage collector is off during the pass, as ``timeit``
    does: its full collections scan every live object, so they would
    put pauses that grow with the run's length into the tail latencies.
    Reference counting still frees everything acyclic, and
    ``peak_rss_mb`` shows what the collector would have reclaimed."""
    from tracing import installed

    gc.collect()
    gc.disable()
    try:
        if tracer is None:
            out = workload.run(system)
        else:
            tracer.phase = "prep"
            with installed(tracer):
                out = workload.run(system, tracer)
    finally:
        gc.enable()
    workload.verify(system, out)
    return out


def measure(workload, trace: bool) -> tuple:
    """Set up (several times), run, check. Returns (metrics, report
    lines, ops attempted)."""
    from tracing import Tracer, layer_metrics

    setup_times = []
    system = None
    for _ in range(workload.size.setups):
        system = None
        gc.collect()
        start = time.perf_counter()
        system = workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)
    if not trace:
        out = timed_pass(workload, system)
        metrics = workload.metrics(out)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        lines = workload.report(out) + [("setup_s", setup_s, "s"),
                                        ("peak_rss_mb", metrics["peak_rss_mb"], "MB")]
        return metrics, lines, workload.ops

    ops = workload.ops
    base = timed_pass(workload, system)
    system = None
    gc.collect()
    system = workload.setup()
    tracer = Tracer()
    traced = timed_pass(workload, system, tracer)
    metrics = layer_metrics(tracer, ops)
    metrics.update(workload.layer_extras(traced))
    untraced_p50 = workload.metrics(base)["op_p50_ms"]
    traced_p50 = workload.metrics(traced)["op_p50_ms"]
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    lines = workload.report(traced) + [("untraced_op_p50_ms", untraced_p50, "ms"),
                                       ("traced_op_p50_ms", traced_p50, "ms"),
                                       ("setup_s", setup_s, "s"),
                                       ("peak_rss_mb", peak_rss_mb(), "MB")]
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"),
                 {"workload": workload.name, "env": env_fingerprint(workload.seed),
                  "ops": ops, "metrics": metrics,
                  "columns": ["id", "parent", "name", "start", "end", "op", "phase"]})
    return metrics, lines, ops


def result_json(metrics: dict, trace: bool, attempted: int) -> dict:
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a seconds-long smoke size, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        load_repro()
    except (SetupError, ImportError) as exc:
        print(f"e2ebench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny)
    try:
        metrics, lines, attempted = measure(workload, bool(args.trace))
    except GateFailure as exc:
        print(f"e2ebench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload = {workload.name}")
    for name, value, unit in lines:
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]:.6g} {UNITS.get(name, '')}")
    print("env = " + json.dumps(env_fingerprint(args.seed), sort_keys=True))
    print(json.dumps(result_json(metrics, bool(args.trace), attempted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
