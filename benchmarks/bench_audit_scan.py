"""Audit sweep cost: full-scan latency and bounded per-tick work.

The §6.1-style auditor only earns its keep if a full sweep of the
invariant library is cheap enough to run continuously and the budgeted
scanner really bounds per-tick control-plane work. This bench builds a
clean multi-tenant region, checks the zero-false-positive property
(clean cluster => empty, byte-stable findings log), measures the
full-scan latency and the per-tick cost at a small budget, and asserts
the per-tick cost stays well below the full-scan cost.

Writes ``BENCH_audit.json`` (under ``$REPRO_ARTIFACT_DIR/audit/`` when
set, else the working directory) so CI accrues the audit cost trajectory
per PR.
"""

import json
import os
import time

from conftest import emit
from repro.audit import AuditConfig, AuditScanner
from repro.core.sailfish import RegionSpec, Sailfish
from repro.telemetry.artifacts import artifact_dir

SEED = 2021
BUDGET = 4
TIMING_REPEATS = 5


def best_seconds(fn):
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def save_artifact(payload):
    art_dir = artifact_dir("audit", default=".")
    with open(os.path.join(art_dir, "BENCH_audit.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def test_audit_scan_cost(benchmark):
    region = Sailfish.build(RegionSpec.small(), seed=SEED)
    controller = region.controller

    scanner = AuditScanner(controller, AuditConfig(seed=SEED, budget=BUDGET))
    units = len(scanner._build_units())
    cycle = scanner.cycle_length()

    # Zero false positives on a clean region, byte-stable across runs.
    assert scanner.full_scan() == []
    assert scanner.log.dump() == b""
    rerun = AuditScanner(controller, AuditConfig(seed=SEED, budget=BUDGET))
    assert rerun.full_scan() == []
    assert rerun.log.dump() == scanner.log.dump()

    full_s = best_seconds(scanner.full_scan)

    def one_tick():
        scanner.tick()

    tick_s = best_seconds(one_tick)

    rows = [
        ("work units", "", f"{units}"),
        ("cycle length (budget 4)", "", f"{cycle} ticks"),
        ("full scan", "< 1 s", f"{full_s * 1e3:.1f} ms"),
        ("one tick", "<< full scan", f"{tick_s * 1e3:.2f} ms"),
        ("tick/full ratio", f"~{BUDGET}/{units}", f"{tick_s / full_s:.2f}"),
        ("clean-region findings", "0", f"{len(scanner.full_scan())}"),
    ]
    emit("Audit sweep cost (clean small region)", rows)

    save_artifact({
        "region": {"spec": "small", "seed": SEED},
        "units": units,
        "budget": BUDGET,
        "cycle_length": cycle,
        "full_scan_seconds": full_s,
        "tick_seconds": tick_s,
        "counters": scanner.counters.snapshot(),
    })

    assert full_s < 1.0
    # The budgeted tick must cost a fraction of the full sweep.
    assert tick_s < full_s

    benchmark(scanner.full_scan)
