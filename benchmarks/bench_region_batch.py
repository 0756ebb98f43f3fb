"""Region batch path: ``Sailfish.forward_sample`` vs the per-packet loop.

``forward_sample`` forwards each sample as one burst through
``Sailfish.forward_batch``: one flow hash per flow picks the ECMP member
and the x86 box, each member runs ``XgwH.forward_batch`` and each box
``XgwX86.forward_batch``. ``Sailfish.forward`` is the per-packet oracle
that runs every packet through the Tofino simulator. This bench builds
two medium regions from the same seed, replays the same seeded
``RegionTrafficGenerator`` stream (32768 packets) through the
``forward`` loop on one and through ``forward_sample`` in bursts of 64
on the other, and checks:

* the outcome tallies (delivered, uplinked, dropped per reason, the
  hardware/software split) are equal;
* ``forward_sample`` moves at least 2.5x the packets per second of the
  ``forward`` loop.

The batched pass is timed per stage by wrapping the gateway entry points
for the duration of the pass: group/hash (``Sailfish.forward_batch``
outside the gateways), XGW-H batches, x86 batches (requests and
Internet responses), and tally (``forward_sample`` outside
``forward_batch``). Writes ``BENCH_region.json`` (under
``$REPRO_ARTIFACT_DIR/region/`` when set, else the working directory)
before the speedup gate, so a failing run still leaves its numbers.
"""

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

from conftest import emit
from repro.core.sailfish import RegionSpec, Sailfish
from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import ForwardAction
from repro.telemetry.artifacts import artifact_dir
from repro.workloads.traffic import RegionTrafficGenerator
from repro.x86.gateway import XgwX86

SEED = 2021
BURST = 64
N_PACKETS = 32768
#: Bursts forwarded on both regions before timing, so compiles and the
#: hot keys' first decisions stay out of the comparison.
WARM_BURSTS = 16
MIN_SPEEDUP = 2.5


class Replay:
    """A ``generator=`` for ``forward_sample`` handing out pre-built
    samples in order, so sample generation stays out of the timing."""

    def __init__(self, samples):
        self._samples = samples
        self._next = 0

    def packets(self, count):
        start = self._next
        self._next = start + count
        return iter(self._samples[start:start + count])


def tally_result(out: Counter, result) -> None:
    out["packets"] += 1
    if result.action is ForwardAction.DROP:
        out["dropped"] += 1
        out["drop:" + result.detail] += 1
    elif result.action is ForwardAction.DELIVER_NC:
        out["delivered"] += 1
    else:
        out["uplinked"] += 1


def tally_report(out: Counter, report) -> None:
    out["packets"] += report.packets
    out["dropped"] += report.dropped
    out["delivered"] += report.delivered
    out["uplinked"] += report.uplinked
    out["hardware"] += report.hardware_packets
    out["software"] += report.software_packets
    for detail, count in report.drop_details.items():
        out["drop:" + detail] += count


@contextmanager
def stage_timers(seconds: Counter):
    """Accumulate wall time spent inside each timed entry point."""
    clock = time.perf_counter
    targets = [
        ("forward_sample", Sailfish, "forward_sample"),
        ("forward_batch", Sailfish, "forward_batch"),
        ("xgw_h", XgwH, "forward_batch"),
        ("x86", XgwX86, "forward_batch"),
        ("x86", XgwX86, "forward_response"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for _name, owner, attr in targets]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
        return wrapper

    for (name, owner, attr), (_owner, _attr, fn) in zip(targets, saved):
        setattr(owner, attr, timed(name, fn))
    try:
        yield seconds
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def save_artifact(payload):
    art_dir = artifact_dir("region", default=".")
    with open(os.path.join(art_dir, "BENCH_region.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def test_region_batch_speedup():
    spec = RegionSpec.medium()
    scalar = Sailfish.build(spec, seed=SEED)
    batched = Sailfish.build(spec, seed=SEED)
    bursts = N_PACKETS // BURST
    warm = WARM_BURSTS * BURST
    generator = RegionTrafficGenerator(scalar.topology, (SEED, "region-bench"))
    samples = list(generator.packets(warm + bursts * BURST))

    forward = scalar.forward
    for sample in samples[:warm]:
        forward(sample.packet)
    replay = Replay(samples)
    for _ in range(WARM_BURSTS):
        batched.forward_sample(BURST, generator=replay)

    # Per-packet oracle: the forward loop over the timed stream.
    want: Counter = Counter()
    hw_before = scalar.counters["hardware_packets"]
    sw_before = scalar.counters["software_packets"]
    start = time.perf_counter()
    for sample in samples[warm:]:
        tally_result(want, forward(sample.packet))
    scalar_s = time.perf_counter() - start
    want["hardware"] += scalar.counters["hardware_packets"] - hw_before
    want["software"] += scalar.counters["software_packets"] - sw_before

    # Batched: forward_sample, one burst at a time, with stage timers.
    got: Counter = Counter()
    seconds: Counter = Counter()
    with stage_timers(seconds):
        forward_sample = batched.forward_sample
        start = time.perf_counter()
        for _ in range(bursts):
            tally_report(got, forward_sample(BURST, generator=replay))
        batch_s = time.perf_counter() - start

    packets = bursts * BURST
    scalar_pps = packets / scalar_s
    batch_pps = packets / batch_s
    speedup = batch_pps / scalar_pps
    stages_ms = {
        "group_hash": seconds["forward_batch"] - seconds["xgw_h"] - seconds["x86"],
        "xgw_h_batches": seconds["xgw_h"],
        "x86_batches": seconds["x86"],
        "tally": seconds["forward_sample"] - seconds["forward_batch"],
    }
    stages_ms = {name: s * 1e3 / bursts for name, s in stages_ms.items()}
    save_artifact({
        "workload": {"packets": packets, "burst": BURST, "warm_bursts": WARM_BURSTS,
                     "region": "medium", "seed": SEED},
        "scalar_pps": scalar_pps,
        "batch_pps": batch_pps,
        "speedup": speedup,
        "stage_ms_per_burst": stages_ms,
        "tally": dict(sorted(got.items())),
    })
    emit("Region batch path (medium region, bursts of 64)", [
        ("packets", "", f"{packets}"),
        ("forward loop rate", "", f"{scalar_pps / 1e3:.1f} kpps"),
        ("forward_sample rate", "", f"{batch_pps / 1e3:.1f} kpps"),
        ("speedup", f">= {MIN_SPEEDUP}x", f"{speedup:.2f}x"),
    ] + [(f"stage {name} (ms/burst)", "", f"{ms:.3f}") for name, ms in stages_ms.items()])

    assert got == want, f"tallies differ: {sorted(got.items())} vs {sorted(want.items())}"
    assert got["software"] > 0 and got["delivered"] > 0
    assert speedup >= MIN_SPEEDUP
