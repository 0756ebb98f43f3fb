"""Tests of the benchmark itself: every workload prints every metric at
a tiny size, the correctness gates catch corrupted outputs, span self
times add up, and the metric lists agree with ``BENCHMARK.json``.

Run from the checkout root with ``python -m pytest e2ebench -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import common

common.load_repro()

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.xgw_h import XgwH  # noqa: E402
from repro.dataplane.gateway_logic import ForwardAction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_cli(*args, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = common.PER_LAYER if trace else common.END_TO_END
    assert list(result["metrics"]) == [m.name for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(result["metrics"][m.name]["value"] > 0 for m in wanted)
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    assert {"setup_s", "peak_rss_mb"} <= printed
    assert "env" in printed


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit) for m in common.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in common.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _tiny(name, **changes):
    workload = run.make_workload(name, seed=5, seconds=1, tiny=True)
    if changes:
        workload.size = dataclasses.replace(workload.size, **changes)
    return workload


def test_clean_tiny_passes_the_gate():
    workload = _tiny("gateway_burst", lane_checked_bursts=1000)
    system = workload.setup()
    run.timed_pass(workload, system)


def test_gate_catches_one_flipped_nc_ip(monkeypatch):
    workload = _tiny("gateway_burst", lane_checked_bursts=1000)
    system = workload.setup()
    original = XgwH.forward_batch
    flipped = []

    def corrupt(self, packets, now=None):
        results = original(self, packets, now)
        for i, result in enumerate(results):
            if not flipped and result.action is ForwardAction.DELIVER_NC:
                results[i] = dataclasses.replace(result, nc_ip=result.nc_ip ^ 1)
                flipped.append(i)
        return results

    monkeypatch.setattr(XgwH, "forward_batch", corrupt)
    with pytest.raises(common.GateFailure, match="lane"):
        run.timed_pass(workload, system)
    assert len(flipped) == 1


def test_gate_catches_one_changed_outcome_on_the_scalar_path(monkeypatch):
    workload = _tiny("region_mix")
    system = workload.setup()
    original = XgwH.forward
    changed = []

    def corrupt(self, packet, now=None):
        result = original(self, packet, now)
        if not changed and result.action is ForwardAction.DELIVER_NC:
            changed.append(packet)
            return dataclasses.replace(result, action=ForwardAction.DROP,
                                       detail="no-vm", nc_ip=None)
        return result

    monkeypatch.setattr(XgwH, "forward", corrupt)
    with pytest.raises(common.GateFailure, match="tallies"):
        run.timed_pass(workload, system)


def test_gate_catches_one_skipped_install(monkeypatch):
    workload = _tiny("control_churn")
    system = workload.setup()
    original = XgwH.install_route
    skipped = []

    def skip_once(self, vni, prefix, action, replace=False):
        if not skipped:
            skipped.append((vni, prefix))
            return None
        return original(self, vni, prefix, action, replace)

    monkeypatch.setattr(XgwH, "install_route", skip_once)
    with pytest.raises(common.GateFailure):
        run.timed_pass(workload, system)
    assert len(skipped) == 1


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_add_up_to_the_parent_span():
    tracer = Tracer(clock=_FakeClock())
    tracer.phase = "loop"
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    times = tracer.self_times("loop")
    root = next(s for s in tracer.spans if s[2] == "root")
    assert sum(t for t, _calls in times.values()) == root[4] - root[3]
    # Each clock read advances one tick: root spans ticks 1..10, a 2..7,
    # each b one tick, c 8..9.
    assert times["b"] == [2.0, 2]
    assert times["a"] == [3.0, 1]
    assert times["c"] == [1.0, 1]
    assert times["root"] == [3.0, 1]


def test_traced_run_self_times_add_up_per_op():
    workload = _tiny("control_churn")
    system = workload.setup()
    tracer = Tracer()
    run.timed_pass(workload, system, tracer)
    children = {}
    for span in tracer.spans:
        children.setdefault(span[1], []).append(span)
    self_time = {}
    for sid, parent, name, start, end, _op, _phase in tracer.spans:
        self_time[sid] = (end - start) - sum(
            c[4] - c[3] for c in children.get(sid, []))

    def subtree(sid):
        return self_time[sid] + sum(subtree(c[0]) for c in children.get(sid, []))

    roots = [s for s in tracer.spans if s[1] == -1 and s[6] == "loop"]
    assert len(roots) == workload.ops
    for sid, _parent, _name, start, end, _op, _phase in roots:
        assert subtree(sid) == pytest.approx(end - start, abs=1e-9)
    names = {s[2] for s in tracer.spans}
    assert {"controller.commit", "journal.append", "xgw_h.install_route",
            "columnar.compile", "controller.recover"} <= names


def test_same_seed_same_inputs():
    def keys(workload):
        return [s.packet.inner.five_tuple() for s in workload.traffic.samples]

    a = run.make_workload("region_mix", seed=8, seconds=1, tiny=True)
    b = run.make_workload("region_mix", seed=8, seconds=1, tiny=True)
    c = run.make_workload("region_mix", seed=9, seconds=1, tiny=True)
    assert keys(a) == keys(b)
    assert keys(a) != keys(c)


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "region_mix", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
