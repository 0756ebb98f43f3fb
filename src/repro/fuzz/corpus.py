"""Corpus runners: bounded (CI) and time-budgeted soak (local) modes.

The bounded mode walks a fixed seed set — deterministic end to end, so a
per-seed digest over every case outcome is byte-identical run to run and
asserts full reproducibility, not just "no failures". The soak mode
keeps drawing fresh (seed, index) pairs until a wall-clock budget runs
out — the ``python -m repro fuzz --soak`` workflow.

Counterexamples (diverged/error outcomes) are minimized on the spot and
written as JSON artifacts — to the explicit ``artifact_dir`` when given,
else under ``$REPRO_ARTIFACT_DIR/fuzz/`` when that variable is set (the
CI job uploads that directory on failure). The triage workflow is
documented in DESIGN.md.

>>> report = run_bounded(seeds=[3], cases_per_seed=2, flows=5)
>>> report.cases, report.counterexamples
(2, [])
>>> report.seed_digests[3] == run_bounded([3], 2, flows=5).seed_digests[3]
True
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry import artifacts
from .generator import ConfigGenerator, GatewayConfig, config_to_json
from .harness import CaseOutcome, run_case
from .minimizer import minimize

#: The CI seed set — growing it is cheap, reordering it invalidates the
#: recorded per-seed digests.
DEFAULT_SEEDS: Tuple[int, ...] = (11, 23, 37, 41, 53)


@dataclass
class Counterexample:
    """A failing config plus its (minimized) reproducer."""

    config: GatewayConfig
    outcome: CaseOutcome
    minimized: Optional[GatewayConfig] = None

    def to_json(self) -> dict:
        data = {
            "config": config_to_json(self.config),
            "status": self.outcome.status,
            "reason": self.outcome.reason,
            "detail": self.outcome.detail,
        }
        if self.minimized is not None:
            data["minimized"] = config_to_json(self.minimized)
        return data


@dataclass
class CorpusReport:
    """Aggregate of one corpus run."""

    cases: int = 0
    status_histogram: Dict[str, int] = field(default_factory=dict)
    reason_histogram: Dict[str, int] = field(default_factory=dict)
    seed_digests: Dict[int, str] = field(default_factory=dict)
    counterexamples: List[Counterexample] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def describe(self) -> str:
        lines = [f"{self.cases} configs:"]
        for status in sorted(self.status_histogram):
            lines.append(f"  {status:10s} {self.status_histogram[status]}")
        for reason in sorted(self.reason_histogram):
            lines.append(f"    {reason:24s} {self.reason_histogram[reason]}")
        for seed, digest in sorted(self.seed_digests.items()):
            lines.append(f"  seed {seed}: {digest[:16]}")
        for path in self.artifacts:
            lines.append(f"  counterexample -> {path}")
        return "\n".join(lines)


def _record(report: CorpusReport, config: GatewayConfig, outcome: CaseOutcome,
            flows: int, artifact_dir: Optional[str], do_minimize: bool) -> str:
    """Fold one case into the report; returns the outcome digest part."""
    report.cases += 1
    report.status_histogram[outcome.status] = (
        report.status_histogram.get(outcome.status, 0) + 1)
    if outcome.reason:
        report.reason_histogram[outcome.reason] = (
            report.reason_histogram.get(outcome.reason, 0) + 1)
    if outcome.is_counterexample:
        example = Counterexample(config=config, outcome=outcome)
        if do_minimize:
            example.minimized = minimize(config, flows=flows).config
        report.counterexamples.append(example)
        directory = artifact_dir or artifacts.artifact_dir("fuzz")
        if directory:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory, f"fuzz-ce-{config.seed}-{config.index}.json")
            with open(path, "w") as handle:
                json.dump(example.to_json(), handle, indent=2)
            report.artifacts.append(path)
    return f"{config.index}:{outcome.status}:{outcome.reason}:{outcome.digest}"


def run_bounded(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    cases_per_seed: int = 40,
    flows: int = 50,
    artifact_dir: Optional[str] = None,
    minimize_failures: bool = True,
) -> CorpusReport:
    """The fixed-seed CI corpus: every (seed, index) pair, in order."""
    report = CorpusReport()
    for seed in seeds:
        generator = ConfigGenerator(seed)
        parts: List[str] = []
        for index in range(cases_per_seed):
            config = generator.generate(index)
            outcome = run_case(config, flows=flows)
            parts.append(_record(report, config, outcome, flows,
                                 artifact_dir, minimize_failures))
        report.seed_digests[seed] = hashlib.sha256(
            "\n".join(parts).encode()).hexdigest()
    return report


def run_soak(
    budget_seconds: float,
    flows: int = 50,
    start_seed: int = 1000,
    artifact_dir: Optional[str] = None,
    minimize_failures: bool = True,
) -> CorpusReport:
    """Unbounded local soak: new seeds until the time budget is spent."""
    report = CorpusReport()
    deadline = time.monotonic() + budget_seconds
    seed = start_seed
    while time.monotonic() < deadline:
        generator = ConfigGenerator(seed)
        parts: List[str] = []
        for index in range(20):
            if time.monotonic() >= deadline:
                break
            config = generator.generate(index)
            outcome = run_case(config, flows=flows)
            parts.append(_record(report, config, outcome, flows,
                                 artifact_dir, minimize_failures))
        report.seed_digests[seed] = hashlib.sha256(
            "\n".join(parts).encode()).hexdigest()
        seed += 1
    return report
