"""The CI-bounded corpus: ≥200 configs across ≥5 seeds, byte-identical
per seed, every config landing in a healthy trichotomy arm.

This file is the acceptance gate ISSUE 6 / EXPERIMENTS.md point at; the
CI fuzz job runs it with REPRO_ARTIFACT_DIR set so any counterexample is
uploaded as a minimized JSON artifact.
"""

import json

import pytest

from repro.fuzz import DEFAULT_SEEDS, CaseOutcome, run_bounded
from repro.fuzz import corpus as corpus_module

CASES_PER_SEED = 40
FLOWS = 50


@pytest.fixture(scope="module")
def report():
    return run_bounded(seeds=DEFAULT_SEEDS, cases_per_seed=CASES_PER_SEED,
                       flows=FLOWS)


class TestBoundedCorpus:
    def test_scale_meets_acceptance_floor(self, report):
        assert len(DEFAULT_SEEDS) >= 5
        assert report.cases == len(DEFAULT_SEEDS) * CASES_PER_SEED
        assert report.cases >= 200

    def test_no_counterexamples(self, report):
        details = [(ce.config.seed, ce.config.index, ce.outcome.status,
                    ce.outcome.reason, ce.outcome.detail)
                   for ce in report.counterexamples]
        assert report.ok, details

    def test_trichotomy_outcomes_only(self, report):
        assert set(report.status_histogram) <= {"placed", "rejected"}
        assert report.status_histogram.get("placed", 0) > 0
        assert report.status_histogram.get("rejected", 0) > 0

    def test_rejections_are_classified(self, report):
        """Every rejection reason is a structured stage[:resource] tag."""
        stages = {reason.split(":")[0] for reason in report.reason_histogram}
        assert stages <= {"plan-input", "plan-capacity", "order-check",
                          "path-check", "segment-alloc", "pipe-capacity"}
        assert len(report.reason_histogram) >= 3, report.reason_histogram

    def test_runs_are_byte_identical_per_seed(self, report):
        again = run_bounded(seeds=DEFAULT_SEEDS, cases_per_seed=CASES_PER_SEED,
                            flows=FLOWS)
        assert again.seed_digests == report.seed_digests

    def test_describe_mentions_every_seed(self, report):
        text = report.describe()
        for seed in DEFAULT_SEEDS:
            assert f"seed {seed}:" in text


class TestArtifacts:
    def test_counterexamples_are_written_as_artifacts(self, tmp_path, monkeypatch):
        def fake_run_case(config, flows=50):
            return CaseOutcome(status="diverged", reason="forwarding",
                               detail="synthetic failure")

        monkeypatch.setattr(corpus_module, "run_case", fake_run_case)
        report = run_bounded(seeds=[1], cases_per_seed=2, flows=5,
                             artifact_dir=str(tmp_path),
                             minimize_failures=False)
        assert not report.ok
        assert len(report.artifacts) == 2
        data = json.loads((tmp_path / "fuzz-ce-1-0.json").read_text())
        assert data["status"] == "diverged"
        assert data["config"]["seed"] == 1

    def test_artifact_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))

        def fake_run_case(config, flows=50):
            return CaseOutcome(status="error", reason="synthetic")

        monkeypatch.setattr(corpus_module, "run_case", fake_run_case)
        report = run_bounded(seeds=[2], cases_per_seed=1, flows=5,
                             minimize_failures=False)
        assert (tmp_path / "fuzz" / "fuzz-ce-2-0.json").exists()
        assert report.artifacts
