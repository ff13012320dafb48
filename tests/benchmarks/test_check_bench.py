"""Tests for the CI bench-regression gate (``benchmarks/check_bench.py``).

Includes the required negative tests: a seeded equivalence mismatch — a
flipped bit-identical flag or a drifted MAC total — must fail the gate,
while timing drift must not.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
REPO_ROOT = BENCH_DIR.parent


@pytest.fixture(scope="module")
def check_bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import check_bench as module
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


@pytest.fixture()
def baseline_report():
    """A small but realistic report shaped like BENCH_serving.json."""
    return {
        "benchmark": "bench_serving",
        "quick": True,
        "profile": {"dataset_scale": 0.3, "depth": 3, "seed": 0},
        "workload": {"tick_size": 64, "num_ticks": 12},
        "suites": [
            {
                "suite": "streaming",
                "predictions_equal": True,
                "depths_equal": True,
                "macs_equal": True,
                "served_wall_seconds": 1.25,
                "sequential_macs": 123456.0,
                "served_macs": 123456.0,
            },
            {
                "suite": "adaptive",
                "all_policies_bit_identical": True,
                "virtual_ramp": {"marginal_latency_p95_within_slo": True},
            },
        ],
        "aggregate": {"all_predictions_equal": True, "computed_macs": 123456.0},
    }


def write_pair(tmp_path, baseline, fresh, name="BENCH_serving.json"):
    baseline_dir = tmp_path / "baseline"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    (baseline_dir / name).write_text(json.dumps(baseline))
    (fresh_dir / name).write_text(json.dumps(fresh))
    return baseline_dir, fresh_dir


def run_gate(check_bench, baseline_dir, fresh_dir):
    return check_bench.main(
        ["--fresh-dir", str(fresh_dir), "--baseline-dir", str(baseline_dir)]
    )


class TestGatePasses:
    def test_identical_reports_pass(self, check_bench, baseline_report, tmp_path):
        baseline_dir, fresh_dir = write_pair(
            tmp_path, baseline_report, copy.deepcopy(baseline_report)
        )
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 0

    def test_timing_drift_is_ignored(self, check_bench, baseline_report, tmp_path):
        fresh = copy.deepcopy(baseline_report)
        fresh["suites"][0]["served_wall_seconds"] = 99.0  # machines differ
        baseline_dir, fresh_dir = write_pair(tmp_path, baseline_report, fresh)
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 0

    def test_different_workload_skips_mac_comparison(
        self, check_bench, baseline_report, tmp_path
    ):
        # A full-run baseline vs a quick fresh run: MAC totals are workload-
        # dependent, so only the flags are gated.
        fresh = copy.deepcopy(baseline_report)
        fresh["workload"] = {"tick_size": 100, "num_ticks": 40}
        fresh["suites"][0]["served_macs"] = 999.0
        fresh["suites"][0]["sequential_macs"] = 999.0
        baseline_dir, fresh_dir = write_pair(tmp_path, baseline_report, fresh)
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 0

    def test_real_committed_baselines_are_self_consistent(
        self, check_bench, tmp_path
    ):
        """The gate must pass when fed the repository's own artifacts."""
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        for artifact in REPO_ROOT.glob("BENCH_*.json"):
            (fresh_dir / artifact.name).write_text(artifact.read_text())
        assert run_gate(check_bench, REPO_ROOT, fresh_dir) == 0


class TestGateFails:
    def test_seeded_flag_mismatch_fails(self, check_bench, baseline_report, tmp_path):
        fresh = copy.deepcopy(baseline_report)
        fresh["suites"][0]["macs_equal"] = False  # the seeded mismatch
        baseline_dir, fresh_dir = write_pair(tmp_path, baseline_report, fresh)
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 1

    def test_seeded_nested_flag_mismatch_fails(
        self, check_bench, baseline_report, tmp_path
    ):
        fresh = copy.deepcopy(baseline_report)
        fresh["suites"][1]["virtual_ramp"]["marginal_latency_p95_within_slo"] = False
        baseline_dir, fresh_dir = write_pair(tmp_path, baseline_report, fresh)
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 1

    def test_seeded_mac_drift_fails_on_matching_workload(
        self, check_bench, baseline_report, tmp_path
    ):
        fresh = copy.deepcopy(baseline_report)
        fresh["suites"][0]["served_macs"] = 123457.0  # one MAC off
        baseline_dir, fresh_dir = write_pair(tmp_path, baseline_report, fresh)
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 1

    def test_corrupt_baseline_fails(self, check_bench, baseline_report, tmp_path):
        bad_baseline = copy.deepcopy(baseline_report)
        bad_baseline["aggregate"]["all_predictions_equal"] = False
        baseline_dir, fresh_dir = write_pair(
            tmp_path, bad_baseline, copy.deepcopy(baseline_report)
        )
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 1

    def test_missing_fresh_report_fails(self, check_bench, baseline_report, tmp_path):
        baseline_dir = tmp_path / "baseline"
        empty_fresh = tmp_path / "fresh"
        baseline_dir.mkdir()
        empty_fresh.mkdir()
        (baseline_dir / "BENCH_serving.json").write_text(
            json.dumps(baseline_report)
        )
        assert run_gate(check_bench, baseline_dir, empty_fresh) == 1

    def test_flagless_fresh_report_fails(self, check_bench, baseline_report, tmp_path):
        baseline_dir, fresh_dir = write_pair(
            tmp_path, baseline_report, {"quick": True, "suites": []}
        )
        assert run_gate(check_bench, baseline_dir, fresh_dir) == 1


# ---------------------------------------------------------------------- #
# In-run ratio gate: the tiered hot path must stay array-native
# ---------------------------------------------------------------------- #
@pytest.fixture()
def prefetch_report():
    return {
        "benchmark": "bench_prefetch",
        "quick": True,
        "suites": [
            {"suite": "prefetch_overlap", "predictions_equal": True},
            {
                "suite": "tiered_memory",
                "tiered_predictions_identical": True,
                "tiered_gather_vs_ndarray": 1.4,
            },
        ],
    }


def write_prefetch_pair(tmp_path, baseline, fresh):
    return write_pair(tmp_path, baseline, fresh, name="BENCH_prefetch.json")


class TestTieredGatherRatioGate:
    def test_ratio_under_the_ceiling_passes(self, check_bench, prefetch_report, tmp_path):
        fresh = copy.deepcopy(prefetch_report)
        fresh["suites"][1]["tiered_gather_vs_ndarray"] = 3.9  # noisy, still fine
        dirs = write_prefetch_pair(tmp_path, prefetch_report, fresh)
        assert run_gate(check_bench, *dirs) == 0

    def test_per_row_loop_in_the_fresh_report_fails(
        self, check_bench, prefetch_report, tmp_path
    ):
        fresh = copy.deepcopy(prefetch_report)
        fresh["suites"][1]["tiered_gather_vs_ndarray"] = 97.0  # the old loop
        dirs = write_prefetch_pair(tmp_path, prefetch_report, fresh)
        assert run_gate(check_bench, *dirs) == 1

    def test_slow_committed_baseline_fails(self, check_bench, prefetch_report, tmp_path):
        slow = copy.deepcopy(prefetch_report)
        slow["suites"][1]["tiered_gather_vs_ndarray"] = 4.5
        dirs = write_prefetch_pair(tmp_path, slow, prefetch_report)
        assert run_gate(check_bench, *dirs) == 1

    def test_dropped_ratio_fails(self, check_bench, prefetch_report, tmp_path):
        fresh = copy.deepcopy(prefetch_report)
        del fresh["suites"][1]["tiered_gather_vs_ndarray"]
        dirs = write_prefetch_pair(tmp_path, prefetch_report, fresh)
        assert run_gate(check_bench, *dirs) == 1
