"""Smoke test for the sharding benchmark.

Runs ``benchmarks/bench_sharding.py --quick`` end to end so tier-1 catches
regressions in the sharded-vs-unsharded bit-equivalence assertions, the
per-shard memory bound and the serving-cache satellites.  The real numbers
come from the full run, which writes ``BENCH_sharding.json``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.mark.sharding_bench
def test_quick_bench_runs_and_reports(tmp_path):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_sharding
    finally:
        sys.path.remove(str(BENCH_DIR))

    output = tmp_path / "bench.json"
    assert bench_sharding.main(["--quick", "--output", str(output)]) == 0

    report = json.loads(output.read_text())
    assert report["quick"] is True
    suites = {record["suite"] for record in report["suites"]}
    assert suites == {
        "equivalence_memory",
        "routed_serving",
        "subsystem_caches",
    }
    equivalence = [
        r for r in report["suites"] if r["suite"] == "equivalence_memory"
    ]
    # 3 shard counts x 2 strategies per dataset, every one bit-identical.
    assert len(equivalence) == 6
    for record in equivalence:
        assert record["predictions_equal"]
        assert record["depths_equal"]
        assert record["macs_equal"]
        assert record["per_shard_state_ratio"] <= record["state_ratio_bound"]
    for record in report["suites"]:
        if record["suite"] == "routed_serving":
            assert record["predictions_equal"]
        elif record["suite"] == "subsystem_caches":
            assert record["predictions_equal"]
            assert record["result_cache_hit_rate"] > 0
            assert record["replayed_macs"] > 0
    aggregate = report["aggregate"]
    assert aggregate["all_predictions_equal"]
    assert aggregate["all_macs_equal"]
    # The x4 sharding must hold well under half the unsharded state.
    assert aggregate["max_per_shard_state_ratio"]["4"] < 0.55
