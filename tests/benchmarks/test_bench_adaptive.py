"""Smoke test for the adaptive batching-controller bench suite.

Runs ``benchmarks/bench_serving.py --quick --suites adaptive`` end to end so
tier-1 (and the CI quick-bench job) exercises the controller bench on its
own marker: the virtual-time static-vs-adaptive ramp assertions and the
bit-identical policy equivalences, without paying for the other suites.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.mark.adaptive_bench
def test_quick_adaptive_suite_runs_and_asserts(tmp_path):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_serving
    finally:
        sys.path.remove(str(BENCH_DIR))

    output = tmp_path / "bench.json"
    assert (
        bench_serving.main(
            ["--quick", "--suites", "adaptive", "--output", str(output)]
        )
        == 0
    )

    report = json.loads(output.read_text())
    records = [r for r in report["suites"] if r["suite"] == "adaptive"]
    assert len(records) == 1
    record = records[0]
    # Every policy reproduced the sequential results bit-for-bit.
    assert record["all_policies_bit_identical"]
    assert set(record["policies"]) == {"static", "marginal_latency"}
    for policy in record["policies"].values():
        assert policy["predictions_equal"]
        assert policy["depths_equal"]
        assert policy["macs_equal"]
        assert policy["served_macs"] == pytest.approx(record["sequential_macs"])
    assert record["policies"]["static"]["controller_adjustments"] == 0
    # Virtual-time ramp (dataset-independent, computed once per run):
    # exact, machine-independent assertions.  The real-server stream pins
    # every batch to one width, so the cost line is fitted — and the
    # adaptive policy seen to adapt — on the ramp's varied widths.
    ramp = report["virtual_ramp"]
    assert ramp["marginal_latency_beats_static"]
    assert ramp["marginal_latency_p95_within_slo"]
    assert ramp["overload_speedup"] > 1
    assert set(ramp["curves"]) == {"static", "marginal_latency"}
    for curve in ramp["curves"].values():
        assert len(curve) == len(bench_serving.VIRTUAL_BURST_GAPS)
    assert all(p["controller_adjustments"] > 0 for p in ramp["curves"]["marginal_latency"])
    assert all(p["controller_adjustments"] == 0 for p in ramp["curves"]["static"])
