"""Smoke test for the transport benchmark.

Runs ``benchmarks/bench_transport.py --quick`` end to end so tier-1 catches
regressions in the cross-backend bit-equivalence assertions and the
socket accounting.  Real sockets are involved, so the run is guarded by
the same watchdog the transport suite uses: a hang dumps stacks and aborts
instead of stalling CI.  The real numbers come from the full run, which
writes ``BENCH_transport.json``.
"""

import faulthandler
import json
import os
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
#: The bench run covers several socket deployments, so its budget is the
#: transport suite's default times a few; REPRO_WATCHDOG_SECONDS scales it
#: for slow CI runners (same env var the transport-suite watchdog honors).
WATCHDOG_SECONDS = 300.0 * max(
    1.0, float(os.environ.get("REPRO_WATCHDOG_SECONDS", "90")) / 90.0
)


def _dump_and_abort() -> None:  # pragma: no cover - only fires on a hang
    sys.stderr.write(
        f"\n*** transport-bench watchdog fired after {WATCHDOG_SECONDS}s ***\n"
    )
    faulthandler.dump_traceback(all_threads=True)
    os._exit(3)


@pytest.fixture(autouse=True)
def bench_watchdog():
    timer = threading.Timer(WATCHDOG_SECONDS, _dump_and_abort)
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()


@pytest.mark.transport_bench
def test_quick_bench_runs_and_reports(tmp_path):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_transport
    finally:
        sys.path.remove(str(BENCH_DIR))

    output = tmp_path / "bench.json"
    assert bench_transport.main(["--quick", "--output", str(output)]) == 0

    report = json.loads(output.read_text())
    assert report["quick"] is True
    suites = {record["suite"] for record in report["suites"]}
    assert suites == {"transport_equivalence"}

    equivalence = [
        r for r in report["suites"] if r["suite"] == "transport_equivalence"
    ]
    # One record per shard count, each sweeping all three backends.
    assert len(equivalence) == 3
    for record in equivalence:
        assert record["predictions_equal"]
        assert record["depths_equal"]
        assert record["macs_equal"]
        assert set(record["backends"]) == {"local", "socket", "fault_wrapped"}
        socket_entry = record["backends"]["socket"]
        assert socket_entry["wire_bytes_sent"] > 0
        assert socket_entry["wire_bytes_received"] > 0
        assert socket_entry["transport"]["rounds"] > 0
        # Local zero-copy fetches move no wire bytes but count payloads.
        assert record["backends"]["local"]["transport"]["total_bytes"] > 0

    aggregate = report["aggregate"]
    assert aggregate["all_predictions_equal"]
    assert aggregate["all_macs_equal"]
    assert aggregate["max_socket_overhead_vs_local"] > 0
