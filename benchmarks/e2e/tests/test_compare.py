"""compare.py: one row per (workload, end-to-end metric), three verdicts."""

import json

import compare
from metrics import END_TO_END, UNGATED_END_TO_END


def report(**overrides) -> dict:
    values = {
        "setup_s": 2.0, "latency_p50_ms": 150.0, "latency_p95_ms": 200.0,
        "latency_p95_hi_ms": 220.0, "saturation_rps": 340.0, "nodes_per_s": 1500.0,
        "nap_speedup": 1.0, "peak_rss_mb": 550.0, "accuracy": 0.637,
        "macs_per_node": 26128.032, "slo_rate_rps": 240.0, "failed_share": 0.0,
    }
    entries = {name: {"value": value, "spread": 0.01} for name, value in values.items()}
    for name, change in overrides.items():
        entries[name] = {**entries[name], **change}
    return {
        "pinned": {"rates_rps": {"r1": 80.0, "r2": 160.0, "r3": 240.0}},
        "workloads": {"online_cold": {"end_to_end": entries}},
    }


def verdicts(b: dict) -> dict:
    return {row["metric"]: row["verdict"] for row in compare.compare(report(), b)}


def test_one_row_per_workload_and_metric_with_ratio_and_bound():
    rows = compare.compare(report(), report())
    assert [row["metric"] for row in rows] == [
        m.name for m in (*END_TO_END, *UNGATED_END_TO_END)
    ]
    assert all(row["verdict"] == "ok" and row["ratio"] in (1.0, None) for row in rows)
    assert {row["bound"] for row in rows} >= {"10%", "15%", "20%", "25%", "0%", "0 abs", "1 rung"}


def test_worse_only_beyond_the_bound_in_the_bad_direction():
    assert verdicts(report(latency_p50_ms={"value": 172.0}))["latency_p50_ms"] == "ok"
    assert verdicts(report(latency_p50_ms={"value": 173.0}))["latency_p50_ms"] == "worse"
    assert verdicts(report(latency_p50_ms={"value": 100.0}))["latency_p50_ms"] == "ok"
    assert verdicts(report(saturation_rps={"value": 270.0}))["saturation_rps"] == "worse"
    assert verdicts(report(saturation_rps={"value": 400.0}))["saturation_rps"] == "ok"


def test_exact_counts_failures_and_rungs_have_their_own_rules():
    assert verdicts(report(macs_per_node={"value": 26128.033}))["macs_per_node"] == "worse"
    assert verdicts(report(accuracy={"value": 0.6369}))["accuracy"] == "worse"
    assert verdicts(report(failed_share={"value": 0.001}))["failed_share"] == "worse"
    assert verdicts(report(slo_rate_rps={"value": 160.0}))["slo_rate_rps"] == "ok"
    assert verdicts(report(slo_rate_rps={"value": 80.0}))["slo_rate_rps"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved_not_ok():
    noisy = report(latency_p95_ms={"value": 215.0, "spread": 0.4})
    assert verdicts(noisy)["latency_p95_ms"] == "unresolved"
    # ...but a regression larger than the noise itself is still worse.
    far = report(latency_p95_ms={"value": 300.0, "spread": 0.4})
    assert verdicts(far)["latency_p95_ms"] == "worse"


def test_main_exits_non_zero_on_worse(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report()))
    b.write_text(json.dumps(report()))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(report(peak_rss_mb={"value": 700.0})))
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
