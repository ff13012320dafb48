"""Every metric name exists in exactly three places that must agree:
``metrics.py``, ``BENCHMARK.json`` and a report the suite actually wrote."""

import json
import subprocess
import sys

import pytest

from conftest import E2E, ROOT
from metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_metric_table():
    committed = benchmark()
    assert committed == benchmark_json(committed["run_seconds"])


def test_benchmark_json_meets_the_contract_limits():
    committed = benchmark()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    assert 1 <= committed["run_seconds"] <= 60
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])
    units = {m["unit"] for m in committed["end_to_end"] + committed["per_layer"]}
    assert all(len(u) <= 16 for u in units)


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--seed", "5", "--out", str(out), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, json.loads((out / "report.json").read_text())


def test_every_name_is_in_a_smoke_report_and_vice_versa(smoke_report):
    _, report = smoke_report
    assert report["smoke"] is True and report["stamp"]["smoke"] is True
    assert set(report["workloads"]) == set(WORKLOADS)
    wanted = {m.name for m in (*END_TO_END, *PER_LAYER)}
    for name, workload in report["workloads"].items():
        reported = set(workload["end_to_end"]) | set(workload["per_layer"])
        assert reported == wanted, (name, reported ^ wanted)


def test_smoke_report_is_stamped_and_correct(smoke_report):
    out, report = smoke_report
    stamp = report["stamp"]
    for key in ("python", "numpy", "scipy", "nproc", "platform", "git_sha", "seed"):
        assert stamp[key] not in (None, "")
    assert report["pinned"]["rates_rps"] == {"r1": 80.0, "r2": 160.0, "r3": 240.0}
    for name, workload in report["workloads"].items():
        assert workload["correct"] and workload["failed"] == 0, name
        assert workload["end_to_end"]["failed_share"]["value"] == 0.0
        for phases in workload["phases"].values():
            for phase in phases.values():
                assert {"sent", "succeeded", "failed", "samples", "lateness_p95_ms"} <= set(phase)
        if name != "offline_sweep":
            assert (out / f"trace_{name}.json").is_file()
    cold = report["workloads"]["online_cold"]["per_layer"]
    assert cold["serving.cache.hit_share.sat"]["value"] == 0.0
    offline = report["workloads"]["offline_sweep"]
    assert offline["per_layer"]["peel.fleet_ms"]["value"] is None  # no fleet was built
