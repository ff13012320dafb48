"""CI bench-regression gate: equivalence fields must never drift.

The benchmark reports (``BENCH_*.json``) mix three kinds of numbers:
*timing* (wall seconds, throughput, latency percentiles — machine-dependent,
never gated), *in-run ratios* (two interleaved timings of one process,
divided — gated against a fixed ceiling, see :func:`check_prefetch_report`)
and *equivalence* (bit-identical flags and MAC totals — deterministic
properties of the code, gated here).  This script loads freshly produced
quick-run reports and compares their equivalence surface against the
committed ``BENCH_*.json`` artifacts:

* every equivalence **flag** (``*_equal``, ``*identical*``, ``*within_slo``
  booleans) must be ``True`` in both the fresh report and the committed
  baseline — a ``False`` anywhere means a bit-equivalence claim regressed;
* every **MAC total** present at the same path in both reports must match
  exactly — but only when the two reports describe the same workload
  (``quick`` mode, profile and workload signature), since MAC totals are
  workload-dependent by construction.  Timing fields are excluded by name.

Usage (the CI quick-bench job)::

    PYTHONPATH=src python benchmarks/bench_serving.py --quick --output fresh/BENCH_serving.json
    ... (other benches) ...
    python benchmarks/check_bench.py --fresh-dir fresh

Exit status 0 = gate passed; 1 = mismatch (printed per finding).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Substrings that mark a numeric field as timing/throughput — never gated.
TIMING_MARKERS = (
    "seconds",
    "_ms",
    "latency",
    "throughput",
    "wall",
    "speedup",
    "rate",
    "reduction",
)

#: Substrings that mark a boolean field as an equivalence claim.
FLAG_MARKERS = ("equal", "identical", "within_slo")


def is_equivalence_flag(key: str, value) -> bool:
    return isinstance(value, bool) and any(m in key for m in FLAG_MARKERS)


def is_mac_total(key: str, value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if any(marker in key for marker in TIMING_MARKERS):
        return False
    return "macs" in key


def walk(tree, path=""):
    """Yield ``(path, key, value)`` for every leaf in a JSON tree."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from walk(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from walk(value, f"{path}[{index}]")
    else:
        key = path.rsplit(".", 1)[-1]
        yield path, key, tree


def equivalence_flags(report: dict) -> dict[str, bool]:
    flags = {}
    for path, key, value in walk(report):
        if is_equivalence_flag(key, value):
            flags[path] = value
    return flags


def mac_totals(report: dict) -> dict[str, float]:
    totals = {}
    for path, key, value in walk(report):
        if is_mac_total(key, value):
            totals[path] = float(value)
    return totals


def workload_signature(report: dict):
    """What must match for MAC totals to be comparable across reports."""
    return (
        report.get("quick"),
        json.dumps(report.get("profile"), sort_keys=True),
        json.dumps(report.get("workload"), sort_keys=True),
    )


def check_wave_report(name: str, label: str, report: dict) -> list[str]:
    """Wave-specific gate: MACs-per-request must fall as width grows.

    The wave scheduler's acceptance claim is *shape*, not a single flag:
    on the benchmark's Zipfian workload, MACs-per-request must be
    monotone non-increasing across the swept widths and the widest
    setting must reduce the width-1 cost by at least 1.5x.  Both the
    fresh report and the committed baseline are held to it.
    """
    failures: list[str] = []
    by_width = report.get("aggregate", {}).get("macs_per_request_by_width", {})
    try:
        series = sorted(
            (int(width), float(value)) for width, value in by_width.items()
        )
    except (TypeError, ValueError):
        series = []
    if len(series) < 2:
        failures.append(
            f"{name}: {label} report carries no macs_per_request_by_width sweep"
        )
        return failures
    for (narrow, cost_narrow), (wide, cost_wide) in zip(series, series[1:]):
        if cost_wide > cost_narrow:
            failures.append(
                f"{name}: {label} macs_per_request rose from width {narrow} "
                f"({cost_narrow}) to width {wide} ({cost_wide})"
            )
    widest_cost = series[-1][1]
    reduction = series[0][1] / widest_cost if widest_cost else 0.0
    if reduction < 1.5:
        failures.append(
            f"{name}: {label} macs_per_request reduction at width "
            f"{series[-1][0]} is {reduction:.2f}x, below the 1.5x floor"
        )
    return failures


#: A warm tiered gather may cost at most this many plain ``features[rows]``
#: gathers (the per-row loop the slot table replaced measured ~100x).
MAX_TIERED_GATHER_RATIO = 4.0


def check_prefetch_report(name: str, label: str, report: dict) -> list[str]:
    """Prefetch-specific gate: the tiered hot path stays array-native.

    ``tiered_gather_vs_ndarray`` is an in-run ratio (same process, same
    rows, interleaved), so unlike a wall time it is comparable across
    machines: both the fresh report and the committed baseline must carry
    it and keep it at or under :data:`MAX_TIERED_GATHER_RATIO`.
    """
    ratios = [
        suite.get("tiered_gather_vs_ndarray")
        for suite in report.get("suites", [])
        if suite.get("suite") == "tiered_memory"
    ]
    if not ratios or not all(isinstance(ratio, (int, float)) for ratio in ratios):
        return [f"{name}: {label} report carries no tiered_gather_vs_ndarray ratio"]
    return [
        f"{name}: {label} tiered_gather_vs_ndarray is {ratio:.2f}x, above the "
        f"{MAX_TIERED_GATHER_RATIO:.0f}x ceiling"
        for ratio in ratios
        if not ratio <= MAX_TIERED_GATHER_RATIO
    ]


def check_report(name: str, fresh: dict, committed: dict) -> list[str]:
    """All mismatches between one fresh report and its committed baseline."""
    failures: list[str] = []
    fresh_flags = equivalence_flags(fresh)
    committed_flags = equivalence_flags(committed)
    if not fresh_flags:
        failures.append(f"{name}: fresh report carries no equivalence flags")
    for path, value in fresh_flags.items():
        if value is not True:
            failures.append(f"{name}: fresh equivalence flag {path} is False")
    for path, value in committed_flags.items():
        if value is not True:
            failures.append(f"{name}: committed equivalence flag {path} is False")

    if workload_signature(fresh) == workload_signature(committed):
        fresh_macs = mac_totals(fresh)
        committed_macs = mac_totals(committed)
        shared = sorted(set(fresh_macs) & set(committed_macs))
        if committed_macs and not shared:
            # Some reports gate equivalence through flags only (no MAC
            # totals at all) — that is fine; a baseline that *has* totals
            # the fresh report dropped is a schema regression.
            failures.append(
                f"{name}: same workload but the fresh report lost every "
                "MAC-total field the baseline carries"
            )
        for path in shared:
            if fresh_macs[path] != committed_macs[path]:
                failures.append(
                    f"{name}: MAC total {path} drifted "
                    f"({committed_macs[path]} -> {fresh_macs[path]})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--fresh-dir", type=Path, required=True,
        help="directory holding the freshly produced BENCH_*.json reports",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=REPO_ROOT,
        help="directory holding the committed BENCH_*.json baselines "
        "(default: the repository root)",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"check_bench: no BENCH_*.json baselines in {args.baseline_dir}")
        return 1
    failures: list[str] = []
    checked = 0
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            failures.append(
                f"{baseline_path.name}: no fresh report in {args.fresh_dir} "
                "(did the quick-bench step run?)"
            )
            continue
        fresh = json.loads(fresh_path.read_text())
        committed = json.loads(baseline_path.read_text())
        failures.extend(check_report(baseline_path.name, fresh, committed))
        if baseline_path.name == "BENCH_wave.json":
            failures.extend(
                check_wave_report(baseline_path.name, "fresh", fresh)
            )
            failures.extend(
                check_wave_report(baseline_path.name, "committed", committed)
            )
        if baseline_path.name == "BENCH_prefetch.json":
            failures.extend(
                check_prefetch_report(baseline_path.name, "fresh", fresh)
            )
            failures.extend(
                check_prefetch_report(baseline_path.name, "committed", committed)
            )
        checked += 1

    if failures:
        print(f"check_bench: {len(failures)} mismatch(es):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(
        f"check_bench: OK — {checked} report(s) checked, every equivalence "
        "flag true, MAC totals consistent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
