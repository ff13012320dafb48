"""Compare two ``report.json`` files, one row per (workload, end-to-end metric).

    python benchmarks/e2e/compare.py A/report.json B/report.json

Each row shows both values, the ratio B / A (A is the base), the metric's
bound and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       B is worse than A by more than the bound *and* by more than
                the spread between in-run repeats — exits non-zero;
``unresolved``  the in-run repeat spread is wider than the bound, so this
                pair of runs cannot tell ``ok`` from ``worse``.

Bounds are the driver's (``metrics.END_TO_END``) except where this harness
can be stricter than a relative gate: exact counts may not move at all,
``failed_share`` may not rise, ``slo_rate_rps`` may drop one rung.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, UNGATED_END_TO_END  # noqa: E402

EXACT = ("accuracy", "macs_per_node")


def verdict(metric, a: dict, b: dict, rungs: list) -> tuple[str, str]:
    """``(bound shown, ok | worse | unresolved | n/a)`` for one row."""
    va, vb = a.get("value"), b.get("value")
    if va is None or vb is None:
        return "-", "n/a"
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.name == "failed_share":
        return "0 abs", "worse" if vb > va else "ok"
    if metric.name == "slo_rate_rps":
        drop = rungs.index(va) - rungs.index(vb) if va in rungs and vb in rungs else 0
        return "1 rung", "worse" if drop > 1 else "ok"
    change = sign * (vb - va) / abs(va) if va else 0.0
    if metric.name in EXACT:
        return "0%", "worse" if change > 0 else "ok"
    bound = metric.bound
    noise = max(a.get("spread") or 0.0, b.get("spread") or 0.0)
    shown = f"{bound:.0%}"
    if change > max(bound, noise):
        return shown, "worse"
    if noise > bound:
        return shown, "unresolved"
    return shown, "ok"


def compare(report_a: dict, report_b: dict) -> list[dict]:
    rungs = [0.0, *sorted(report_a["pinned"]["rates_rps"].values())]
    rows = []
    for workload, side_a in report_a["workloads"].items():
        side_b = report_b["workloads"].get(workload)
        if side_b is None:
            continue
        for metric in (*END_TO_END, *UNGATED_END_TO_END):
            a = side_a["end_to_end"].get(metric.name, {})
            b = side_b["end_to_end"].get(metric.name, {})
            bound, status = verdict(metric, a, b, rungs)
            va, vb = a.get("value"), b.get("value")
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "a": va,
                "b": vb,
                "ratio": vb / va if va and vb is not None else None,
                "bound": bound,
                "verdict": status,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    report_a, report_b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(report_a, report_b)

    def shown(value) -> str:
        return "n/a" if value is None else f"{value:.6g}"

    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'B/A (base A)':>13s} {'bound':>7s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:14s} {row['metric']:20s} {shown(row['a']):>12s} "
            f"{shown(row['b']):>12s} {shown(row['ratio']):>13s} "
            f"{row['bound']:>7s}  {row['verdict']} [{row['unit']}]"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse, "
          f"{sum(row['verdict'] == 'unresolved' for row in rows)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
