"""One composed-stack benchmark: four workloads, per-layer probes, a traced run.

Two ways in, one code path:

``run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]``
    One workload in this process (the driver's contract).  Prints every
    metric by name with its unit, then — as the last line — one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
    metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``run.py --seed N --out DIR [--seconds S] [--smoke] [--repeat K]``
    The suite: every workload, both trace modes, each in its own child
    process (so ``peak_rss_mb`` is the workload's own), merged into
    ``DIR/report.json`` next to ``DIR/trace_<workload>.json``.  ``--repeat 2``
    runs the suite twice and compares the two reports with ``compare.py``.

The program under test is imported from ``src/`` of the checkout this file
sits in; a directory without it is refused with a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch inside the checkout (feature spill files); removed on exit.
WORK_ROOT = ROOT / ".e2e_work"
SMOKE_SECONDS = 2.0


def _load_program() -> None:
    if not (SRC / "repro").is_dir():
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure — {SRC / 'repro'} is missing\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------- #
# Worker: one workload in this process
# --------------------------------------------------------------------- #
def run_worker(args) -> int:
    _load_program()
    import workloads
    from metrics import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}\n")
        return 2
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=SMOKE_SECONDS if args.smoke else args.seconds,
        trace=args.trace,
        work_root=WORK_ROOT / str(os.getpid()),
        setup_repeats=1 if args.smoke else workloads.SETUP_REPEATS,
    )
    try:
        workloads.run_workload(run)
    finally:
        shutil.rmtree(run.work_root, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    wanted = PER_LAYER if args.trace else END_TO_END
    line = {}
    for metric in wanted:
        entry = run.metrics.get(metric.name, {"value": None})
        value = entry["value"]
        if value is None and not args.trace and not args.smoke:
            # A gated metric that could not be measured (a p95 without ten
            # samples beyond it, say) is an error, never a silent zero.
            sys.stderr.write(
                f"{metric.name} could not be measured in {args.seconds} s "
                f"on {args.workload}\n"
            )
            return 3
        note = "".join(
            f" {key}={entry[key]:.4g}" for key in ("samples", "spread") if key in entry
        )
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:14s} {metric.name:44s} {shown:>12s} {metric.unit}{note}")
        # Per-layer metrics that do not apply to a workload read 0.
        line[metric.name] = {
            "value": value if value is not None or args.smoke else 0.0,
            "unit": metric.unit,
        }
    for name, phase in run.phases.items():
        print(
            f"{args.workload:14s} phase {name:12s} sent={phase['sent']} "
            f"ok={phase['succeeded']} failed={phase['failed']} "
            f"samples={phase['samples']} lateness_p95_ms={phase['lateness_p95_ms']}"
        )

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": run.workload,
            "seed": run.seed,
            "seconds": run.seconds,
            "trace": run.trace,
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": run.metrics,
            "phases": run.phases,
            "notes": run.notes,
        }
        path = args.out / f"{run.workload}.trace{run.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        if run.spans is not None:
            (args.out / f"trace_{run.workload}.json").write_text(
                json.dumps(run.spans) + "\n"
            )
    print(json.dumps({
        "correct": bool(run.correct and run.failed == 0),
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": line,
    }))
    return 0


# --------------------------------------------------------------------- #
# Suite: every workload x both trace modes, one child process each
# --------------------------------------------------------------------- #
def _stamp(args) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": SMOKE_SECONDS if args.smoke else args.seconds,
        "smoke": bool(args.smoke),
    }


def run_suite(args, out: Path) -> dict:
    _load_program()
    from metrics import BY_NAME, END_TO_END, PER_LAYER, UNGATED_END_TO_END, WORKLOADS
    from system import PINNED

    out.mkdir(parents=True, exist_ok=True)
    report = {
        "benchmark": "e2e",
        "smoke": bool(args.smoke),
        "stamp": _stamp(args),
        "pinned": PINNED,
        "workloads": {},
    }
    end_to_end = [m.name for m in (*END_TO_END, *UNGATED_END_TO_END)]
    for name in WORKLOADS:
        records = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT, timeout=600)
            if done.returncode != 0:
                raise SystemExit(f"{name} --trace {trace} exited {done.returncode}")
            records[trace] = json.loads(
                (out / f"{name}.trace{trace}.json").read_text()
            )

        def entry(metric: str) -> dict:
            # End-to-end numbers come from the untraced run; what it does
            # not measure (slo_rate_rps needs the r1 rung) from the other.
            for trace in (0, 1):
                found = records[trace]["metrics"].get(metric)
                if found is not None and found["value"] is not None:
                    return {**found, "unit": BY_NAME[metric].unit}
            return {"value": None, "unit": BY_NAME[metric].unit}

        report["workloads"][name] = {
            "correct": all(r["correct"] and r["failed"] == 0 for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "end_to_end": {metric: entry(metric) for metric in end_to_end},
            "per_layer": {
                m.name: {
                    **records[1]["metrics"].get(m.name, {"value": None}),
                    "unit": m.unit,
                }
                for m in PER_LAYER if m.name not in end_to_end
            },
            "phases": {f"trace{t}": r["phases"] for t, r in records.items()},
            "notes": {f"trace{t}": r["notes"] for t, r in records.items()},
        }
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out / 'report.json'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives only the request stream")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for report and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="every phase <= 2 s, one set-up; stamps smoke: true")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite only: run K times and compare run 1 with run K")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.seconds is None:
        args.seconds = float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    if args.workload:
        return run_worker(args)
    if args.out is None:
        parser.error("the suite needs --out DIR (or give --workload)")
    if args.repeat == 1:
        run_suite(args, args.out)
        return 0
    for index in range(1, args.repeat + 1):
        run_suite(args, args.out / f"run{index}")
    import compare

    return compare.main([
        str(args.out / "run1" / "report.json"),
        str(args.out / f"run{args.repeat}" / "report.json"),
    ])


if __name__ == "__main__":
    sys.exit(main())
