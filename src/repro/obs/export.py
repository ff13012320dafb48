"""Span and metric exporters: JSONL, Chrome trace-event, Prometheus text.

Three formats, three audiences:

* **JSON lines** (:func:`write_spans_jsonl` / :func:`load_spans_jsonl`) —
  the machine interchange format.  One span per line; a forked shard
  server appends its wire-side spans to such a file and the client loads
  and merges them into the same trace (ids were propagated in the frame).
* **Chrome trace-event** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — open the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` and scrub the
  timeline.  Spans become complete (``"ph": "X"``) events; timestamps are
  microseconds relative to the earliest span so virtual-clock traces
  render sensibly.
* **Prometheus text exposition** (:func:`prometheus_text`) — the
  registry's counters and gauges, read from its collectors at scrape time,
  in the standard scrape format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .registry import MetricsRegistry
from .trace import Span


# ---------------------------------------------------------------------- #
# JSON lines
# ---------------------------------------------------------------------- #
def span_to_dict(span: Span) -> dict:
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attributes": dict(span.attributes),
    }


def span_from_dict(payload: dict) -> Span:
    return Span(
        trace_id=int(payload["trace_id"]),
        span_id=int(payload["span_id"]),
        parent_id=(
            None if payload.get("parent_id") is None else int(payload["parent_id"])
        ),
        name=str(payload["name"]),
        start=float(payload["start"]),
        end=float(payload["end"]),
        attributes=dict(payload.get("attributes") or {}),
    )


def spans_to_dicts(spans: Iterable[Span]) -> list[dict]:
    return [span_to_dict(span) for span in spans]


def write_spans_jsonl(spans: Iterable[Span], path) -> int:
    """Write one span per line; returns the number written."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_spans_jsonl(path) -> list[Span]:
    """Load spans written by :func:`write_spans_jsonl` (or a server log)."""
    spans = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    return spans


# ---------------------------------------------------------------------- #
# Chrome trace-event JSON
# ---------------------------------------------------------------------- #
def chrome_trace(
    spans: Sequence[Span],
    *,
    process_name: str = "repro-serving",
) -> dict:
    """Spans as a Chrome trace-event document (Perfetto-openable).

    Each trace becomes its own track (``tid`` = trace id), so concurrent
    requests stack as parallel rows on the timeline.  Timestamps are
    rebased to the earliest span and scaled to microseconds — Perfetto
    dislikes huge absolute monotonic-clock values.
    """
    if spans:
        base = min(span.start for span in spans)
    else:
        base = 0.0
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": span.trace_id,
                "name": span.name,
                "ts": (span.start - base) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **dict(span.attributes),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path, **kwargs) -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans, **kwargs)), encoding="utf-8")
    return path


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #
def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition spec.

    Backslash first (it is the escape character), then the quote that
    would end the value and the newline that would end the sample line.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """``# HELP`` continuation escaping: backslash and newline only."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry's current samples in Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for sample in registry.collect():
        if sample.name not in typed:
            help_text = registry.help_text(sample.name)
            if help_text is None:
                help_text = f"{sample.kind} {sample.name}"
            lines.append(f"# HELP {sample.name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {sample.name} {sample.kind}")
            typed.add(sample.name)
        labels = _format_labels(sample.labels)
        lines.append(f"{sample.name}{labels} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"
