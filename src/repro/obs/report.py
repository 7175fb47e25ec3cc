"""Render a saved JSONL trace as a per-stage breakdown.

Backs the ``repro report <trace.jsonl>`` CLI command: spans are grouped
by name (in first-occurrence order, which follows the flow), with
count / total / mean / max wall-clock columns and each stage's share of
the root wall-clock, followed by the metric aggregates and an event
tally.  ``--top N`` keeps only the N most expensive stages.

Traces that contain ``runtime/ipc/*`` spans (shared-memory publish and
attach, worker-payload pickling) additionally get a
serialization-vs-compute split, so the cost of moving data to workers
is visible next to the cost of placing cells.

Traces of runs driven through :mod:`repro.runtime` (the suite, local
exploration) carry ``runtime/*`` counters; :func:`runtime_summary` turns
them into the one-line ``runtime:`` summary the CLI prints after such a
run, and the report of a trace that has them repeats that line.
"""

from __future__ import annotations

from .trace import read_trace

RUNTIME_PREFIX = "runtime/"
IPC_PREFIX = RUNTIME_PREFIX + "ipc/"


def runtime_summary(metrics: dict) -> str:
    """The ``runtime/*`` counters as one human line.

    Args:
        metrics: ``name -> metric`` where each metric carries a
            ``"value"`` — :meth:`repro.obs.Tracer.metrics` of a live
            tracer, or a saved trace's ``metric`` records by name.

    Example:
        >>> runtime_summary({"runtime/task_finished": {"value": 3.0},
        ...                  "runtime/cache_miss": {"value": 3.0}})
        '3 done, 0 failed, 0 retried, cache 0/3 hits'
    """

    def count(kind: str) -> int:
        return int(metrics.get(RUNTIME_PREFIX + kind, {}).get("value", 0))

    hits, misses = count("cache_hit"), count("cache_miss")
    parts = [
        f"{count('task_finished')} done",
        f"{count('task_failed')} failed",
        f"{count('task_retried')} retried",
    ]
    if hits or misses:
        parts.append(f"cache {hits}/{hits + misses} hits")
    if count("journal_replayed"):
        parts.append(f"{count('journal_replayed')} replayed")
    return ", ".join(parts)


def summarize_trace(records: list, top: int | None = None) -> dict:
    """Aggregate raw trace records.

    Args:
        records: decoded trace records.
        top: keep only the ``top`` span rows with the largest totals
            (``None`` keeps every row).

    Returns:
        ``{"spans": [...], "span_count": N, "root_total": s,
        "ipc": {...} | None, "metrics": [...], "events": [...],
        "errors": [...], "runtime": str | None, "records": N}`` where
        each span row is
        ``{"name", "count", "total", "mean", "max", "pct"}`` in
        first-occurrence order (``pct`` is percent of the root spans'
        total wall-clock).
    """
    spans: dict = {}
    events: dict = {}
    metrics = []
    errors = []
    root_total = 0.0
    ipc_total = 0.0
    ipc_bytes = 0
    for record in records:
        kind = record.get("type")
        if kind == "span":
            row = spans.setdefault(
                record["name"], {"name": record["name"], "count": 0, "total": 0.0, "max": 0.0}
            )
            dur = record.get("dur", 0.0)
            row["count"] += 1
            row["total"] += dur
            row["max"] = max(row["max"], dur)
            if record.get("parent", 0) == 0:
                root_total += dur
            if record["name"].startswith(IPC_PREFIX):
                ipc_total += dur
                ipc_bytes += int((record.get("attrs") or {}).get("bytes", 0) or 0)
            if "error" in record:
                errors.append({"name": record["name"], "error": record["error"]})
        elif kind == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
        elif kind == "metric":
            metrics.append(record)
    span_rows = []
    for row in spans.values():
        row["mean"] = row["total"] / row["count"]
        row["pct"] = 100.0 * row["total"] / root_total if root_total > 0 else 0.0
        span_rows.append(row)
    span_count = len(span_rows)
    if top is not None and top >= 0 and span_count > top:
        # Keep the N most expensive stages but preserve flow order.
        kept = sorted(span_rows, key=lambda r: r["total"], reverse=True)[:top]
        keep_names = {r["name"] for r in kept}
        span_rows = [r for r in span_rows if r["name"] in keep_names]
    ipc = None
    if ipc_total > 0.0:
        compute = max(root_total - ipc_total, 0.0)
        ipc = {
            "serialization": ipc_total,
            "compute": compute,
            "bytes": ipc_bytes,
            "pct": 100.0 * ipc_total / root_total if root_total > 0 else 0.0,
        }
    return {
        "spans": span_rows,
        "span_count": span_count,
        "root_total": root_total,
        "ipc": ipc,
        "metrics": metrics,
        "events": sorted(events.items()),
        "errors": errors,
        "runtime": (
            runtime_summary({m["name"]: m for m in metrics})
            if any(m["name"].startswith(RUNTIME_PREFIX) for m in metrics)
            else None
        ),
        "records": len(records),
    }


def render_report(records: list, top: int | None = None) -> str:
    """Human-readable report of a record list (see module docstring)."""
    summary = summarize_trace(records, top=top)
    lines = [f"TRACE REPORT — {summary['records']} records"]

    if summary["spans"]:
        lines.append("")
        lines.append(
            f"{'span':<34} {'count':>7} {'total s':>10} {'mean s':>10} "
            f"{'max s':>10} {'% root':>7}"
        )
        for row in summary["spans"]:
            lines.append(
                f"{row['name']:<34} {row['count']:>7d} {row['total']:>10.4f} "
                f"{row['mean']:>10.4f} {row['max']:>10.4f} {row['pct']:>6.1f}%"
            )
        hidden = summary["span_count"] - len(summary["spans"])
        if hidden > 0:
            lines.append(f"... {hidden} more spans (raise --top to show)")

    if summary["ipc"] is not None:
        ipc = summary["ipc"]
        lines.append("")
        lines.append(
            f"serialization vs compute: {ipc['serialization']:.4f} s ipc "
            f"({ipc['pct']:.1f}% of root) vs {ipc['compute']:.4f} s compute, "
            f"{ipc['bytes']} payload bytes"
        )

    if summary["metrics"]:
        lines.append("")
        lines.append(f"{'metric':<34} {'kind':>9}  value")
        for record in summary["metrics"]:
            lines.append(
                f"{record['name']:<34} {record['kind']:>9}  "
                f"{_metric_value(record)}"
            )

    if summary["runtime"] is not None:
        lines.append("")
        lines.append(f"runtime: {summary['runtime']}")

    if summary["events"]:
        lines.append("")
        lines.append("events")
        for name, count in summary["events"]:
            lines.append(f"  {name:<32} x {count}")

    if summary["errors"]:
        lines.append("")
        lines.append("spans that exited with an error")
        for item in summary["errors"]:
            lines.append(f"  {item['name']}: {item['error']}")

    return "\n".join(lines)


def report_file(path: str, top: int | None = None) -> str:
    """Read ``path`` and render its report (the CLI entry point)."""
    return render_report(read_trace(path), top=top)


def _metric_value(record: dict) -> str:
    if record["kind"] == "counter":
        return _num(record.get("value"))
    if record["kind"] == "gauge":
        return f"{_num(record.get('value'))} ({record.get('updates', 0)} updates)"
    return (
        f"count={record.get('count', 0)} mean={_num(record.get('mean'))} "
        f"min={_num(record.get('min'))} max={_num(record.get('max'))} "
        f"sum={_num(record.get('sum'))}"
    )


def _num(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
