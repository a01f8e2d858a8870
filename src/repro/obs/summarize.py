"""Trace-file analysis: per-pass / per-run breakdowns, cache hit rates.

The reading half of the telemetry layer: :func:`load_trace` parses a JSONL
trace written by :meth:`~repro.obs.Telemetry.write_trace`,
:func:`summarize_trace` reduces it to a plain dict (per-pass wall/CPU
seconds, per-run job counts, compile counts, cache hit rate from the
embedded metrics snapshot), and :func:`render_summary` turns that into the
fixed-width tables ``repro telemetry summarize`` prints.  The numbers
reconcile by construction: pass rows sum the very spans
``Pipeline.run`` recorded next to ``PassContext.timings``, and the cache
table reads the counters the runners folded from each record's
``cache_hits``/``cache_misses`` provenance.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

from repro.errors import ReproError
from repro.pipeline.cache import cache_summary


def load_trace(path: str | os.PathLike) -> dict[str, Any]:
    """Parse a JSONL trace file into ``{"meta", "spans", "metrics", "path"}``.

    Unknown line types are ignored (forward compatibility); a file with no
    parsable lines at all is an error, not an empty summary.
    """
    meta: dict[str, Any] = {}
    spans: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    parsed = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{lineno}: not JSON: {exc}") from exc
            parsed += 1
            kind = obj.get("type")
            if kind == "meta":
                meta = obj
            elif kind == "span":
                spans.append(obj)
            elif kind == "metrics":
                metrics = obj
    if not parsed:
        raise ReproError(f"{path}: empty trace file")
    return {"meta": meta, "spans": spans, "metrics": metrics, "path": str(path)}


def load_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse a JSONL events file into a list of event dicts."""
    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{lineno}: not JSON: {exc}") from exc
    return events


def summarize_trace(
    trace: dict[str, Any], events: Iterable[dict[str, Any]] | None = None
) -> dict[str, Any]:
    """Reduce a loaded trace (and optional events) to summary tables.

    Returns a JSON-ready dict::

        {"passes":  {name: {"calls", "wall_seconds", "cpu_seconds"}},
         "runs":    {experiment: {"jobs", "wall_seconds"}},
         "compiles": N,
         "cache":   {"hits", "misses", "hit_rate", "evictions"},
         "events":  {kind: count}}     # only when events are given
    """
    passes: dict[str, dict[str, float]] = {}
    runs: dict[str, dict[str, float]] = {}
    compiles = 0
    for record in trace["spans"]:
        name = record.get("name", "")
        if name.startswith("pass:"):
            row = passes.setdefault(
                name[len("pass:"):],
                {"calls": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0},
            )
            row["calls"] += 1
            row["wall_seconds"] += float(record.get("dur") or 0.0)
            row["cpu_seconds"] += float(record.get("cpu") or 0.0)
        elif name.startswith("run:"):
            attrs = record.get("attrs", {})
            row = runs.setdefault(
                name[len("run:"):], {"jobs": 0, "wall_seconds": 0.0}
            )
            row["jobs"] += int(attrs.get("jobs", 0))
            row["wall_seconds"] += float(record.get("dur") or 0.0)
        elif name == "compile":
            compiles += 1
    counters = trace.get("metrics", {}).get("counters", {})
    cache = cache_summary(
        int(counters.get("cache.hits", 0)), int(counters.get("cache.misses", 0))
    )
    cache["evictions"] = int(counters.get("cache.evictions", 0))
    summary: dict[str, Any] = {
        "passes": passes,
        "runs": runs,
        "compiles": compiles,
        "cache": cache,
    }
    if events is not None:
        kinds: dict[str, int] = {}
        for item in events:
            kind = item.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        summary["events"] = dict(sorted(kinds.items()))
    return summary


def render_summary(summary: dict[str, Any]) -> str:
    """Fixed-width tables for the terminal (``repro telemetry summarize``)."""
    lines: list[str] = []
    passes = summary.get("passes", {})
    if passes:
        width = max(len("pass"), *(len(name) for name in passes))
        lines.append("== per-pass ==")
        lines.append(f"{'pass':<{width}}  {'calls':>6}  {'wall s':>10}  {'cpu s':>10}")
        for name, row in passes.items():
            lines.append(
                f"{name:<{width}}  {row['calls']:>6d}  "
                f"{row['wall_seconds']:>10.4f}  {row['cpu_seconds']:>10.4f}"
            )
    runs = summary.get("runs", {})
    if runs:
        width = max(len("per-run"), *(len(name) for name in runs))
        lines.append("== per-run ==")
        lines.append(f"{'':<{width}}  {'jobs':>6}  {'wall s':>10}")
        for name, row in runs.items():
            lines.append(
                f"{name:<{width}}  {row['jobs']:>6d}  {row['wall_seconds']:>10.4f}"
            )
    cache = summary.get("cache", {})
    lines.append("== cache ==")
    lines.append(
        f"hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}  "
        f"hit rate {cache.get('hit_rate', 0.0):.0%}  "
        f"evictions {cache.get('evictions', 0)}"
    )
    if summary.get("compiles"):
        lines.append(f"compilations: {summary['compiles']}")
    if "events" in summary:
        lines.append("== events ==")
        for kind, count in summary["events"].items():
            lines.append(f"{kind}: {count}")
    return "\n".join(lines)
