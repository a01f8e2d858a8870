"""Unified telemetry: tracing spans, a metrics registry, and event streams.

One stdlib-only subsystem answers "where did time and memory go?" across
the whole stack — pipeline passes, the artifact cache, and every runner
backend:

* **tracing** (:mod:`repro.obs.trace`) — hierarchical spans with monotonic
  durations and parent links, exportable as JSONL and as Chrome
  ``trace_event`` JSON for ``chrome://tracing``;
* **metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  (cache hits, evictions, BFS wavefront sizes, reorder-buffer depth);
* **events** (:mod:`repro.obs.events`) — a per-event-flush JSONL lifecycle
  stream (run and job started/finished, cache hit and miss).

Telemetry is strictly **out-of-band**: nothing recorded here may feed a
computation, so golden records are byte-identical with telemetry on or
off (enforced by test).  Collection is scoped to a :func:`session` — with
no session active, every module-level helper short-circuits on one global
``None`` check and the hot paths pay nothing.

Cross-process contract: a subprocess cannot see the parent's session, so
its telemetry rides the same pickle channels its results already use —
compilation spans attach to ``CompilationResult``/``ExperimentRecord``
(adopted by the consuming runner), and the cache hit/miss counts that
feed the ``cache.*`` counters ride the records' ``metrics``.

Usage::

    from repro import obs

    with obs.session(events_path="events.jsonl") as tele:
        pipeline.compile(circuit)          # pass spans, cache counters
        tele.write_trace("trace.jsonl")    # or fmt="chrome"

    # deep instrumentation, no handle threading:
    with obs.span("bfs", nodes=n): ...
    obs.count("cache.hits"); obs.observe("online.bfs_nodes", 128)
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.events import EVENTS_SCHEMA_VERSION, EventLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    Tracer,
    chrome_trace_obj,
    current_tracer,
    push_tracer,
    span,
    write_trace_jsonl,
)

__all__ = [
    "EVENTS_SCHEMA_VERSION",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "TRACE_SCHEMA_VERSION",
    "Telemetry",
    "Tracer",
    "active",
    "chrome_trace_obj",
    "count",
    "current_tracer",
    "event",
    "gauge",
    "observe",
    "push_tracer",
    "session",
    "span",
    "write_trace_jsonl",
]

#: Valid ``--trace-format`` vocabulary (see :meth:`Telemetry.write_trace`).
TRACE_FORMATS = ("jsonl", "chrome")


class Telemetry:
    """One session's collectors: a tracer, a registry, an event log."""

    def __init__(self, events_path: str | None = None) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog(events_path)

    # -- adoption: telemetry that crossed a process boundary ----------------

    def adopt_record(self, record: Any) -> None:
        """Fold one experiment record's out-of-band telemetry in.

        Spans attached to the record are adopted with the job key stamped
        on their roots; cache hit/miss counts from ``record.metrics`` (the
        provenance channel that already survives every runner boundary)
        feed the ``cache.*`` counters — the **single** source of those
        counters, so serial and process runs reconcile identically.
        """
        spans = getattr(record, "spans", ()) or ()
        if spans:
            self.tracer.adopt(spans, root_attrs={"job": record.job})
        metrics = getattr(record, "metrics", None) or {}
        hits = metrics.get("cache_hits", 0)
        misses = metrics.get("cache_misses", 0)
        if hits:
            self.metrics.inc("cache.hits", hits)
        if misses:
            self.metrics.inc("cache.misses", misses)
        self.events.emit(
            "job_finished", job=record.job, experiment=record.experiment
        )

    def adopt_compile(self, result: Any, circuit: str | None = None) -> None:
        """Fold one raw compilation outcome in (the CLI compile path)."""
        spans = getattr(result, "spans", ()) or ()
        attrs = {"circuit": circuit} if circuit else None
        if spans:
            self.tracer.adopt(spans, root_attrs=attrs)
        metrics = getattr(result, "metrics", None) or {}
        for source, counter in (("cache_hits", "cache.hits"),
                                ("cache_misses", "cache.misses")):
            value = metrics.get(source, 0)
            if value:
                self.metrics.inc(counter, value)
        self.events.emit("compile_finished", circuit=circuit)

    # -- exports -------------------------------------------------------------

    def write_trace(self, path: str, fmt: str = "jsonl") -> None:
        """Export the session trace: ``jsonl`` span lines (plus the metrics
        snapshot) or a Chrome ``trace_event`` JSON object."""
        if fmt == "jsonl":
            write_trace_jsonl(path, self.tracer.spans, metrics=self.metrics.snapshot())
        elif fmt == "chrome":
            with open(path, "w") as handle:
                json.dump(chrome_trace_obj(self.tracer.spans), handle)
                handle.write("\n")
        else:
            raise ValueError(
                f"unknown trace format {fmt!r}; use one of: {', '.join(TRACE_FORMATS)}"
            )

    def close(self) -> None:
        self.events.close()


# ---------------------------------------------------------------------------
# The active session
# ---------------------------------------------------------------------------

_ACTIVE: Telemetry | None = None
_ACTIVE_LOCK = threading.Lock()


def active() -> Telemetry | None:
    """The process's active telemetry session, or None (the common case)."""
    return _ACTIVE


@contextmanager
def session(events_path: str | None = None) -> Iterator[Telemetry]:
    """Activate a telemetry session for a scope (reentrant: nested sessions
    stack, the inner one collecting until it exits)."""
    global _ACTIVE
    tele = Telemetry(events_path=events_path)
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, tele
    try:
        yield tele
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous
        tele.close()


# -- module-level recording helpers (no-ops without a session) --------------


def count(name: str, value: float = 1) -> None:
    """Bump counter ``name`` on the active session, if any."""
    tele = _ACTIVE
    if tele is not None:
        tele.metrics.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the active session, if any."""
    tele = _ACTIVE
    if tele is not None:
        tele.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` on the active session."""
    tele = _ACTIVE
    if tele is not None:
        tele.metrics.observe(name, value)


def event(kind: str, **fields: Any) -> None:
    """Emit a lifecycle event on the active session, if any."""
    tele = _ACTIVE
    if tele is not None:
        tele.events.emit(kind, **fields)
