"""Lifecycle event stream: an in-memory log with a per-event-flush sink.

Events are the narrative half of telemetry — job started/finished, cache
hit and miss — one flat JSON object per event with an epoch ``ts`` and a
``kind``.  The log always buffers in memory; when a ``path`` is given,
every event is also written and flushed immediately, following the
per-record-flush discipline of :mod:`repro.experiments.streams` — the file
is tail-able mid-run and survives a crash with everything emitted so far.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Any

#: Bump when the event schema changes; validated by
#: benchmarks/telemetry_schema.py.
EVENTS_SCHEMA_VERSION = 1


class EventLog:
    """Append-only event buffer with an optional flush-per-line JSONL sink."""

    def __init__(self, path: str | None = None) -> None:
        self.events: list[dict[str, Any]] = []
        self.path = path
        self._handle: IO[str] | None = open(path, "w") if path else None
        self._lock = threading.Lock()

    def emit(self, kind: str, _ts: float | None = None, **fields: Any) -> dict[str, Any]:
        """Record one event; ``_ts`` preserves an original timestamp when a
        parent re-emits a subprocess's buffered events."""
        event = {"ts": time.time() if _ts is None else _ts, "kind": kind, **fields}
        with self._lock:
            self.events.append(event)
            if self._handle is not None:
                self._handle.write(json.dumps(event, sort_keys=True) + "\n")
                self._handle.flush()  # the contract: every event reaches the OS
        return event

    def __len__(self) -> int:
        return len(self.events)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
