"""Opt-in writes of the tracked ``benchmarks/BENCH_*.json`` perf snapshots.

The bench tests always measure and assert their floors, but they rewrite
their committed snapshot only when ``REPRO_WRITE_BENCH_SNAPSHOTS=1`` is set
(the CI bench job sets it), so an ordinary test run leaves the tracked
files untouched and only a deliberate measurement changes one::

    REPRO_WRITE_BENCH_SNAPSHOTS=1 PYTHONPATH=src python -m pytest benchmarks -m bench
"""

from __future__ import annotations

import json
import os
from pathlib import Path

WRITE_ENV = "REPRO_WRITE_BENCH_SNAPSHOTS"


def write_snapshot(path: Path, snapshot: dict) -> None:
    """Write ``snapshot`` to ``path`` as indented JSON, if writes are enabled."""
    if os.environ.get(WRITE_ENV) == "1":
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
