"""Experiment harness: one registered experiment per table/figure of
Section 7.

Each module defines an :class:`~repro.experiments.api.Experiment` subclass
and registers it in :data:`~repro.experiments.api.EXPERIMENT_REGISTRY` at
import time (importing this package completes the registry).  Run one with::

    from repro.experiments import run_experiment
    result = run_experiment("fig14", scale="bench", runner="process")
    print(result.text)            # the rendered table
    result.to_json_obj()          # structured records

or from the CLI: ``python -m repro.cli experiment --name fig14 --json``.
``examples/reproduce_all.py`` runs everything and regenerates
EXPERIMENTS.md's measured sections.
"""

# Import order is registration order is presentation order (Table 2 first).
from repro.experiments import table2, table3  # noqa: I001
from repro.experiments import fig12, fig13, fig14, fig15, fig16, loss
from repro.experiments import passes_ablation
from repro.experiments.api import (
    EXPERIMENT_REGISTRY,
    CompileJob,
    Experiment,
    ExperimentRecord,
    ExperimentResult,
    FnJob,
    Job,
    UnknownExperimentError,
    canonical_json,
    experiment_names,
    get_experiment,
    group_cells,
    override_rewrite,
    register,
    run_experiment,
)
from repro.experiments.common import SCALES, BenchmarkCase
from repro.experiments.pool import (
    chunk_size_for,
    get_pool,
    shutdown_pools,
)
from repro.experiments.runners import (
    RUNNERS,
    ChunkTask,
    ProcessRunner,
    Runner,
    SerialRunner,
    make_runner,
    run_chunk,
)
from repro.experiments.streams import (
    CsvStreamWriter,
    JsonlStreamWriter,
    make_stream_writer,
)

__all__ = [
    "BenchmarkCase",
    "ChunkTask",
    "CompileJob",
    "CsvStreamWriter",
    "EXPERIMENT_REGISTRY",
    "Experiment",
    "ExperimentRecord",
    "ExperimentResult",
    "FnJob",
    "Job",
    "JsonlStreamWriter",
    "ProcessRunner",
    "RUNNERS",
    "Runner",
    "SCALES",
    "SerialRunner",
    "UnknownExperimentError",
    "canonical_json",
    "override_rewrite",
    "passes_ablation",
    "chunk_size_for",
    "experiment_names",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "get_experiment",
    "get_pool",
    "group_cells",
    "loss",
    "make_runner",
    "make_stream_writer",
    "register",
    "run_chunk",
    "run_experiment",
    "shutdown_pools",
    "table2",
    "table3",
]
