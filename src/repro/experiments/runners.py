"""Pluggable experiment runners: serial, process-pool, sharded.

A runner executes a job list and produces input-ordered
:class:`~repro.experiments.api.ExperimentRecord` lists.  All backends
produce byte-identical canonical records for any worker or shard count
because jobs are self-seeded (see :mod:`repro.experiments.api`); the
backend choice only moves wall-clock time around.

Execution is **streaming end-to-end**: the primitive is
:meth:`Runner.iter_jobs`, a generator that yields each record as its job
finishes, with canonical (input) ordering restored by a reorder buffer —
out-of-order completions wait in the buffer until every earlier record has
been yielded.  ``run_jobs`` is simply ``list(iter_jobs(...))``, so the
serial, process, and sharded backends all stream for free.

Compile jobs are grouped by ``(settings, baseline)``; each group shares one
pipeline, and every job runs through :func:`_execute_job`, the one
execution core for in-line, pooled, and sharded runs alike.  The process
runner draws its executor from the **warm pool registry**
(:mod:`repro.experiments.pool`): one process pool per worker count, created
on first use and reused across ``iter_jobs`` calls and whole sweeps, so
pool startup is paid once per process, not once per run.  Jobs are
submitted in **chunks** sized to amortize IPC
(:func:`~repro.experiments.pool.chunk_size_for`; override with
``chunk_size=``/``--chunk-size``): each chunk executes in-worker and
returns finished *records*, so the heavy compile artifacts (mapping,
reshape, instruction stream) never travel back through the pool pipe —
with a :class:`~repro.pipeline.cache.DiskCache` attached they are already
in the shared store, which is the exchange medium.

:class:`ShardedRunner` partitions the job list into N shards keyed by a
stable hash of each job's key (:func:`shard_for`), executes every shard as
a self-contained :class:`ShardTask` in a subprocess, and exchanges
artifacts through per-shard :class:`~repro.pipeline.cache.ShardDiskCache`
delta directories that merge back into one warm base store.  The task is
the whole contract — jobs, provenance, and two cache directory paths — so
the same shards could run on remote hosts with the cache directories as
the wire format; the local subprocess pool is just the first transport.

One caveat follows from "only the wall clock differs": records' ``timings``
are measured while jobs *contend* for cores, so the timing columns of the
timing experiments (Figs. 14-15) are only meaningful from the serial
runner — the default everywhere.  Pool runners still produce
bit-identical deterministic fields; they just cannot be used to *measure*
single-job wall clock.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro import obs
from repro.circuits.benchmarks import make_benchmark
from repro.errors import ReproError
from repro.experiments.api import CompileJob, ExperimentRecord, FnJob, Job
from repro.experiments.pool import (
    chunk_size_for,
    chunked,
    discard_pool,
    get_pool,
    resolve_workers,
)
from repro.pipeline import Pipeline
from repro.pipeline.cache import DiskCache, ShardDiskCache, shard_scratch


def _call_fn_job(job: FnJob) -> Any:
    # Module-level so the process pool can pickle it by reference.
    return job.fn(**job.kwargs)


def _named(job: Job, experiment: str, compute):
    """Run ``compute``, naming the failing job: a sweep error must say which
    sweep point died (circuit names alone repeat across settings groups)."""
    try:
        return compute()
    except Exception as exc:
        raise ReproError(f"{experiment} job {job.key!r}: {exc}") from exc


def _split_output(out: Any) -> tuple[dict[str, Any], dict[str, float]]:
    """Normalize an FnJob return value into (fields, timings)."""
    if isinstance(out, tuple):
        fields, timings = out
        return dict(fields), dict(timings)
    return dict(out), {}


def _group_pipelines(
    jobs: Sequence[Job], cache, telemetry: bool
) -> dict[tuple, Pipeline]:
    """One cache-wrapped pipeline per ``(settings, baseline)`` group."""
    pipelines: dict[tuple, Pipeline] = {}
    for job in jobs:
        if isinstance(job, CompileJob):
            group = (job.settings, job.baseline)
            if group not in pipelines:
                pipelines[group] = Pipeline(
                    job.settings, cache=cache, telemetry=telemetry
                )
    return pipelines


def _execute_job(
    job: Job,
    pipelines: dict[tuple, Pipeline],
    *,
    experiment: str,
    scale: str,
    seed: int,
) -> ExperimentRecord:
    """Run one job to a finished record — the one execution core.

    Shared verbatim by the serial loop and the chunk worker, so in-line,
    process-, and shard-hosted execution cannot drift: compile jobs run on
    their group's shared pipeline, fn jobs call their module-level
    function, and failures name the job either way.
    """
    if isinstance(job, CompileJob):
        pipeline = pipelines[(job.settings, job.baseline)]
        circuit = make_benchmark(job.family, job.num_qubits, seed=job.benchmark_seed)
        compile_one = pipeline.compile_baseline if job.baseline else pipeline.compile
        outcome = _named(job, experiment, lambda: compile_one(circuit, job.seed))
        return _compile_record(
            job, outcome, experiment=experiment, scale=scale, seed=seed
        )
    out = _named(job, experiment, lambda: _call_fn_job(job))
    return _fn_record(job, out, experiment=experiment, scale=scale, seed=seed)


@dataclass(frozen=True)
class ChunkTask:
    """One pool dispatch quantum: a contiguous slice of a sweep's jobs.

    Like :class:`ShardTask`, a chunk carries no live resources — indexed
    self-seeded jobs, provenance, the cache handle (the process pool
    pickles it, which for a :class:`~repro.pipeline.cache.DiskCache` means
    *by path*, so workers read and feed the one shared store), and the
    telemetry intent flag.  One chunk costs one pickle round trip however
    many jobs it holds.
    """

    experiment: str
    scale: str
    seed: int
    jobs: tuple[tuple[int, Job], ...]  # (canonical index, job) pairs
    cache: Any = None
    telemetry: bool = False


def run_chunk(task: ChunkTask) -> list[tuple[int, ExperimentRecord]]:
    """Execute one chunk in-worker; return slim, record-shaped results.

    Module-level so process pools pickle it by reference.  Records are
    built *worker-side*: only the record's scalars, timings, metrics, and
    spans travel back through the pool pipe, never the heavy compile
    artifacts behind them (with a ``DiskCache`` attached those are
    already in the shared store — the cache directory is the exchange
    medium, so shipping the blobs again would pay for them twice).
    """
    jobs = [job for _index, job in task.jobs]
    pipelines = _group_pipelines(jobs, task.cache, task.telemetry)
    return [
        (
            index,
            _execute_job(
                job,
                pipelines,
                experiment=task.experiment,
                scale=task.scale,
                seed=task.seed,
            ),
        )
        for index, job in task.jobs
    ]


def _fail_fast(pool, futures, exc: BaseException) -> None:
    """The pool error path: cancel queued work; retire a poisoned pool.

    Without this, a failing job surfaced only after every other queued
    job ran to completion (the executor kept draining).  Cancelling makes
    the failure immediate; on a real error the shared pool is also
    retired via :func:`~repro.experiments.pool.discard_pool` (shutdown
    with ``cancel_futures=True``), because a pool mid-way through a
    cancelled sweep must not serve the next caller.  An abandoned
    consumer (``GeneratorExit``) only cancels — the pool itself is
    healthy and stays warm.
    """
    for future in futures:
        future.cancel()
    if not isinstance(exc, GeneratorExit):
        discard_pool(pool)


class _ReorderBuffer:
    """Restores canonical order over out-of-order completions.

    The one definition of the streaming contract's ordering half, shared
    by every backend that completes work out of order: ``push`` completed
    records under their canonical index, ``drain`` yields the contiguous
    prefix that is now safe to emit.
    """

    def __init__(self) -> None:
        self._records: dict[int, ExperimentRecord] = {}
        self._next_index = 0

    def __len__(self) -> int:
        """Records waiting on an earlier index (the buffer's depth)."""
        return len(self._records)

    def push(self, index: int, record: ExperimentRecord) -> None:
        self._records[index] = record

    def drain(self) -> Iterator[ExperimentRecord]:
        while self._next_index in self._records:
            yield self._records.pop(self._next_index)
            self._next_index += 1


class Runner:
    """Serial execution: the reference backend every other one must match.

    ``cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`) is shared
    by every compile batch of every ``iter_jobs``/``run_jobs`` call on this
    runner: each compile group's pipeline is cache-wrapped before dispatch,
    so one cache serves the whole experiment run regardless of backend.
    Records are byte-identical with the cache off, cold, or warm — hit/miss
    counts land in the records' non-canonical ``metrics``.  (A
    ``MemoryCache`` shares within the serial runner only; the process and
    sharded runners need a ``DiskCache`` to share entries across
    workers.)
    """

    name = "serial"
    #: Which warm-pool kind this backend draws from (None = in-line).
    pool_kind: str | None = None

    def __init__(
        self,
        max_workers: int | None = None,
        cache=None,
        telemetry: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ReproError(f"worker count must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ReproError(f"chunk size must be >= 1, got {chunk_size}")
        self.max_workers = max_workers
        self.cache = cache
        # Dispatch quantum for pool backends; None = auto-sized per sweep
        # (see ``chunk_size_for``).  Records are identical for any value.
        self.chunk_size = chunk_size
        # Explicit collection intent for contexts where no session can be
        # seen (a sharded child process runs with ``telemetry=True`` under
        # its own collect-only session); with a session active in *this*
        # process, telemetry opts in automatically regardless.
        self.telemetry = telemetry

    # -- the runner contract ------------------------------------------------

    def run_jobs(
        self,
        jobs: Sequence[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> list[ExperimentRecord]:
        """Execute every job; records come back in job order."""
        return list(
            self.iter_jobs(jobs, experiment=experiment, scale=scale, seed=seed)
        )

    def iter_jobs(
        self,
        jobs: Sequence[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> Iterator[ExperimentRecord]:
        """Yield one record per job, in canonical (input) order, as jobs
        finish.

        Pool backends complete jobs out of order; a reorder buffer holds
        early completions until every lower-index record has been yielded,
        so consumers always observe the exact ``run_jobs`` sequence — just
        incrementally.  The serial backend executes in input order and
        yields immediately.

        With a telemetry session active, the stream is additionally
        observed out-of-band: a ``run:<experiment>`` span brackets the
        whole call, ``run_started``/``run_finished`` events mark its
        lifecycle, and every record's spans and cache provenance are
        adopted into the session as the record passes through.  Records
        themselves are byte-identical either way.
        """
        jobs = list(jobs)
        tele = obs.active()
        if tele is None:
            yield from self._iter_jobs(
                jobs, experiment=experiment, scale=scale, seed=seed
            )
            return
        tele.events.emit(
            "run_started",
            experiment=experiment,
            scale=scale,
            seed=seed,
            runner=self.name,
            jobs=len(jobs),
        )
        t0 = time.time()
        wall0 = time.perf_counter()
        yielded = 0
        try:
            for record in self._iter_jobs(
                jobs, experiment=experiment, scale=scale, seed=seed
            ):
                self._adopt(tele, record)
                yielded += 1
                yield record
        finally:
            tele.tracer.add_span(
                f"run:{experiment}",
                ts=t0,
                dur=time.perf_counter() - wall0,
                attrs={"runner": self.name, "jobs": yielded},
            )
            tele.events.emit(
                "run_finished", experiment=experiment, runner=self.name, jobs=yielded
            )

    def _iter_jobs(
        self,
        jobs: list[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> Iterator[ExperimentRecord]:
        """The untraced execution core ``iter_jobs`` wraps."""
        self._check_jobs(jobs)
        pool = self._acquire_pool()
        if pool is None:
            yield from self._iter_serial(
                jobs,
                self._group_pipelines(jobs),
                experiment=experiment,
                scale=scale,
                seed=seed,
            )
        else:
            yield from self._iter_pool(
                pool, jobs, experiment=experiment, scale=scale, seed=seed
            )

    def _adopt(self, tele, record: ExperimentRecord) -> None:
        """Fold one finished record's telemetry into the session.

        The base rule: record metrics are *the* source of the session's
        ``cache.*`` counters (they survive every pool boundary).  The
        sharded runner overrides this — its children folded their own
        records already and their registry snapshots merge wholesale.
        """
        tele.adopt_record(record)

    # -- shared halves ------------------------------------------------------

    @staticmethod
    def _check_jobs(jobs: Sequence[Job]) -> None:
        """Reject unknown job kinds before any execution machinery spins up."""
        for job in jobs:
            if not isinstance(job, (CompileJob, FnJob)):
                raise ReproError(f"runner cannot execute job of type {type(job)!r}")

    def _group_pipelines(self, jobs: Sequence[Job]) -> dict[tuple, Pipeline]:
        """One cache-wrapped pipeline per ``(settings, baseline)`` group."""
        return _group_pipelines(jobs, self.cache, self.telemetry)

    def _iter_serial(
        self, jobs, pipelines, *, experiment, scale, seed
    ) -> Iterator[ExperimentRecord]:
        # In-line execution is already in canonical order; the execution
        # core is the same one the chunk workers run.
        for job in jobs:
            obs.event("job_started", job=job.key, experiment=experiment)
            yield _execute_job(
                job, pipelines, experiment=experiment, scale=scale, seed=seed
            )

    def _iter_pool(
        self, pool, jobs, *, experiment, scale, seed
    ) -> Iterator[ExperimentRecord]:
        # Chunked dispatch over the warm pool: every chunk is in flight
        # before anything yields, so the pool stays saturated; each chunk
        # comes back as finished records (one pickle round trip per chunk,
        # no artifact blobs on the return path).
        size = chunk_size_for(
            len(jobs), resolve_workers(self.max_workers), self.chunk_size
        )
        telemetry = self.telemetry or obs.active() is not None
        futures = {
            pool.submit(
                run_chunk,
                ChunkTask(
                    experiment=experiment,
                    scale=scale,
                    seed=seed,
                    jobs=tuple(chunk),
                    cache=self.cache,
                    telemetry=telemetry,
                ),
            ): chunk
            for chunk in chunked(list(enumerate(jobs)), size)
        }
        for job in jobs:
            obs.event("job_started", job=job.key, experiment=experiment)
        obs.gauge("runner.chunk_size", size)
        buffer = _ReorderBuffer()
        in_flight = len(jobs)
        obs.gauge("runner.jobs_in_flight", in_flight)
        try:
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    pairs = future.result()
                except ReproError:
                    raise  # worker-side _named already names the failing job
                except Exception as exc:
                    keys = ", ".join(job.key for _index, job in chunk)
                    raise ReproError(
                        f"{experiment} chunk [{keys}]: {exc}"
                    ) from exc
                in_flight -= len(pairs)
                obs.gauge("runner.jobs_in_flight", in_flight)
                for index, record in pairs:
                    buffer.push(index, record)
                obs.observe("runner.reorder_depth", len(buffer))
                yield from buffer.drain()
        except BaseException as exc:
            # Fail fast: a poisoned sweep must not wait for — or leave
            # behind — the rest of its queued chunks.
            _fail_fast(pool, futures, exc)
            raise

    def _acquire_pool(self):
        """The warm executor this run dispatches to (None = in-line)."""
        if self.pool_kind is None:
            return None
        return get_pool(self.pool_kind, self.max_workers)


class SerialRunner(Runner):
    """Alias of the base runner; the canonical reference backend."""


class ProcessRunner(Runner):
    name = "process"
    pool_kind = "process"


# ---------------------------------------------------------------------------
# Sharded execution
# ---------------------------------------------------------------------------

#: Default shard count when neither the constructor nor the CLI names one.
DEFAULT_SHARDS = 2


def shard_for(key: str, num_shards: int) -> int:
    """The shard that owns job ``key``: a stable content hash, mod N.

    Deliberately *not* Python's salted ``hash`` — the assignment must be
    identical across processes, runs, and hosts, because it is part of the
    sharded contract (a re-run or a remote coordinator must partition a
    sweep identically to reuse shard artifacts).
    """
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs — the host-agnostic execution contract.

    A task pickles and carries no live resources: jobs (self-seeded),
    provenance, and two directory paths.  ``base_dir`` is the coordinator's
    warm artifact store (read-only to the shard); ``delta_dir`` is where
    the shard's new artifacts land and is what travels back.  Run one with
    :func:`run_shard` — locally in a subprocess today, on another host
    tomorrow, with the two cache directories as the wire format either way.
    """

    shard_index: int
    experiment: str
    scale: str
    seed: int
    jobs: tuple[tuple[int, Job], ...]  # (canonical index, job) pairs
    base_dir: str | None = None
    delta_dir: str | None = None
    #: Collect telemetry in the shard process (the coordinator sets this
    #: when a session is active on its side; the child cannot see it).
    telemetry: bool = False


@dataclass
class ShardOutcome:
    """Everything one executed shard sends back — still host-agnostic.

    ``pairs`` is the result payload (canonical index, record).  The rest is
    out-of-band telemetry the coordinator folds into its own state: the
    shard cache's session totals (hits/misses/evictions — previously these
    died with the subprocess and sharded summaries under-reported),
    the child session's metrics registry snapshot, and its buffered event
    log (re-emitted parent-side with the shard index stamped on).
    """

    pairs: list[tuple[int, ExperimentRecord]]
    cache: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    events: list[dict[str, Any]] = field(default_factory=list)


def run_shard(task: ShardTask) -> ShardOutcome:
    """Execute one shard serially; outcome carries canonical-indexed records.

    Module-level so a process pool pickles it by reference; takes and
    returns only picklable values, so any transport that can move a
    :class:`ShardTask` and a :class:`ShardOutcome` (subprocess, socket,
    object store) can host a shard.  With ``task.telemetry`` set, the
    shard runs under its own collect-only session whose registry snapshot
    and event buffer travel back in the outcome; compilation spans ride
    the records themselves either way.
    """
    cache = None
    if task.delta_dir is not None:
        cache = ShardDiskCache(task.delta_dir, base=task.base_dir)
    runner = SerialRunner(cache=cache, telemetry=task.telemetry)
    jobs = [job for _index, job in task.jobs]
    kwargs = dict(experiment=task.experiment, scale=task.scale, seed=task.seed)
    snapshot: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    if task.telemetry:
        with obs.session() as tele:
            records = runner.run_jobs(jobs, **kwargs)
            snapshot = tele.metrics.snapshot()
            events = list(tele.events.events)
    else:
        records = runner.run_jobs(jobs, **kwargs)
    return ShardOutcome(
        pairs=[(index, record) for (index, _job), record in zip(task.jobs, records)],
        cache=cache.stats() if cache is not None else None,
        metrics=snapshot,
        events=events,
    )


class ShardedRunner(Runner):
    """Partition the sweep into shards; run each in its own subprocess.

    Jobs are assigned to ``shards`` shards by :func:`shard_for` over the
    job key — a deterministic, host-independent partition.  Each shard is
    a :class:`ShardTask` executed by :func:`run_shard` in a subprocess
    (``max_workers`` caps how many run concurrently; default: all of
    them).  With a :class:`~repro.pipeline.cache.DiskCache`, every shard
    reads through the shared base store and writes a private delta
    directory; the coordinator merges each delta back as its shard
    completes, so later runs (and later-finishing shards' *future* reruns)
    start warm.  Records stream through the same reorder buffer as every
    other backend — a shard is simply the unit of completion — and are
    byte-identical to serial for any shard count.

    A ``MemoryCache`` is rejected up front: shards are separate processes,
    and artifact exchange is exactly the disk directory contract.
    """

    name = "sharded"

    def __init__(
        self,
        max_workers: int | None = None,
        cache=None,
        shards: int | None = None,
        telemetry: bool = False,
    ) -> None:
        if cache is not None and not isinstance(cache, DiskCache):
            raise ReproError(
                "the sharded runner exchanges artifacts through DiskCache "
                "directories; use a disk cache (--cache disk --cache-dir DIR) "
                "or no cache at all"
            )
        if shards is not None and shards < 1:
            raise ReproError(f"shard count must be >= 1, got {shards}")
        super().__init__(max_workers=max_workers, cache=cache, telemetry=telemetry)
        self.shards = DEFAULT_SHARDS if shards is None else shards

    def _adopt(self, tele, record: ExperimentRecord) -> None:
        # The child already counted this record's cache provenance into the
        # registry snapshot we merged, and already emitted its job_finished
        # (re-emitted with the shard stamped on) — folding or emitting here
        # again would double everything.  Spans still need adopting: they
        # ride the record, not the snapshot.
        tele.adopt_record(record, fold_metrics=False, emit_event=False)

    def _iter_jobs(
        self,
        jobs: Sequence[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> Iterator[ExperimentRecord]:
        jobs = list(jobs)
        self._check_jobs(jobs)
        if not jobs:
            return
        tele = obs.active()
        members: dict[int, list[tuple[int, Job]]] = {}
        for index, job in enumerate(jobs):
            members.setdefault(shard_for(job.key, self.shards), []).append(
                (index, job)
            )
        with shard_scratch(self.cache) as delta_for:
            tasks = [
                ShardTask(
                    shard_index=shard,
                    experiment=experiment,
                    scale=scale,
                    seed=seed,
                    jobs=tuple(shard_jobs),
                    base_dir=str(self.cache.directory) if self.cache else None,
                    delta_dir=(
                        str(delta_for(shard))
                        if delta_for(shard) is not None
                        else None
                    ),
                    telemetry=self.telemetry or tele is not None,
                )
                for shard, shard_jobs in sorted(members.items())
            ]
            workers = self.max_workers or len(tasks)
            pool = get_pool("process", workers)
            futures = {}
            submitted = {}
            try:
                for task in tasks:
                    futures[pool.submit(run_shard, task)] = task
                    submitted[task.shard_index] = (time.time(), time.perf_counter())
                    obs.event(
                        "shard_started",
                        shard=task.shard_index,
                        experiment=experiment,
                        jobs=len(task.jobs),
                    )
                buffer = _ReorderBuffer()
                for future in as_completed(futures):
                    task = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        raise ReproError(
                            f"{experiment} shard {task.shard_index}: {exc}"
                        ) from exc
                    if self.cache is not None and task.delta_dir is not None:
                        # Fold the shard's delta in *before* yielding its
                        # records: once a consumer has seen a record, the
                        # artifacts behind it are in the warm store.
                        self.cache.merge_from(task.delta_dir)
                    if self.cache is not None and outcome.cache:
                        # The shard cache counted in its own process; fold
                        # its session totals so this runner's cache reports
                        # the whole run, not just coordinator-side lookups.
                        with self.cache._lock:
                            self.cache.hits += outcome.cache.get("hits", 0)
                            self.cache.misses += outcome.cache.get("misses", 0)
                            self.cache.evictions += outcome.cache.get(
                                "evictions", 0
                            )
                    if tele is not None:
                        self._merge_shard_telemetry(tele, task, outcome, submitted)
                    for index, record in outcome.pairs:
                        buffer.push(index, record)
                    yield from buffer.drain()
            except BaseException as exc:
                # Same fail-fast contract as the chunked pool path: a dead
                # shard must not wait behind the live ones, and a poisoned
                # pool must not serve the next sweep.
                _fail_fast(pool, futures, exc)
                raise

    @staticmethod
    def _merge_shard_telemetry(tele, task, outcome, submitted) -> None:
        """Fold one shard's out-of-band telemetry into the session."""
        if outcome.metrics:
            tele.metrics.merge(outcome.metrics)
        for child_event in outcome.events:
            fields = dict(child_event)
            ts = fields.pop("ts", None)
            kind = fields.pop("kind", "?")
            fields.setdefault("shard", task.shard_index)
            tele.events.emit(kind, _ts=ts, **fields)
        ts0, wall0 = submitted[task.shard_index]
        tele.tracer.add_span(
            f"shard:{task.shard_index}",
            ts=ts0,
            dur=time.perf_counter() - wall0,
            attrs={"jobs": len(task.jobs)},
        )
        tele.events.emit(
            "shard_merged", shard=task.shard_index, jobs=len(task.jobs)
        )


def _compile_record(
    job: CompileJob,
    outcome,
    *,
    experiment: str,
    scale: str,
    seed: int,
) -> ExperimentRecord:
    """A uniform record from one compile outcome (OnePerc or baseline)."""
    if job.baseline:
        fields = {
            **job.meta,
            "rsl_count": int(outcome.rsl_count),
            "fusion_count": int(outcome.fusion_count),
            "restarts": int(outcome.restarts),
            "capped": bool(outcome.capped),
        }
        timings: dict[str, float] = {}
    else:
        fields = {
            **job.meta,
            "rsl_count": int(outcome.rsl_count),
            "fusion_count": int(outcome.fusion_count),
            "logical_layers": int(outcome.logical_layers),
            "pl_ratio": float(outcome.pl_ratio),
        }
        timings = dict(outcome.timings_by_pass)
    # PassContext.metrics provenance: logical layers mapped, peak memory,
    # cache hit/miss counts.  Rides the outcome across pickle boundaries,
    # so process-pool runs account correctly too.
    metrics = dict(getattr(outcome, "metrics", {}) or {})
    pass_timings = getattr(outcome, "pass_timings", None)
    if pass_timings:
        # The CPU half of the wall/CPU split: summed pass wall seconds from
        # pool runners include contention, and this is what quantifies it.
        metrics["cpu_seconds_total"] = sum(
            timing.cpu_seconds or 0.0 for timing in pass_timings
        )
    return ExperimentRecord(
        experiment=experiment,
        scale=scale,
        seed=seed,
        job=job.key,
        fields=fields,
        timings=timings,
        metrics=metrics,
        spans=tuple(getattr(outcome, "spans", ()) or ()),
    )


def _fn_record(
    job: FnJob,
    out: Any,
    *,
    experiment: str,
    scale: str,
    seed: int,
) -> ExperimentRecord:
    """A record from one fn-job return value (fields, optional timings)."""
    # _named also covers normalization: a malformed fn return value must
    # name its job, not just die unpacking.
    fields, timings = _named(job, experiment, lambda: _split_output(out))
    return ExperimentRecord(
        experiment=experiment,
        scale=scale,
        seed=seed,
        job=job.key,
        fields={**job.meta, **fields},
        timings=timings,
    )


#: Runner name -> class, the CLI's ``--runner`` choices.
RUNNERS: dict[str, type[Runner]] = {
    "serial": SerialRunner,
    "process": ProcessRunner,
    "sharded": ShardedRunner,
}


def make_runner(
    name: str,
    max_workers: int | None = None,
    cache=None,
    shards: int | None = None,
    chunk_size: int | None = None,
) -> Runner:
    """Instantiate a runner by name, with an error that lists the options.

    Validation happens here so the CLI surfaces usage errors before any
    pool spins up: ``max_workers``/``shards``/``chunk_size`` must be >= 1
    when given (``max_workers=0`` used to silently mean "all cores"), and
    the knobs that only apply to some backends are rejected elsewhere.
    """
    try:
        runner_cls = RUNNERS[name]
    except KeyError:
        raise ReproError(
            f"unknown runner {name!r}; available runners: {', '.join(RUNNERS)}"
        ) from None
    if max_workers is not None and max_workers < 1:
        raise ReproError(f"worker count must be >= 1, got {max_workers}")
    if shards is not None and shards < 1:
        raise ReproError(f"shard count must be >= 1, got {shards}")
    if chunk_size is not None and runner_cls.pool_kind is None:
        raise ReproError(
            f"chunk size only applies to the pool runners "
            f"({', '.join(n for n, c in RUNNERS.items() if c.pool_kind)}), "
            f"not {name!r}"
        )
    if issubclass(runner_cls, ShardedRunner):
        return runner_cls(max_workers=max_workers, cache=cache, shards=shards)
    if shards is not None:
        raise ReproError(
            f"shards only applies to the sharded runner, not {name!r}"
        )
    return runner_cls(max_workers=max_workers, cache=cache, chunk_size=chunk_size)
