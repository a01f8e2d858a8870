"""Warm worker pools and chunked dispatch: the pool registry contract.

Pins the PR's tentpole guarantees at toy scale:

* the registry hands back *the same* executor for the same ``(kind,
  workers)`` key — pool startup is paid once per process, not per run;
* ``shutdown_pools()`` is idempotent and the registry re-warms after it;
* records are byte-identical across two consecutive runs on one warm
  pool (no state leaks between sweeps) and across any chunk size;
* a poisoned job or a dead worker fails fast — queued chunks are
  cancelled, the pool is retired from the registry — while an abandoned
  consumer (``GeneratorExit``) leaves the shared pool warm;
* ``make_runner`` validates worker and chunk counts up front
  instead of silently reinterpreting them.
"""

import os
import time

import pytest

from repro.errors import ReproError
from repro.experiments import (
    CompileJob,
    Experiment,
    FnJob,
    SerialRunner,
    canonical_json,
    make_runner,
    shutdown_pools,
)
from repro.experiments.common import stream_for
from repro.experiments.pool import (
    chunk_size_for,
    chunked,
    discard_pool,
    get_pool,
    resolve_workers,
)
from repro.pipeline import PipelineSettings


def _point(x: int, seed: int) -> dict:
    rng = stream_for("pool-toy", seed).child(x).generator
    return {"x": x, "value": float(rng.integers(0, 1000))}


def _boom() -> dict:
    raise ValueError("kaboom")


def _die() -> dict:
    os._exit(1)  # the worker process vanishes mid-chunk


def _slow_marker(path: str, x: int) -> dict:
    time.sleep(0.05)
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    return {"x": x}


class PoolToy(Experiment):
    """Mixed fn/compile toy sweep, same shape as the streaming toy."""

    name = "pool-toy"
    description = "warm pool contract probe"

    def build_jobs(self, scale, seed):
        jobs = [
            FnJob(key=f"fn/{x}", fn=_point, kwargs={"x": x, "seed": seed})
            for x in range(6)
        ]
        settings = PipelineSettings(
            fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5
        )
        jobs.append(
            CompileJob(
                key="compile/qaoa4",
                meta={"benchmark": "QAOA-4", "compiler": "oneperc"},
                family="qaoa",
                num_qubits=4,
                settings=settings,
                seed=seed,
            )
        )
        return jobs

    def render(self, records):
        return f"{len(records)} records"


REFERENCE = PoolToy().run("bench", seed=5, runner=SerialRunner())


class TestRegistry:
    def test_same_key_same_pool(self):
        assert get_pool("process", 2) is get_pool("process", 2)

    def test_distinct_keys_distinct_pools(self):
        assert get_pool("process", 2) is not get_pool("process", 3)

    def test_unknown_kind_rejected(self):
        # Threads only add GIL contention to CPU-bound compile jobs.
        with pytest.raises(ReproError, match="'thread'; use one of: process"):
            get_pool("thread", 2)

    def test_shutdown_is_idempotent_and_registry_rewarms(self):
        get_pool("process", 2)
        assert shutdown_pools() >= 1
        assert shutdown_pools() == 0  # nothing left: a clean no-op
        fresh = get_pool("process", 2)  # the registry simply re-warms
        assert fresh.submit(int, "7").result() == 7

    def test_discard_pool_retires_and_tolerates_repeats(self):
        pool = get_pool("process", 2)
        discard_pool(pool)
        assert get_pool("process", 2) is not pool
        discard_pool(pool)  # already gone from the registry: still safe

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1  # all cores, whatever they number
        with pytest.raises(ReproError, match=">= 1"):
            resolve_workers(0)


class TestChunking:
    def test_auto_size_targets_four_chunks_per_worker(self):
        assert chunk_size_for(80, 2) == 10  # 80 / (4*2)
        assert chunk_size_for(3, 8) == 1  # never below one job per chunk

    def test_override_wins_and_is_validated(self):
        assert chunk_size_for(80, 2, override=7) == 7
        with pytest.raises(ReproError, match=">= 1"):
            chunk_size_for(80, 2, override=0)

    def test_chunks_are_contiguous_and_total(self):
        items = list(range(10))
        chunks = list(chunked(items, 3))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]


class TestWarmPoolDeterminism:
    @pytest.mark.parametrize(
        "runner_name,kwargs",
        [
            ("process", {"max_workers": 1}),
            ("process", {"max_workers": 2}),
            ("process", {"max_workers": 2, "chunk_size": 1}),
        ],
    )
    def test_two_consecutive_runs_on_one_warm_pool(self, runner_name, kwargs):
        # The second run reuses the pool the first one warmed; a pool that
        # leaked state between sweeps would show up as a byte diff here.
        first = PoolToy().run(
            "bench", seed=5, runner=make_runner(runner_name, **kwargs)
        )
        second = PoolToy().run(
            "bench", seed=5, runner=make_runner(runner_name, **kwargs)
        )
        reference = canonical_json(REFERENCE.records)
        assert canonical_json(first.records) == reference
        assert canonical_json(second.records) == reference

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, None])
    def test_records_identical_for_any_chunk_size(self, chunk_size):
        runner = make_runner("process", max_workers=2, chunk_size=chunk_size)
        result = PoolToy().run("bench", seed=5, runner=runner)
        assert canonical_json(result.records) == canonical_json(REFERENCE.records)


class TestFailFast:
    def test_poisoned_job_cancels_queued_chunks_and_retires_pool(self, tmp_path):
        marker = tmp_path / "ran.txt"
        jobs = [FnJob(key="boom/0", fn=_boom, kwargs={})] + [
            FnJob(
                key=f"slow/{x}",
                fn=_slow_marker,
                kwargs={"path": str(marker), "x": x},
            )
            for x in range(1, 12)
        ]
        runner = make_runner("process", max_workers=1, chunk_size=1)
        healthy = get_pool("process", 1)
        with pytest.raises(ReproError, match="boom/0"):
            list(
                runner.iter_jobs(jobs, experiment="pool-toy", scale="bench", seed=0)
            )
        # The failure cancelled the queue instead of draining it: with one
        # worker, at most the chunk already picked up when the error
        # surfaced can still run.
        ran = len(marker.read_text().splitlines()) if marker.exists() else 0
        assert ran < len(jobs) - 1
        # ...and the poisoned pool left the registry; the next run warms a
        # fresh one.
        assert get_pool("process", 1) is not healthy

    def test_worker_death_names_the_job_and_retires_the_pool(self):
        jobs = [FnJob(key="die/1", fn=_die, kwargs={})]
        runner = make_runner("process", max_workers=1)
        before = get_pool("process", 1)
        with pytest.raises(ReproError, match="die/1"):
            runner.run_jobs(jobs, experiment="pool-toy", scale="bench", seed=0)
        # The broken pool left the registry; the next run warms a fresh one.
        fresh = get_pool("process", 1)
        assert fresh is not before
        assert fresh.submit(int, "7").result() == 7

    def test_abandoned_consumer_keeps_the_pool_warm(self):
        # Closing the generator mid-stream is not an error: in-flight work
        # is cancelled but the shared pool stays registered and healthy.
        jobs = PoolToy().build_jobs("bench", 5)
        runner = make_runner("process", max_workers=2)
        pool = get_pool("process", 2)
        stream = runner.iter_jobs(jobs, experiment="pool-toy", scale="bench", seed=5)
        next(stream)
        stream.close()
        assert get_pool("process", 2) is pool
        assert pool.submit(int, "7").result() == 7


class TestValidation:
    def test_make_runner_rejects_nonpositive_counts(self):
        with pytest.raises(ReproError, match=">= 1"):
            make_runner("process", max_workers=0)
        with pytest.raises(ReproError, match=">= 1"):
            make_runner("process", chunk_size=0)

    def test_chunk_size_only_for_pool_runners(self):
        assert make_runner("process", chunk_size=3).chunk_size == 3
        with pytest.raises(ReproError, match=r"pool runners \(process\)"):
            make_runner("serial", chunk_size=3)
