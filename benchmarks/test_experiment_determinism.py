"""Determinism suite: every runner backend reproduces the golden records.

For each registered experiment, the bench-scale run is executed on the
process runner (with per-experiment worker counts, so several pool widths
are exercised across the suite; and again with a shared disk cache) and
as a drained ``iter_records`` stream, and the canonical records are
asserted byte-identical to the checked-in golden snapshots — which the
regeneration benches already hold the *serial* runner to.  Together that is
the paper-level guarantee: scale/seed fix the records; the backend, the
worker count, the cache and streaming are pure wall-clock knobs.
"""

from unittest.mock import patch

import pytest
from oracles import find_path_reference

from golden_records import assert_matches_golden

from repro import obs
from repro.experiments import (
    ExperimentResult,
    experiment_names,
    get_experiment,
    make_runner,
)
from repro.online.renormalize import _Carver
from repro.pipeline import DiskCache

#: Worker counts per experiment — deliberately varied so the suite covers
#: odd widths and more workers than jobs-per-group.
WORKER_COUNTS = {
    "table2": 3,
    "table3": 2,
    "fig12": 2,
    "fig13": 4,
    "fig14": 3,
    "fig15": 4,
    "fig16": 3,
    "loss": 2,
    "passes": 3,
}


@pytest.mark.parametrize("name", experiment_names())
def test_process_runner_matches_golden(name, once):
    # .get: an experiment registered after this table still gets covered.
    process_workers = WORKER_COUNTS.get(name, 2)
    runner = make_runner("process", max_workers=process_workers)
    result = once(get_experiment(name).run, "bench", 0, runner)
    assert result.runner == "process"
    assert_matches_golden(name, result.records)


#: Experiments whose bench-scale sweeps contain compile jobs (the others
#: are pure FnJob sweeps and never touch the artifact store).
COMPILE_EXPERIMENTS = {"table2", "fig12", "fig13", "fig14", "loss"}

#: Worker counts for the shared-store runs: one worker (still a separate
#: process from the cache's owner) for some, two for the rest.
DISK_CACHE_WORKERS = {"table3": 1, "fig13": 1, "fig15": 1, "loss": 1}


@pytest.mark.parametrize("name", experiment_names())
def test_process_runner_with_disk_cache_matches_golden(name, once, tmp_path):
    """Pool workers sharing one cold disk store: the records match the
    golden snapshot, the store ends warm for whoever runs next, and the
    cache object's session totals — counted in the workers, folded back
    per chunk — equal the record-derived counts."""
    cache = DiskCache(tmp_path / "store")
    workers = DISK_CACHE_WORKERS.get(name, 2)
    runner = make_runner("process", max_workers=workers, cache=cache)
    result = once(get_experiment(name).run, "bench", 0, runner)
    assert_matches_golden(name, result.records)
    stats = result.cache_stats()
    assert (cache.hits, cache.misses) == (stats["hits"], stats["misses"])
    if name in COMPILE_EXPERIMENTS:
        # The cold pass is mostly misses (a OnePerc/OneQ pair sharing a
        # prefix within one chunk may yield a few hits, never a majority).
        assert stats["misses"] > stats["hits"]
        assert len(cache) > 0
    else:
        assert stats == {"hits": 0, "misses": 0, "hit_rate": 0.0}


@pytest.mark.parametrize("name", experiment_names())
def test_streamed_records_match_golden(name, once):
    experiment = get_experiment(name)

    def drain():
        return ExperimentResult.from_stream(
            experiment, experiment.iter_records("bench", 0), runner="serial"
        )

    result = once(drain)
    assert_matches_golden(name, result.records)
    # The streamed fold reproduces the blocking result shape, not just the
    # records: same provenance and same rendered text.
    assert (result.experiment, result.scale, result.seed) == (name, "bench", 0)
    assert result.text == experiment.render(result.records)


def test_reference_path_search_matches_golden():
    """The deque-BFS reference model of the path search, patched in for the
    wavefront search, reproduces the golden records.  fig14 is the probe:
    it exercises renormalize through compile jobs (panel a) and through
    modular/non-modular FnJobs with the visited-sites proxy as a
    deterministic field (panel b), so any divergence in paths or accounting
    shows up byte-for-byte.  The run is serial so the patch reaches every
    job."""
    with patch.object(_Carver, "find_path", find_path_reference):
        result = get_experiment("fig14").run("bench", 0, "serial")
    assert_matches_golden("fig14", result.records)


@pytest.mark.parametrize("runner_kind", ["serial", "process"])
def test_rewrite_off_matches_golden_on_every_runner(runner_kind):
    """Disabling the pattern-rewrite pass reproduces the golden records —
    which the regeneration bench pins to the default ``rewrite="on"`` chain
    — on every backend.  That is the rewrite's oracle contract: on the
    (simplified) golden workloads the contraction finds nothing, so the
    rewritten and unrewritten pipelines must emit identical bytes.  fig14
    again: compile jobs pick the override up through settings, FnJobs are
    (by design) left untouched."""
    kwargs = {"max_workers": 2} if runner_kind == "process" else {}
    runner = make_runner(runner_kind, **kwargs)
    result = get_experiment("fig14").run("bench", 0, runner, rewrite="off")
    assert result.runner == runner_kind
    assert_matches_golden("fig14", result.records)


@pytest.mark.parametrize("runner_kind", ["serial", "process"])
def test_telemetry_session_leaves_golden_records_untouched(runner_kind):
    """Telemetry is out-of-band: running under an active ``obs.session()``
    — which turns on span collection in every pipeline, cache hit/miss
    events, and adoption of the spans pool workers send home on their
    records — must leave the canonical records byte-identical to the
    golden snapshot.  fig14 again: compile jobs and FnJobs, so both record
    shapes are covered, on the in-process serial path and across two pool
    workers."""
    kwargs = {"max_workers": 2} if runner_kind == "process" else {}
    runner = make_runner(runner_kind, **kwargs)
    with obs.session() as tele:
        result = get_experiment("fig14").run("bench", 0, runner)
    assert result.runner == runner_kind
    assert_matches_golden("fig14", result.records)
    # The session actually observed the run — spans and counters exist —
    # so the byte-equality above is a real on-vs-off comparison.
    assert any(span["name"].startswith("run:") for span in tele.tracer.spans)
    assert any(span["name"] == "compile" for span in tele.tracer.spans)
