"""Determinism suite: every runner backend reproduces the golden records.

For each registered experiment, the bench-scale run is executed on the
process runner (with per-experiment worker counts, so several pool widths
are exercised across the suite) and the canonical records are
asserted byte-identical to the checked-in golden snapshots — which the
regeneration benches already hold the *serial* runner to.  Together that is
the paper-level guarantee: scale/seed fix the records; the backend and the
worker count are pure wall-clock knobs.
"""

from unittest.mock import patch

import pytest
from oracles import find_path_reference

from golden_records import assert_matches_golden

from repro import obs
from repro.experiments import experiment_names, get_experiment, make_runner
from repro.online.renormalize import _Carver

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


@pytest.mark.parametrize("runner_kind", ["serial", "process", "sharded"])
def test_rewrite_off_matches_golden_on_every_runner(runner_kind):
    """Disabling the pattern-rewrite pass reproduces the golden records —
    which the regeneration bench pins to the default ``rewrite="on"`` chain
    — on every backend.  That is the rewrite's oracle contract: on the
    (simplified) golden workloads the contraction finds nothing, so the
    rewritten and unrewritten pipelines must emit identical bytes.  fig14
    again: compile jobs pick the override up through settings, FnJobs are
    (by design) left untouched."""
    kwargs = {"shards": 2} if runner_kind == "sharded" else {"max_workers": 2}
    if runner_kind == "serial":
        kwargs = {}
    runner = make_runner(runner_kind, **kwargs)
    result = get_experiment("fig14").run("bench", 0, runner, rewrite="off")
    assert result.runner == runner_kind
    assert_matches_golden("fig14", result.records)


@pytest.mark.parametrize("runner_kind", ["serial", "sharded"])
def test_telemetry_session_leaves_golden_records_untouched(runner_kind):
    """Telemetry is out-of-band: running under an active ``obs.session()``
    — which turns on span collection in every pipeline, cache hit/miss
    events, and cross-process telemetry merge for sharded children — must
    leave the canonical records byte-identical to the golden snapshot.
    fig14 again: compile jobs and FnJobs, so both record shapes are
    covered, on the in-process serial path and the subprocess shard path."""
    kwargs = {"shards": 2} if runner_kind == "sharded" else {}
    runner = make_runner(runner_kind, **kwargs)
    with obs.session() as tele:
        result = get_experiment("fig14").run("bench", 0, runner)
    assert result.runner == runner_kind
    assert_matches_golden("fig14", result.records)
    # The session actually observed the run — spans and counters exist —
    # so the byte-equality above is a real on-vs-off comparison.
    assert any(span["name"].startswith("run:") for span in tele.tracer.spans)
    assert any(span["name"] == "compile" for span in tele.tracer.spans)
