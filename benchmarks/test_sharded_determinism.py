"""Sharded/streamed determinism: both paths reproduce the golden records.

Extends the serial/process matrix (benchmarks/
test_experiment_determinism.py) to the two execution modes this layer
added last: every registered experiment is run (a) on the sharded runner —
per-experiment shard counts, subprocess shards, DiskCache artifact
exchange — and (b) as a drained ``iter_records`` stream folded back
through ``ExperimentResult.from_stream``.  Canonical records must be
byte-identical to the checked-in golden snapshots either way, which is
the ISSUE-5 guarantee: sharding and streaming are pure wall-clock/
latency knobs, never a result change.

The sharded runs double as an artifact-exchange check: every experiment
with compile jobs must end its cold sharded run with merged entries in
the shared store (nonzero lookups, all of them misses the first time).
"""

import pytest

from golden_records import assert_matches_golden

from repro.experiments import (
    ExperimentResult,
    experiment_names,
    get_experiment,
    make_runner,
)
from repro.pipeline import DiskCache

#: Shard counts per experiment — varied so the suite covers one-shard
#: degenerate runs, odd widths, and more shards than some groups have jobs.
SHARD_COUNTS = {
    "table2": 3,
    "table3": 2,
    "fig12": 4,
    "fig13": 3,
    "fig14": 2,
    "fig15": 5,
    "fig16": 2,
    "loss": 4,
}

#: Experiments whose bench-scale sweeps contain compile jobs (the others
#: are pure FnJob sweeps and never touch the artifact store).
COMPILE_EXPERIMENTS = {"table2", "fig12", "fig13", "fig14", "loss"}


@pytest.mark.parametrize("name", experiment_names())
def test_sharded_runner_matches_golden(name, once, tmp_path):
    # .get: an experiment registered after this table still gets covered.
    shards = SHARD_COUNTS.get(name, 2)
    cache = DiskCache(tmp_path / "store")
    runner = make_runner("sharded", cache=cache, shards=shards)
    result = once(get_experiment(name).run, "bench", 0, runner)
    assert result.runner == "sharded"
    assert_matches_golden(name, result.records)
    stats = result.cache_stats()
    if name in COMPILE_EXPERIMENTS:
        # The shards' delta directories merged back: the store is warm for
        # whoever runs next.  The cold pass is mostly misses (intra-shard
        # sharing — e.g. a OnePerc/OneQ pair landing in one shard — may
        # yield a few hits, never a majority).
        assert stats["misses"] > 0
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
