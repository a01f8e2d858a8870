"""Unit tests for the content-addressed artifact cache (tiny parameters).

The bench-scale golden matrix (cache off / cold / warm x serial / process)
lives in benchmarks/test_cache_determinism.py; these tests pin the
cache's own contract: key derivation, backend behavior, hit replay fidelity,
pipeline wiring, and the process-pool pickling rules.
"""

import pickle

import pytest

from repro.circuits import make_benchmark
from repro.errors import CompilationError
from repro.pipeline import (
    CachePass,
    DiskCache,
    LowerIRPass,
    MemoryCache,
    Pipeline,
    PipelineSettings,
    TranslatePass,
    cached_passes,
    circuit_fingerprint,
    default_passes,
    make_cache,
)

SETTINGS = PipelineSettings(fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5)
CIRCUIT = make_benchmark("qaoa", 4, seed=0)


def _metrics(result):
    return (result.rsl_count, result.fusion_count, result.logical_layers, result.pl_ratio)


class TestFingerprint:
    def test_stable_across_copies(self):
        assert circuit_fingerprint(CIRCUIT) == circuit_fingerprint(CIRCUIT.copy())

    def test_sensitive_to_content_and_name(self):
        other_seed = make_benchmark("qaoa", 4, seed=1)
        assert circuit_fingerprint(CIRCUIT) != circuit_fingerprint(other_seed)
        renamed = CIRCUIT.copy()
        renamed.name = "something-else"
        assert circuit_fingerprint(CIRCUIT) != circuit_fingerprint(renamed)


class TestBackends:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_round_trip_and_counters(self, backend, tmp_path):
        cache = MemoryCache() if backend == "memory" else DiskCache(tmp_path)
        assert cache.fetch("00ab") is None
        cache.store("00ab", {"artifacts": {"x": [1, 2]}, "metrics": {"m": 3}})
        payload = cache.fetch("00ab")
        assert payload == {"artifacts": {"x": [1, 2]}, "metrics": {"m": 3}}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1
        assert cache.stats()["backend"] == backend

    def test_fetch_returns_fresh_copies(self, tmp_path):
        # Isolation against downstream mutation: two hits must never alias.
        for cache in (MemoryCache(), DiskCache(tmp_path)):
            cache.store("k", {"artifacts": {"x": [1]}, "metrics": {}})
            first = cache.fetch("k")["artifacts"]["x"]
            first.append(99)
            assert cache.fetch("k")["artifacts"]["x"] == [1]

    def test_disk_cache_shares_across_instances(self, tmp_path):
        DiskCache(tmp_path).store("k", {"artifacts": {}, "metrics": {"n": 1}})
        assert DiskCache(tmp_path).fetch("k") == {"artifacts": {}, "metrics": {"n": 1}}

    def test_backends_pickle_for_process_pools(self, tmp_path):
        memory = MemoryCache()
        memory.store("k", {"artifacts": {}, "metrics": {}})
        clone = pickle.loads(pickle.dumps(memory))
        assert clone.fetch("k") is not None  # snapshot rides along
        disk = DiskCache(tmp_path)
        disk.store("k", {"artifacts": {}, "metrics": {}})
        assert pickle.loads(pickle.dumps(disk)).fetch("k") is not None

    def test_make_cache_vocabulary(self, tmp_path):
        assert make_cache("off") is None
        assert isinstance(make_cache("memory"), MemoryCache)
        assert isinstance(make_cache("disk", tmp_path), DiskCache)
        with pytest.raises(CompilationError, match="--cache-dir"):
            make_cache("disk")
        with pytest.raises(CompilationError, match="unknown cache kind"):
            make_cache("redis")


class TestCachePassWiring:
    def test_wrapper_presents_inner_contract(self):
        cache = MemoryCache()
        wrapped = CachePass(TranslatePass(), cache)
        assert wrapped.name == "translate"
        assert wrapped.provides == ("pattern",)
        assert wrapped.requires == ()

    def test_non_cacheable_pass_rejected(self):
        with pytest.raises(CompilationError, match="not cacheable"):
            CachePass(LowerIRPass(), MemoryCache())

    def test_double_wrap_rejected(self):
        cache = MemoryCache()
        with pytest.raises(CompilationError, match="already cached"):
            CachePass(CachePass(TranslatePass(), cache), cache)

    def test_cached_passes_skips_ineligible(self):
        cache = MemoryCache()
        wrapped = cached_passes(default_passes(), cache)
        kinds = [type(stage).__name__ for stage in wrapped]
        assert kinds == [
            "CachePass", "CachePass", "CachePass", "LowerIRPass", "CachePass",
        ]
        rewrapped = cached_passes(wrapped, cache)
        assert [type(s).__name__ for s in rewrapped] == kinds

    def test_only_restricts_to_named_prefix(self):
        wrapped = cached_passes(
            default_passes(), MemoryCache(), only=("translate", "offline-map")
        )
        assert [type(stage).__name__ for stage in wrapped] == [
            "CachePass", "RewritePass", "CachePass", "LowerIRPass",
            "OnlineReshapePass",
        ]


class TestCachedCompilation:
    def test_off_cold_warm_identical(self):
        reference = Pipeline(SETTINGS).compile(CIRCUIT, seed=7)
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cold = cached.compile(CIRCUIT, seed=7)
        warm = cached.compile(CIRCUIT, seed=7)
        assert _metrics(reference) == _metrics(cold) == _metrics(warm)
        assert cold.metrics["cache_misses"] == 4
        assert warm.metrics["cache_hits"] == 4

    def test_hit_replays_pass_metrics(self):
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cold = cached.compile(CIRCUIT, seed=7)
        warm = cached.compile(CIRCUIT, seed=7)
        drop = ("cache_hits", "cache_misses")
        assert {k: v for k, v in cold.metrics.items() if k not in drop} == {
            k: v for k, v in warm.metrics.items() if k not in drop
        }
        assert "logical_layers_mapped" in warm.metrics
        assert "rsl_count" in warm.metrics

    def test_deterministic_prefix_shared_across_seeds(self):
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cached.compile(CIRCUIT, seed=0)
        second = cached.compile(CIRCUIT, seed=1)
        # translate + rewrite + offline-map hit (seedless keys);
        # online-reshape missed (its key folds in the derived stream seed).
        assert second.metrics["cache_hits"] == 3
        assert second.metrics["cache_misses"] == 1
        assert _metrics(second) == _metrics(Pipeline(SETTINGS).compile(CIRCUIT, seed=1))

    def test_distinct_settings_do_not_collide(self):
        cache = MemoryCache()
        loose = PipelineSettings(
            fusion_success_rate=0.9, rsl_size=24, virtual_size=2,
            max_rsl=10**5, occupancy_limit=0.5,
        )
        a = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        b = Pipeline(loose, cache=cache).compile(CIRCUIT, seed=0)
        assert b.metrics["cache_misses"] == 4  # nothing reused across settings
        assert _metrics(b) == _metrics(Pipeline(loose).compile(CIRCUIT, seed=0))
        assert a.metrics["cache_misses"] == 4

    def test_baseline_chain_cached(self):
        reference = Pipeline(SETTINGS).compile_baseline(CIRCUIT, seed=3)
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cold = cached.compile_baseline(CIRCUIT, seed=3)
        warm = cached.compile_baseline(CIRCUIT, seed=3)
        for result in (cold, warm):
            assert (result.rsl_count, result.fusion_count, result.restarts) == (
                reference.rsl_count, reference.fusion_count, reference.restarts,
            )
        assert cold.metrics["cache_misses"] == 2  # translate + baseline
        assert warm.metrics["cache_hits"] == 2

    def test_with_cache_and_none(self):
        cache = MemoryCache()
        cached = Pipeline(SETTINGS).with_cache(cache)
        assert cached.cache is cache
        assert _metrics(cached.compile(CIRCUIT, seed=2)) == _metrics(
            Pipeline(SETTINGS).with_cache(None).compile(CIRCUIT, seed=2)
        )

    def test_with_cache_rebinds_and_unbinds(self):
        """Rebinding an already-cached pipeline must swap the store for
        real, and with_cache(None) must stop all lookups."""
        first, second = MemoryCache(), MemoryCache()
        cached = Pipeline(SETTINGS, cache=first)
        rebound = cached.with_cache(second)
        result = rebound.compile(CIRCUIT, seed=0)
        assert result.metrics["cache_misses"] == 4
        assert len(second) == 4 and second.lookups == 4
        assert len(first) == 0 and first.lookups == 0
        unbound = cached.with_cache(None)
        assert _metrics(unbound.compile(CIRCUIT, seed=0)) == _metrics(result)
        assert first.lookups == 0  # truly uncached, not silently reading first


class TestEviction:
    """The max_bytes LRU budget: recency tracking, bounds, and accounting."""

    def _fill(self, cache, names, payload_bytes=200):
        for name in names:
            cache.store(name, {"artifacts": {"x": b"a" * payload_bytes}, "metrics": {}})

    def test_budget_bounds_total_bytes(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=2000)
        self._fill(cache, [f"k{i:02d}" for i in range(20)], payload_bytes=300)
        assert cache.total_bytes() <= 2000
        assert cache.evictions > 0
        assert len(cache) < 20

    def test_least_recently_used_goes_first(self, tmp_path):
        import os
        import time

        cache = DiskCache(tmp_path, max_bytes=10**6)
        self._fill(cache, ["old", "mid", "new"])
        # Pin distinct mtimes (filesystem granularity is not guaranteed),
        # then touch "old" via a hit so "mid" becomes the LRU entry.
        now = time.time()
        for name, age in (("old", 300), ("mid", 200), ("new", 100)):
            os.utime(cache._path(name), (now - age, now - age))
        assert cache.fetch("old") is not None
        cache.max_bytes = cache.total_bytes() - 1  # force one eviction
        cache.store("extra", {"artifacts": {}, "metrics": {}})
        assert cache.fetch("mid") is None  # evicted: least recently used
        assert cache.fetch("old") is not None  # the hit refreshed it
        assert cache.fetch("new") is not None

    def test_evicted_entry_reads_as_miss_and_recomputes(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1000)
        self._fill(cache, [f"k{i}" for i in range(4)], payload_bytes=400)
        assert cache.evictions > 0
        assert any(cache.fetch(f"k{i}") is None for i in range(4))
        # End-to-end correctness under a budget nothing can fit: every
        # artifact is skipped as oversized, every lookup misses, results
        # are still byte-identical.
        tight = DiskCache(tmp_path / "tight", max_bytes=1)
        pipeline = Pipeline(SETTINGS, cache=tight)
        first = pipeline.compile(CIRCUIT, seed=0)
        second = pipeline.compile(CIRCUIT, seed=0)
        assert _metrics(first) == _metrics(second)
        assert second.metrics.get("cache_hits", 0) == 0  # nothing survived
        assert len(tight) == 0  # oversized artifacts were never stored

    def test_oversized_entry_skipped_without_thrashing_warm_set(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1500)
        self._fill(cache, ["warm1", "warm2"], payload_bytes=300)
        survivors = len(cache)
        cache.store("huge", {"artifacts": {"x": b"a" * 5000}, "metrics": {}})
        assert cache.fetch("huge") is None  # never stored: reads as a miss
        assert len(cache) == survivors  # the warm set was not sacrificed
        assert cache.evictions == 0

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(CompilationError, match="positive"):
            DiskCache(tmp_path, max_bytes=0)
        # A budget without a disk store must error, never silently no-op.
        with pytest.raises(CompilationError, match="disk"):
            make_cache("memory", max_bytes=100)
        with pytest.raises(CompilationError, match="disk"):
            make_cache("off", max_bytes=100)
        assert make_cache("disk", tmp_path, max_bytes=100).max_bytes == 100

    def test_budget_survives_reopening_an_existing_store(self, tmp_path):
        # The running estimate seeds from disk, so a reopened store still
        # enforces its budget on the next write.
        unbounded = DiskCache(tmp_path)
        self._fill(unbounded, [f"k{i:02d}" for i in range(10)], payload_bytes=300)
        reopened = DiskCache(tmp_path, max_bytes=1500)
        reopened.store("one-more", {"artifacts": {"x": b"a" * 300}, "metrics": {}})
        assert reopened.total_bytes() <= 1500
        assert reopened.evictions > 0

    def test_overwrites_keep_the_size_estimate_flat(self, tmp_path, monkeypatch):
        # Re-storing one key replaces its file, so the estimate must stay
        # at ~one entry.  The old bug charged the full blob on every
        # overwrite: the estimate drifted upward until a store sitting
        # comfortably under budget paid a spurious full-directory eviction
        # scan on every subsequent write — so count the scans too.
        cache = DiskCache(tmp_path, max_bytes=10_000)
        scans = []
        real_evict = DiskCache._evict_to_budget
        monkeypatch.setattr(
            DiskCache,
            "_evict_to_budget",
            lambda self: scans.append(1) or real_evict(self),
        )
        for _round in range(40):  # 40 * 200B would blow the 10kB budget
            cache.store("same-key", {"artifacts": {"x": b"a" * 200}, "metrics": {}})
        assert len(cache) == 1
        assert cache._approx_bytes == cache.total_bytes()
        assert scans == []  # never over budget, so never a scan
        assert cache.evictions == 0

    def test_write_fsyncs_before_publishing(self, tmp_path, monkeypatch):
        # Durability contract: the temp file reaches stable storage before
        # os.replace makes it visible, so a crash cannot publish a
        # truncated entry.
        import os as os_module

        import repro.pipeline.cache as cache_module

        order = []
        real_fsync = os_module.fsync
        real_replace = os_module.replace
        monkeypatch.setattr(
            cache_module.os,
            "fsync",
            lambda fd: order.append("fsync") or real_fsync(fd),
        )
        monkeypatch.setattr(
            cache_module.os,
            "replace",
            lambda src, dst: order.append("replace") or real_replace(src, dst),
        )
        cache = DiskCache(tmp_path)
        cache.store("key", {"artifacts": {"x": b"payload"}, "metrics": {}})
        assert order == ["fsync", "replace"]
        assert cache.fetch("key") is not None


class TestPooledStore:
    """One disk store shared by process-pool workers."""

    @staticmethod
    def _jobs():
        from repro.experiments import CompileJob

        return [
            CompileJob(
                key=f"qaoa4/{seed}", meta={}, family="qaoa", num_qubits=4,
                settings=SETTINGS, seed=seed,
            )
            for seed in range(4)
        ]

    def test_budget_holds_and_worker_evictions_fold_back(self, tmp_path):
        from repro.experiments import SerialRunner, canonical_json, make_runner

        run = dict(experiment="pooled", scale="bench", seed=0)
        probe = DiskCache(tmp_path / "probe")
        reference = SerialRunner(cache=probe).run_jobs(self._jobs(), **run)
        sizes = [path.stat().st_size for path in probe._entries()]
        budget = 2 * max(sizes)
        assert budget < sum(sizes)  # the budget must bind
        cache = DiskCache(tmp_path / "pooled", max_bytes=budget)
        runner = make_runner("process", max_workers=2, cache=cache, chunk_size=2)
        records = runner.run_jobs(self._jobs(), **run)
        assert canonical_json(records) == canonical_json(reference)
        assert cache.total_bytes() <= budget
        # Worker-side evictions fold in with the final budget pass's own.
        assert cache.evictions > 0
        assert cache.misses == sum(r.metrics.get("cache_misses", 0) for r in records)


class TestMaintenance:
    """Startup hygiene for long-running stores: verify."""

    def test_verify_drops_corrupt_entries_and_counts(self, tmp_path):
        from repro import obs

        cache = DiskCache(tmp_path)
        cache.store("00good", {"artifacts": {"x": 1}, "metrics": {}})
        cache.store("11trunc", {"artifacts": {"y": 2}, "metrics": {}})
        cache.store("22alien", {"artifacts": {"z": 3}, "metrics": {}})
        # torn write: half a pickle; alien: valid pickle, wrong payload shape
        trunc = cache._path("11trunc")
        trunc.write_bytes(trunc.read_bytes()[:7])
        cache._path("22alien").write_bytes(pickle.dumps([1, 2, 3]))
        with obs.session() as tele:
            dropped = cache.verify()
        assert dropped == 2
        assert len(cache) == 1
        assert cache.fetch("00good") is not None
        assert cache.fetch("11trunc") is None  # a counted miss, not a crash
        assert tele.metrics.snapshot()["counters"]["cache.verify_dropped"] == 2
        kinds = [event["kind"] for event in tele.events.events]
        assert "cache_verified" in kinds

    def test_torn_entries_read_as_misses_during_a_run(self, tmp_path):
        """A torn or foreign entry met mid-run must not crash the compile:
        fetch drops it, counts a miss, and the pass recomputes."""
        reference = Pipeline(SETTINGS).compile(CIRCUIT, seed=0)
        Pipeline(SETTINGS, cache=DiskCache(tmp_path)).compile(CIRCUIT, seed=0)
        entries = sorted(tmp_path.glob("*/*.pkl"))
        assert len(entries) == 4
        for path in entries[:-1]:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        entries[-1].write_bytes(pickle.dumps([1, 2, 3]))  # valid pickle, not a dict
        cache = DiskCache(tmp_path)
        result = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        assert _metrics(result) == _metrics(reference)
        assert result.metrics["cache_misses"] == 4
        assert (cache.hits, cache.misses) == (0, 4)
        assert cache.verify() == 0  # every bad entry was replaced by a good one

    def test_memory_cache_drops_unreadable_blob(self):
        cache = MemoryCache()
        cache._write("k", b"\x80\x05 not a pickle")
        assert cache.fetch("k") is None
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 0)

    def test_verify_clean_store_is_a_no_op(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("00k", {"artifacts": {}, "metrics": {}})
        assert cache.verify() == 0
        assert cache.fetch("00k") is not None

    def test_verify_resyncs_budget_accounting(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10_000)
        cache.store("00k", {"artifacts": {"x": list(range(50))}, "metrics": {}})
        cache._path("00k").write_bytes(b"garbage")
        cache.verify()
        assert cache._approx_bytes == cache.total_bytes() == 0
