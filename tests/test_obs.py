"""The telemetry layer: tracing, metrics, events, and the out-of-band pact.

Pins the tentpole guarantees:

* collection primitives work standalone (span nesting and parent links,
  counter/gauge/histogram registry semantics, per-event-flush logs);
* trace files round-trip (JSONL and Chrome ``trace_event``) and summarize
  into per-pass / per-run / cache tables;
* the pipeline's pass spans carry the *same* clock reads as
  ``PassContext.timings``, so traces reconcile with timings exactly;
* telemetry provenance survives every runner boundary: session counters
  equal the record-derived sums for the serial and process backends
  alike, and each compile record brings its spans home;
* **determinism**: canonical records are byte-identical with a telemetry
  session active or not, on the serial and the process runner both.
"""

import json
import pickle

import pytest

from repro import obs
from repro.circuits import make_benchmark
from repro.errors import ReproError
from repro.experiments import (
    ChunkTask,
    CompileJob,
    Experiment,
    canonical_json,
    make_runner,
    run_chunk,
)
from repro.obs.summarize import (
    load_events,
    load_trace,
    render_summary,
    summarize_trace,
)
from repro.pipeline import DiskCache, MemoryCache, Pipeline, PipelineSettings
from repro.pipeline.context import PassTiming, aggregate_timings, aggregate_timings_split

SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5
)
CIRCUIT = make_benchmark("qaoa", 4, seed=0)


class TeleToy(Experiment):
    """Compile-only toy sweep with a shared deterministic prefix.

    Two online seeds per circuit reuse one translate/offline-map prefix, so
    cached runs produce hits — the provenance the telemetry tests track.
    """

    name = "tele-toy"
    description = "telemetry provenance probe"

    def build_jobs(self, scale, seed):
        return [
            CompileJob(
                key=f"compile/{family}/{online}",
                meta={"benchmark": family},
                family=family,
                num_qubits=4,
                settings=SETTINGS,
                seed=online,
                circuit_seed=seed,
            )
            for family in ("qaoa", "qft")
            for online in (seed, seed + 1)
        ]

    def render(self, records):
        return f"{len(records)} records"


REFERENCE = TeleToy().run("bench", seed=3)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_parent_links(self):
        tracer = obs.Tracer()
        with tracer.span("outer", kind="root"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # completion order: inner closes first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert outer["attrs"] == {"kind": "root"}
        assert inner["dur"] >= 0.0 and inner["cpu"] >= 0.0
        assert outer["dur"] >= inner["dur"]

    def test_span_ids_unique_across_tracers(self):
        ids = set()
        for _ in range(3):
            tracer = obs.Tracer()
            with tracer.span("a"):
                pass
            ids.add(tracer.spans[0]["id"])
        assert len(ids) == 3

    def test_exception_unwinds_stack(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        with tracer.span("after"):
            pass
        assert tracer.spans[-1]["parent"] is None  # stack fully unwound

    def test_adopt_stamps_root_attrs_only(self):
        child = obs.Tracer()
        with child.span("compile"):
            with child.span("pass:translate"):
                pass
        parent = obs.Tracer()
        adopted = parent.adopt(child.spans, root_attrs={"job": "j1"})
        assert adopted == 2
        by_name = {record["name"]: record for record in parent.spans}
        assert by_name["compile"]["attrs"]["job"] == "j1"
        assert "job" not in by_name["pass:translate"]["attrs"]
        # Adoption copies the stamped roots; the child's records are untouched.
        assert all("job" not in record["attrs"] for record in child.spans)

    def test_add_span_records_given_interval(self):
        tracer = obs.Tracer()
        record = tracer.add_span("run:x", ts=123.0, dur=4.5, attrs={"jobs": 7})
        assert record in tracer.spans
        assert record["ts"] == 123.0 and record["dur"] == 4.5
        assert record["attrs"] == {"jobs": 7}


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = obs.MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.set_gauge("depth", 3)
        registry.observe("sizes", 10.0)
        registry.observe("sizes", 2.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 5}
        assert snapshot["gauges"] == {"depth": 3}
        assert snapshot["histograms"]["sizes"] == {
            "count": 2,
            "sum": 12.0,
            "min": 2.0,
            "max": 10.0,
        }

    def test_merge_adds_counters_and_combines_histograms(self):
        ours = obs.MetricsRegistry()
        ours.inc("hits", 2)
        ours.observe("sizes", 5.0)
        theirs = obs.MetricsRegistry()
        theirs.inc("hits", 3)
        theirs.inc("misses")
        theirs.observe("sizes", 1.0)
        ours.merge(theirs.snapshot())
        snapshot = ours.snapshot()
        assert snapshot["counters"] == {"hits": 5, "misses": 1}
        assert snapshot["histograms"]["sizes"] == {
            "count": 2,
            "sum": 6.0,
            "min": 1.0,
            "max": 5.0,
        }

    def test_snapshot_is_picklable(self):
        registry = obs.MetricsRegistry()
        registry.inc("n")
        registry.observe("h", 1.0)
        clone = pickle.loads(pickle.dumps(registry.snapshot()))
        assert clone["counters"] == {"n": 1}


class TestEvents:
    def test_buffer_and_per_event_flush(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(str(path))
        log.emit("job_started", job="a")
        # Flushed before close: the file is tail-able mid-run.
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "job_started"
        log.emit("job_finished", job="a")
        log.close()
        assert len(log.events) == 2
        assert len(load_events(path)) == 2

    def test_reemit_preserves_original_timestamp(self):
        log = obs.EventLog()
        event = log.emit("cache_hit", _ts=42.0, stage="translate")
        assert event["ts"] == 42.0


# ---------------------------------------------------------------------------
# Sessions and ambient helpers
# ---------------------------------------------------------------------------


class TestSession:
    def test_helpers_are_noops_without_session(self):
        assert obs.active() is None
        obs.count("x")
        obs.gauge("y", 1)
        obs.observe("z", 2.0)
        obs.event("nothing")
        assert obs.span("nothing") is obs.NULL_SPAN

    def test_session_scopes_collection(self):
        with obs.session() as tele:
            assert obs.active() is tele
            obs.count("c", 2)
            obs.event("e")
            with obs.span("s"):
                pass
            assert tele.metrics.snapshot()["counters"] == {"c": 2}
            assert len(tele.events) == 1
            assert [record["name"] for record in tele.tracer.spans] == ["s"]
        assert obs.active() is None

    def test_sessions_nest(self):
        with obs.session() as outer:
            with obs.session() as inner:
                obs.count("c")
                assert obs.active() is inner
            assert obs.active() is outer
            assert outer.metrics.snapshot()["counters"] == {}
            assert inner.metrics.snapshot()["counters"] == {"c": 1}


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


class TestTraceFiles:
    def _session_with_work(self, tmp_path):
        with obs.session() as tele:
            result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
            tele.adopt_compile(result, circuit=CIRCUIT.name)
            path = tmp_path / "trace.jsonl"
            tele.write_trace(str(path))
        return path

    def test_jsonl_roundtrip(self, tmp_path):
        path = self._session_with_work(tmp_path)
        trace = load_trace(path)
        assert trace["meta"]["schema"] == obs.TRACE_SCHEMA_VERSION
        names = [record["name"] for record in trace["spans"]]
        assert "compile" in names and "pass:translate" in names
        assert "histograms" in trace["metrics"]

    def test_chrome_export(self, tmp_path):
        with obs.session() as tele:
            result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
            tele.adopt_compile(result)
            path = tmp_path / "trace.json"
            tele.write_trace(str(path), fmt="chrome")
        obj = json.loads(path.read_text())
        assert obj["traceEvents"]
        first = min(event["ts"] for event in obj["traceEvents"])
        assert first == 0.0  # rebased to the earliest span
        assert all(event["ph"] == "X" for event in obj["traceEvents"])

    def test_unknown_format_rejected(self, tmp_path):
        with obs.session() as tele:
            with pytest.raises(ValueError, match="jsonl, chrome"):
                tele.write_trace(str(tmp_path / "t"), fmt="pprof")

    def test_empty_trace_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            load_trace(path)

    def test_summarize_and_render(self, tmp_path):
        path = self._session_with_work(tmp_path)
        summary = summarize_trace(load_trace(path))
        assert summary["compiles"] == 1
        assert summary["passes"]["translate"]["calls"] == 1
        assert summary["passes"]["translate"]["wall_seconds"] >= 0.0
        text = render_summary(summary)
        assert "per-pass" in text and "translate" in text and "cache" in text


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------


class TestPipelineTelemetry:
    def test_untraced_compile_has_no_spans_but_cpu_timings(self):
        result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        assert result.spans == []
        assert all(t.cpu_seconds is not None for t in result.pass_timings)

    def test_traced_spans_share_timing_clock_reads(self):
        with obs.session():
            result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        by_name = {record["name"]: record for record in result.spans}
        roots = [r for r in result.spans if r["parent"] is None]
        assert [r["name"] for r in roots] == ["compile"]
        assert roots[0]["attrs"] == {"circuit": CIRCUIT.name, "qubits": 4}
        for timing in result.pass_timings:
            span = by_name[f"pass:{timing.name}"]
            # Identical floats, not approximations: the pipeline feeds
            # record_timing from the span's own clock reads.
            assert span["dur"] == timing.seconds
            assert span["cpu"] == timing.cpu_seconds
            assert span["parent"] == roots[0]["id"]

    def test_results_identical_with_and_without_session(self):
        plain = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        with obs.session():
            traced = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        assert plain.rsl_count == traced.rsl_count
        assert plain.fusion_count == traced.fusion_count
        assert plain.logical_layers == traced.logical_layers
        assert plain.pl_ratio == traced.pl_ratio
        assert plain.metrics == traced.metrics

    def test_bfs_wavefront_histogram_collected(self):
        with obs.session() as tele:
            Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
            histograms = tele.metrics.snapshot()["histograms"]
        assert histograms["online.bfs_nodes"]["count"] > 0
        assert histograms["online.bfs_nodes"]["min"] >= 1


class TestTimingSplit:
    def test_aggregate_timings_split(self):
        timings = [
            PassTiming("a", 1.0, 0.5),
            PassTiming("a", 2.0, 1.5),
            PassTiming("b", 3.0, None),  # pre-split producer
        ]
        split = aggregate_timings_split(timings)
        assert split["a"] == {"wall_seconds": 3.0, "cpu_seconds": 2.0}
        assert split["b"] == {"wall_seconds": 3.0, "cpu_seconds": 0.0}
        # The wall column still matches the legacy aggregate exactly.
        assert {name: row["wall_seconds"] for name, row in split.items()} == (
            aggregate_timings(timings)
        )

    def test_result_exposes_split(self):
        result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        split = result.timings_split_by_pass
        for name, seconds in result.timings_by_pass.items():
            assert split[name]["wall_seconds"] == seconds
            assert 0.0 <= split[name]["cpu_seconds"]


# ---------------------------------------------------------------------------
# Runner provenance: the cross-boundary contract
# ---------------------------------------------------------------------------


def _runner_for(name, tmp_path):
    if name == "serial":
        return make_runner("serial", cache=MemoryCache())
    return make_runner(name, max_workers=2, cache=DiskCache(tmp_path / "cache"))


class TestRunnerProvenance:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_counters_reconcile_and_spans_arrive(self, name, tmp_path):
        with obs.session() as tele:
            result = TeleToy().run("bench", seed=3, runner=_runner_for(name, tmp_path))
            counters = tele.metrics.snapshot()["counters"]
            spans = list(tele.tracer.spans)
            events = list(tele.events.events)
        # Records are byte-identical to the no-telemetry serial reference.
        assert canonical_json(result.records) == canonical_json(REFERENCE.records)
        # Session counters == record-derived sums: one source of truth,
        # whatever process the lookups actually happened in.
        hits = sum(r.metrics.get("cache_hits", 0) for r in result.records)
        misses = sum(r.metrics.get("cache_misses", 0) for r in result.records)
        assert counters.get("cache.hits", 0) == hits
        assert counters.get("cache.misses", 0) == misses
        assert misses > 0  # a cold cache actually exercised the channel
        # Every compile job's spans crossed the boundary and were adopted.
        compile_roots = [s for s in spans if s["name"] == "compile"]
        assert len(compile_roots) == len(result.records)
        assert all(s["attrs"].get("job") for s in compile_roots)
        # Run lifecycle: one run span (parent side) and start/finish events.
        assert [s["name"] for s in spans if s["name"].startswith("run:")].count(
            "run:tele-toy"
        ) >= 1
        kinds = {event["kind"] for event in events}
        assert {"run_started", "run_finished", "job_started", "job_finished"} <= kinds

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_golden_records_identical_with_session_on_or_off(self, name, tmp_path):
        runner_off = _runner_for(name, tmp_path / "off")
        plain = TeleToy().run("bench", seed=3, runner=runner_off)
        with obs.session():
            traced = TeleToy().run(
                "bench", seed=3, runner=_runner_for(name, tmp_path / "on")
            )
        assert canonical_json(plain.records) == canonical_json(traced.records)
        # Flat rows (the CSV surface, m_ columns included) match too: spans
        # never leak into exports.
        assert [r.flat() for r in plain.records] and all(
            not any(key.startswith("m_spans") or key == "spans" for key in row)
            for row in (r.flat() for r in traced.records)
        )

    def test_warm_cache_counts_hits_across_workers(self, tmp_path):
        cache = DiskCache(tmp_path / "store")
        TeleToy().run(
            "bench", seed=3, runner=make_runner("process", max_workers=2, cache=cache)
        )
        cold = cache.stats()
        with obs.session() as tele:
            warm_runner = make_runner("process", max_workers=1, cache=cache)
            result = TeleToy().run("bench", seed=3, runner=warm_runner)
            counters = tele.metrics.snapshot()["counters"]
        # Worker-side counts fold into the runner's cache object, so its
        # session totals cover the whole run.
        assert cache.stats()["hits"] > cold["hits"]
        hits = sum(r.metrics.get("cache_hits", 0) for r in result.records)
        assert cache.stats()["hits"] - cold["hits"] == hits
        assert counters.get("cache.hits", 0) == hits

    def test_run_chunk_records_carry_spans(self):
        # A worker cannot see the parent's session; the task's telemetry
        # flag makes its records carry their spans home instead.
        jobs = tuple(enumerate(TeleToy().build_jobs("bench", 3)))
        task = ChunkTask(
            experiment="tele-toy", scale="bench", seed=3, jobs=jobs, telemetry=True
        )
        pairs, _counts = run_chunk(pickle.loads(pickle.dumps(task)))
        pairs = pickle.loads(pickle.dumps(pairs))  # the return trip
        assert all(record.spans for _index, record in pairs)

    def test_trace_reconciles_with_record_timings(self, tmp_path):
        with obs.session() as tele:
            result = TeleToy().run("bench", seed=3)
            path = tmp_path / "trace.jsonl"
            tele.write_trace(str(path))
        summary = summarize_trace(load_trace(path))
        for name, row in summary["passes"].items():
            recorded = sum(r.timings.get(name, 0.0) for r in result.records)
            assert row["wall_seconds"] == pytest.approx(recorded)
        assert summary["compiles"] == len(result.records)
