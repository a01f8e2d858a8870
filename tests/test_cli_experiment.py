"""Tests for the CLI ``experiment`` subcommand (moved out of
tests/test_viz_cli.py and extended).

Covers the registry-backed surface (--list, unknown names), the structured
outputs (--json, --out CSV/JSON round-trips against the in-memory records),
and the artifact-cache flags (--cache/--cache-dir, hit-rate reporting).
fig15 is the workhorse: it is the fastest registered experiment but has no
compile jobs, so cache-flag tests use fig14 (compile jobs on tiny RSLs).
"""

import csv
import json

import pytest

from repro.cli import main
from repro.experiments import run_experiment


class TestRegistrySurface:
    def test_list_names_registry(self, capsys):
        code = main(["experiment", "--list"])
        output = capsys.readouterr().out
        assert code == 0
        for name in ("table2", "fig12", "fig16", "loss"):
            assert name in output

    def test_unknown_name_lists_registry(self, capsys):
        code = main(["experiment", "--name", "fig99"])
        err = capsys.readouterr().err
        assert code == 2
        assert "fig99" in err
        for name in ("table2", "table3", "fig12", "fig13", "fig14", "fig15",
                     "fig16", "loss"):
            assert name in err

    def test_name_required_without_list(self, capsys):
        code = main(["experiment"])
        assert code == 2
        assert "--list" in capsys.readouterr().err


class TestStructuredOutputs:
    def test_json_records(self, capsys):
        code = main(
            ["experiment", "--name", "fig15", "--json", "--runner", "process",
             "--workers", "2"]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["experiment"] == "fig15"
        assert record["runner"] == "process"
        assert record["records"][0]["fields"]["logical_layers"] > 0
        assert record["cache"] == {"hits": 0, "misses": 0, "hit_rate": 0.0}

    def test_out_csv_round_trip(self, capsys, tmp_path):
        out = tmp_path / "fig15.csv"
        code = main(["experiment", "--name", "fig15", "--out", str(out)])
        assert code == 0
        assert "Fig. 15" in capsys.readouterr().out  # rendered table still prints
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        reference = run_experiment("fig15", "bench", seed=0)
        assert len(rows) == len(reference.records)
        for row, record in zip(rows, reference.records):
            assert row["experiment"] == "fig15"
            assert row["job"] == record.job
            assert int(row["logical_layers"]) == record.fields["logical_layers"]

    def test_out_json_round_trip(self, tmp_path):
        out = tmp_path / "fig15.json"
        code = main(["experiment", "--name", "fig15", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        reference = run_experiment("fig15", "bench", seed=0)
        assert payload["experiment"] == "fig15"
        assert [entry["job"] for entry in payload["records"]] == [
            record.job for record in reference.records
        ]
        assert [entry["fields"] for entry in payload["records"]] == [
            record.fields for record in reference.records
        ]


class TestCacheFlags:
    def test_memory_cache_counts_in_json(self, capsys):
        code = main(["experiment", "--name", "fig14", "--json", "--cache", "memory"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        cache = payload["cache"]
        assert cache["misses"] > 0
        # The seed axis is flat within one run, but the 14(a) compile group
        # shares settings; at minimum the accounting must balance.
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        compile_records = [
            entry for entry in payload["records"] if entry["metrics"]
        ]
        assert compile_records, "compile jobs must carry cache metrics"
        assert all(
            "cache_hits" in entry["metrics"] or "cache_misses" in entry["metrics"]
            for entry in compile_records
        )

    def test_disk_cache_warms_across_runs(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "artifacts")
        code = main(
            ["experiment", "--name", "fig14", "--json", "--cache", "disk",
             "--cache-dir", cache_dir]
        )
        cold = json.loads(capsys.readouterr().out)
        assert code == 0
        assert cold["cache"]["hits"] == 0
        assert cold["cache"]["misses"] > 0
        # --cache-dir alone implies --cache disk.
        code = main(
            ["experiment", "--name", "fig14", "--json", "--cache-dir", cache_dir]
        )
        warm = json.loads(capsys.readouterr().out)
        assert code == 0
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] == cold["cache"]["misses"]
        assert warm["cache"]["hit_rate"] == 1.0
        # Deterministic fields are byte-identical either way.
        assert [entry["fields"] for entry in warm["records"]] == [
            entry["fields"] for entry in cold["records"]
        ]

    def test_hit_rate_reported_on_human_path(self, capsys):
        code = main(["experiment", "--name", "fig14", "--cache", "memory"])
        captured = capsys.readouterr()
        assert code == 0
        assert "cache (memory):" in captured.err
        assert "hit rate" in captured.err

    def test_disk_cache_requires_directory(self):
        with pytest.raises(SystemExit, match="--cache-dir"):
            main(["experiment", "--name", "fig15", "--cache", "disk"])


class TestStreamingFlags:
    def test_stream_jsonl_out_matches_blocking_records(self, capsys, tmp_path):
        out = tmp_path / "fig15.jsonl"
        code = main(["experiment", "--name", "fig15", "--stream", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Fig. 15" in captured.out  # rendered table still prints
        assert "streamed" in captured.err  # per-record progress on stderr
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        reference = run_experiment("fig15", "bench", seed=0)
        assert [line["job"] for line in lines] == [
            record.job for record in reference.records
        ]
        assert [line["fields"] for line in lines] == [
            record.fields for record in reference.records
        ]

    def test_stream_csv_out_matches_blocking_rows(self, tmp_path):
        out = tmp_path / "fig15.csv"
        code = main(["experiment", "--name", "fig15", "--stream", "--out", str(out)])
        assert code == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        reference = run_experiment("fig15", "bench", seed=0)
        assert len(rows) == len(reference.records)
        for row, record in zip(rows, reference.records):
            assert row["job"] == record.job
            assert int(row["logical_layers"]) == record.fields["logical_layers"]

    def test_stream_json_still_prints_full_result(self, capsys):
        code = main(["experiment", "--name", "fig15", "--stream", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["experiment"] == "fig15"
        assert payload["records"][0]["fields"]["logical_layers"] > 0


class TestPathfindFlag:
    """``--pathfind`` is gone: the product has one path search, and the
    deque-BFS reference model lives in the tests.  The old flag is a usage
    error, never silently ignored."""

    def test_invalid_pathfind_on_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--name", "fig14", "--pathfind", "scalar"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--pathfind" in err

    def test_invalid_pathfind_on_compile_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["compile", "--benchmark", "qaoa", "--qubits", "4",
                 "--pathfind", "scalar"]
            )
        assert excinfo.value.code == 2
        assert "--pathfind" in capsys.readouterr().err


class TestShardedFlags:
    def test_shards_flag_is_usage_error(self, capsys):
        # The partitioned runner and its --shards flag are gone; the flag
        # is an argparse error on both front doors, never silently ignored.
        for argv in (
            ["experiment", "--name", "fig15", "--shards", "2"],
            ["submit", "--name", "fig15", "--shards", "2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err and "--shards" in err

    def test_chunk_size_records_identical_to_serial(self, capsys):
        code = main(["experiment", "--name", "fig14", "--json"])
        serial = json.loads(capsys.readouterr().out)
        assert code == 0
        code = main(
            ["experiment", "--name", "fig14", "--json", "--runner", "process",
             "--workers", "2", "--chunk-size", "2"]
        )
        chunked = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [entry["fields"] for entry in chunked["records"]] == [
            entry["fields"] for entry in serial["records"]
        ]

    def test_chunk_size_with_serial_runner_is_usage_error(self, capsys):
        code = main(["experiment", "--name", "fig15", "--chunk-size", "2"])
        assert code == 2
        assert "pool runners (process)" in capsys.readouterr().err

    def test_thread_runner_is_rejected_with_the_runner_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--name", "fig15", "--runner", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'thread'" in err
        assert "'serial', 'process')" in err

    def test_nonpositive_counts_are_usage_errors(self, capsys):
        for flags in (
            ["--runner", "process", "--workers", "0"],
            ["--runner", "process", "--chunk-size", "0"],
        ):
            code = main(["experiment", "--name", "fig15", *flags])
            assert code == 2
            assert ">= 1" in capsys.readouterr().err

    def test_process_runner_json_fields_match_serial(self, capsys, tmp_path):
        code = main(["experiment", "--name", "fig14", "--json"])
        serial = json.loads(capsys.readouterr().out)
        assert code == 0
        cache_dir = str(tmp_path / "artifacts")
        code = main(
            ["experiment", "--name", "fig14", "--json", "--runner", "process",
             "--workers", "2", "--cache-dir", cache_dir]
        )
        cold = json.loads(capsys.readouterr().out)
        assert code == 0
        assert cold["runner"] == "process"
        assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
        # Warm re-run at a different worker count: the shared store serves
        # every lookup, and the deterministic fields are unchanged.
        code = main(
            ["experiment", "--name", "fig14", "--json", "--runner", "process",
             "--workers", "1", "--cache-dir", cache_dir]
        )
        warm = json.loads(capsys.readouterr().out)
        assert code == 0
        assert warm["cache"]["hit_rate"] == 1.0
        expected = [entry["fields"] for entry in serial["records"]]
        assert [entry["fields"] for entry in cold["records"]] == expected
        assert [entry["fields"] for entry in warm["records"]] == expected

    def test_process_session_totals_fold_into_cache_session(self, capsys, tmp_path):
        # Pool workers count on their own pickled copy of the cache; each
        # chunk's counts fold back, so cache_session reports the whole run
        # and agrees with the record-derived "cache" block, cold and warm.
        argv = ["experiment", "--name", "fig14", "--json", "--runner", "process",
                "--workers", "2", "--cache-dir", str(tmp_path / "artifacts")]
        runs = []
        for _ in ("cold", "warm"):
            code = main(argv)
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            session = payload["cache_session"]
            assert session["backend"] == "disk"
            assert session["hits"] == payload["cache"]["hits"]
            assert session["misses"] == payload["cache"]["misses"]
            assert "evictions" in session
            runs.append(payload)
        cold, warm = runs
        assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
        assert warm["cache"]["hit_rate"] == 1.0
        assert [entry["fields"] for entry in warm["records"]] == [
            entry["fields"] for entry in cold["records"]
        ]


class TestTelemetryFlags:
    def test_compile_trace_out_writes_valid_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["compile", "--benchmark", "qaoa", "--qubits", "4", "--json",
             "--trace-out", str(trace)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote {trace}" in captured.err
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        names = [line["name"] for line in lines if line["type"] == "span"]
        assert "compile" in names and "pass:online-reshape" in names
        # The compile record itself is unchanged by tracing.
        traced = json.loads(captured.out)
        assert main(["compile", "--benchmark", "qaoa", "--qubits", "4",
                     "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        for field in ("rsl_count", "fusion_count", "logical_layers", "pl_ratio"):
            assert traced[field] == plain[field], field

    def test_compile_chrome_trace_format(self, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            ["compile", "--benchmark", "qaoa", "--qubits", "4", "--json",
             "--trace-out", str(trace), "--trace-format", "chrome"]
        )
        assert code == 0
        obj = json.loads(trace.read_text())
        assert obj["traceEvents"] and obj["traceEvents"][0]["ph"] == "X"

    def test_experiment_telemetry_and_summarize(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        events = tmp_path / "events.jsonl"
        code = main(
            ["experiment", "--name", "fig14", "--json",
             "--trace-out", str(trace), "--events-out", str(events)]
        )
        traced = json.loads(capsys.readouterr().out)
        assert code == 0
        event_kinds = {
            json.loads(line)["kind"] for line in events.read_text().splitlines()
        }
        assert {"run_started", "job_finished", "run_finished"} <= event_kinds
        code = main(
            ["telemetry", "summarize", "--trace", str(trace),
             "--events", str(events), "--json"]
        )
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        # The summary reconciles with the run's own records: per-pass wall
        # seconds match the summed t_ timings, compile count matches the
        # compile-job count.
        compile_entries = [
            entry
            for entry in traced["records"]
            if "cpu_seconds_total" in entry["metrics"]
        ]
        assert summary["compiles"] == len(compile_entries)
        for name, row in summary["passes"].items():
            recorded = sum(
                entry["timings"].get(name, 0.0) for entry in compile_entries
            )
            assert abs(row["wall_seconds"] - recorded) < 1e-9
        assert summary["runs"]["fig14"]["jobs"] == len(traced["records"])
        assert summary["events"]["job_finished"] == len(traced["records"])
        # Human-readable rendering works on the same files.
        code = main(["telemetry", "summarize", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-pass" in out and "cache" in out

    def test_summarize_missing_trace_is_an_error(self, capsys, tmp_path):
        code = main(
            ["telemetry", "summarize", "--trace", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "telemetry:" in capsys.readouterr().err

    def test_experiment_records_identical_with_trace_out(self, capsys, tmp_path):
        code = main(["experiment", "--name", "fig14", "--json"])
        plain = json.loads(capsys.readouterr().out)
        assert code == 0
        code = main(
            ["experiment", "--name", "fig14", "--json",
             "--trace-out", str(tmp_path / "t.jsonl")]
        )
        traced = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [entry["fields"] for entry in traced["records"]] == [
            entry["fields"] for entry in plain["records"]
        ]
