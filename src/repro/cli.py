"""Command-line interface: compile benchmarks, run experiments, poke the
online pass.

Usage (also via ``python -m repro.cli``)::

    python -m repro.cli compile --benchmark qaoa --qubits 4 --rate 0.75
    python -m repro.cli compile --benchmark qaoa --qubits 4 --json
    python -m repro.cli compile --benchmark qft --qubits 4 --rewrite off
    python -m repro.cli compile --benchmark qft --qubits 9 \\
        --passes validate-connectivity,validate-rsg
    python -m repro.cli baseline --benchmark qft --qubits 4 --rate 0.75
    python -m repro.cli experiment --list
    python -m repro.cli experiment --name table2 --scale bench
    python -m repro.cli experiment --name fig14 --json --runner process --workers 4
    python -m repro.cli experiment --name fig16 --out fig16.csv
    python -m repro.cli experiment --name table2 --cache memory --json
    python -m repro.cli experiment --name table2 --cache disk --cache-dir .cache
    python -m repro.cli experiment --name table2 --runner process --workers 2 \\
        --cache disk --cache-dir .cache --stream --out table2.jsonl
    python -m repro.cli experiment --name fig14 --trace-out trace.jsonl \\
        --events-out events.jsonl
    python -m repro.cli telemetry summarize --trace trace.jsonl --events events.jsonl
    python -m repro.cli percolate --size 24 --rate 0.75 --node 8

The ``experiment`` subcommand is a thin shell over the experiment registry
(:mod:`repro.experiments.api`): names, scales, and runner backends all come
from the registry and runner table, never from lists duplicated here.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro import obs
from repro.circuits.benchmarks import BENCHMARKS, make_benchmark
from repro.experiments.api import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    UnknownExperimentError,
    experiment_names,
    get_experiment,
)
from repro.errors import CompilationError, ReproError
from repro.experiments.common import SCALES
from repro.experiments.runners import RUNNERS, make_runner
from repro.experiments.streams import CsvStreamWriter, make_stream_writer
from repro.passes import (
    REWRITES,
    DeviceValidatorPass,
    UnknownPassError,
    ValidationError,
    get_pass,
    pass_names,
)
from repro.pipeline import (
    PassInsertionError,
    Pipeline,
    PipelineSettings,
    make_cache,
)
from repro.pipeline.cache import CACHE_KINDS, cache_summary


def _add_common_compile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", required=True, choices=sorted(BENCHMARKS))
    parser.add_argument("--qubits", type=int, required=True)
    parser.add_argument("--rate", type=float, default=0.75, help="fusion success rate")
    parser.add_argument("--stars", type=int, default=4, help="resource state size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rsl-size", type=int, default=None)
    parser.add_argument("--virtual-size", type=int, default=None)
    parser.add_argument("--max-rsl", type=int, default=10**6)
    parser.add_argument(
        "--rewrite",
        default="on",
        choices=list(REWRITES),
        help="pattern-rewrite pass between translate and offline-map "
        "(results are byte-identical; 'off' is the unrewritten oracle)",
    )
    parser.add_argument(
        "--passes",
        metavar="NAMES",
        help="comma-separated extra passes to insert at their default slot: "
        + ", ".join(pass_names()),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON record (with per-pass timings) "
        "instead of the human-readable report",
    )
    _add_cache_args(parser)
    _add_telemetry_args(parser)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default="off",
        choices=list(CACHE_KINDS),
        help="artifact cache for the deterministic pipeline stages "
        "(results are identical with the cache on or off)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory for --cache disk (implies --cache disk when given "
        "alone); disk is the backend that shares across process pools",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        metavar="BYTES",
        help="LRU eviction budget for the disk cache: least-recently-used "
        "entries are dropped once the store exceeds this many bytes",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a telemetry trace of the run (spans + metrics snapshot); "
        "results are byte-identical with tracing on or off",
    )
    parser.add_argument(
        "--trace-format",
        default="jsonl",
        choices=list(obs.TRACE_FORMATS),
        help="trace file format: 'jsonl' (one span per line, for "
        "'repro telemetry summarize') or 'chrome' (chrome://tracing JSON)",
    )
    parser.add_argument(
        "--events-out",
        metavar="FILE",
        help="stream lifecycle events (run/job/cache) to FILE as JSON "
        "Lines, flushed per event",
    )


@contextmanager
def _telemetry_session(args: argparse.Namespace):
    """A telemetry session scoped to one command, when any output was asked.

    Yields the session (or ``None`` when telemetry is off); on exit the
    trace file is written in the requested format.  The events file is
    streamed live by the session itself.
    """
    trace_out = getattr(args, "trace_out", None)
    events_out = getattr(args, "events_out", None)
    if not trace_out and not events_out:
        yield None
        return
    with obs.session(events_path=events_out) as tele:
        try:
            yield tele
        finally:
            if trace_out:
                tele.write_trace(trace_out, fmt=args.trace_format)
                print(f"wrote {trace_out}", file=sys.stderr)
            if events_out:
                print(f"wrote {events_out}", file=sys.stderr)


def _cache_from(args: argparse.Namespace):
    """Resolve the cache flags (``--cache-dir`` alone implies disk)."""
    kind = args.cache
    if kind == "off" and args.cache_dir:
        kind = "disk"
    try:
        return make_cache(kind, args.cache_dir, max_bytes=args.cache_max_bytes)
    except CompilationError as exc:
        raise SystemExit(f"cache: {exc}") from exc


def _parse_pass_names(spec: str | None) -> list[str]:
    if not spec:
        return []
    return [name.strip() for name in spec.split(",") if name.strip()]


def _build_pipeline(args: argparse.Namespace) -> Pipeline:
    """Settings + default chain + any ``--passes`` insertions.

    Unknown pass names raise :class:`~repro.passes.UnknownPassError`
    (listing the registry) and bad insertions raise
    :class:`~repro.pipeline.PassInsertionError` — both usage errors the
    command handlers turn into exit 2.
    """
    settings = PipelineSettings(
        fusion_success_rate=args.rate,
        resource_state_size=args.stars,
        rsl_size=args.rsl_size,
        virtual_size=args.virtual_size,
        max_rsl=args.max_rsl,
        rewrite=args.rewrite,
    )
    pipeline = Pipeline(settings, seed=args.seed, cache=_cache_from(args))
    # Reversed so the chain order after the slot matches the listed order.
    for name in reversed(_parse_pass_names(getattr(args, "passes", None))):
        cls = get_pass(name)
        pipeline = pipeline.insert_pass(
            cls(), after=getattr(cls, "default_slot", None)
        )
    return pipeline


def _cache_counts(metrics: dict) -> dict:
    """The cache provenance block of a ``--json`` record."""
    return cache_summary(
        int(metrics.get("cache_hits", 0)), int(metrics.get("cache_misses", 0))
    )


def cmd_compile(args: argparse.Namespace) -> int:
    circuit = make_benchmark(args.benchmark, args.qubits, seed=args.seed)
    try:
        pipeline = _build_pipeline(args)
    except (UnknownPassError, PassInsertionError) as exc:
        print(f"compile: {exc}", file=sys.stderr)
        return 2
    try:
        with _telemetry_session(args) as tele:
            result = pipeline.compile(circuit)
            if tele is not None:
                tele.adopt_compile(result, circuit=circuit.name)
    except ValidationError as exc:
        # Machine-readable diagnostics on stdout (the contract CI's smoke
        # step schema-checks), human summary on stderr, usage-error exit.
        print(exc.to_json())
        print(f"compile: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "command": "compile",
                    "benchmark": circuit.name,
                    "num_qubits": result.num_qubits,
                    "seed": args.seed,
                    "fusion_success_rate": args.rate,
                    "rsl_count": result.rsl_count,
                    "fusion_count": result.fusion_count,
                    "logical_layers": result.logical_layers,
                    "pl_ratio": result.pl_ratio,
                    "offline_seconds": result.offline_seconds,
                    "online_seconds": result.online_seconds,
                    "pass_timings": result.timings_by_pass,
                    "metrics": result.metrics,
                    "cache": _cache_counts(result.metrics),
                },
                indent=2,
            )
        )
        return 0
    print(f"benchmark:      {circuit.name}")
    print(f"#RSL:           {result.rsl_count}")
    print(f"#fusion:        {result.fusion_count}")
    print(f"logical layers: {result.logical_layers}")
    print(f"PL ratio:       {result.pl_ratio:.2f}")
    for name, seconds in result.timings_by_pass.items():
        print(f"{name + ' time:':<21}{seconds:.3f} s")
    if args.show_ir:
        from repro.viz import render_ir

        print()
        print(render_ir(result.mapping.ir, max_layers=args.show_ir))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    circuit = make_benchmark(args.benchmark, args.qubits, seed=args.seed)
    try:
        pipeline = _build_pipeline(args)
    except (UnknownPassError, PassInsertionError) as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    try:
        # compile_baseline swaps in the baseline chain, so inserted device
        # validators gate the submission here instead — same fail-fast
        # contract, same diagnostics, before any compile work happens.
        scratch = pipeline.settings.context_for(circuit)
        for stage in pipeline.passes:
            inner = getattr(stage, "inner", stage)  # unwrap CachePass
            if isinstance(inner, DeviceValidatorPass):
                inner.run(scratch)
        with _telemetry_session(args) as tele:
            result = pipeline.compile_baseline(circuit)
            if tele is not None:
                tele.adopt_compile(result, circuit=circuit.name)
    except ValidationError as exc:
        print(exc.to_json())
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "command": "baseline",
                    "benchmark": circuit.name,
                    "num_qubits": args.qubits,
                    "seed": args.seed,
                    "fusion_success_rate": args.rate,
                    "rsl_count": result.rsl_count,
                    "fusion_count": result.fusion_count,
                    "restarts": result.restarts,
                    "capped": result.capped,
                    "cache": _cache_counts(result.metrics),
                },
                indent=2,
            )
        )
        return 0
    capped = " (hit the cap)" if result.capped else ""
    print(f"benchmark: {circuit.name}")
    print(f"#RSL:      {result.rsl_count}{capped}")
    print(f"#fusion:   {result.fusion_count}")
    print(f"restarts:  {result.restarts}")
    return 0


def _run_streamed(experiment, args: argparse.Namespace, runner) -> ExperimentResult:
    """Drain ``iter_records``, flushing each record to ``--out`` as it lands.

    Records appear incrementally (``tail -f`` the output file mid-sweep; a
    crash keeps everything completed so far) and the folded result is
    byte-identical to the blocking path — ``from_stream`` reduces the very
    same canonical-order records ``run`` would have produced.
    """
    writer = make_stream_writer(args.out) if args.out else None
    records = []
    try:
        stream = experiment.iter_records(
            args.scale,
            seed=args.seed,
            runner=runner,
            rewrite=args.rewrite,
        )
        for record in stream:
            records.append(record)
            if writer is not None:
                writer.write(record)
            if not args.json:
                print(f"streamed {len(records)}: {record.job}", file=sys.stderr)
    finally:
        if writer is not None:
            writer.close()
    if writer is not None:
        if isinstance(writer, CsvStreamWriter) and writer.dropped_keys:
            print(
                "note: the CSV stream fixed its header on the first record "
                f"and dropped later columns {sorted(writer.dropped_keys)}; "
                "use a .json/.jsonl --out for mixed-schema experiments",
                file=sys.stderr,
            )
        print(
            f"wrote {args.out} ({writer.records_written} records, streamed)",
            file=sys.stderr,
        )
    return ExperimentResult.from_stream(experiment, records, runner=runner.name)


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.list:
        names = experiment_names()  # ensures the registry is populated
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name:<{width}}  {EXPERIMENT_REGISTRY[name].description}")
        return 0
    if not args.name:
        print("experiment: --name is required (or use --list)", file=sys.stderr)
        return 2
    try:
        experiment = get_experiment(args.name)
    except UnknownExperimentError as exc:
        print(f"experiment: {exc}", file=sys.stderr)
        return 2
    cache = _cache_from(args)
    try:
        runner = make_runner(
            args.runner,
            max_workers=args.workers,
            cache=cache,
            chunk_size=args.chunk_size,
        )
    except ReproError as exc:
        # A bad runner option (--workers 0, --chunk-size on the serial
        # runner, ...) is a usage error.
        print(f"experiment: {exc}", file=sys.stderr)
        return 2
    if cache is not None and cache.name == "memory" and args.runner == "process":
        print(
            "note: a memory cache cannot share entries across a process "
            "pool; use --cache disk --cache-dir DIR for parallel sharing",
            file=sys.stderr,
        )
    if args.workers is not None and args.runner == "serial":
        print(
            "note: the serial runner ignores --workers; pass "
            "--runner process for a parallel run",
            file=sys.stderr,
        )
    if args.runner != "serial":
        print(
            "note: pool runners measure wall-clock timings under contention; "
            "deterministic fields are unaffected, but use --runner serial "
            "when the seconds columns are the point (Figs. 14-15)",
            file=sys.stderr,
        )
    with _telemetry_session(args):
        if args.stream:
            result = _run_streamed(experiment, args, runner)
        else:
            result = experiment.run(
                args.scale,
                seed=args.seed,
                runner=runner,
                rewrite=args.rewrite,
            )
    payload = result.to_json_obj()
    if cache is not None:
        # The cache object's own session totals: on the process runner
        # they include every chunk's folded counts, so they reconcile with
        # the record-derived "cache" block above.
        payload["cache_session"] = cache.stats()
    if args.out and not args.stream:
        if args.out.lower().endswith(".csv"):
            artifact = result.to_csv()
        else:
            artifact = json.dumps(payload, indent=2) + "\n"
        with open(args.out, "w") as handle:
            handle.write(artifact)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.text)
        if cache is not None:
            stats = result.cache_stats()
            session = cache.stats()
            evictions = (
                f", {session['evictions']} evictions"
                if "evictions" in session
                else ""
            )
            print(
                f"cache ({cache.name}): {stats['hits']} hits, "
                f"{stats['misses']} misses, hit rate {stats['hit_rate']:.0%}"
                f" (session: {session['hits']} hits, {session['misses']} "
                f"misses{evictions})",
                file=sys.stderr,
            )
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.summarize import (
        load_events,
        load_trace,
        render_summary,
        summarize_trace,
    )

    try:
        trace = load_trace(args.trace)
        events = load_events(args.events) if args.events else None
    except (OSError, ReproError) as exc:
        print(f"telemetry: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(trace, events)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_summary(summary))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile service until SIGINT/SIGTERM, then drain and exit."""
    import asyncio
    import signal

    from repro.serve import ReproServer, ServeConfig

    cache = _cache_from(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        cache=cache,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
    )

    async def _run() -> int:
        server = ReproServer(config)
        await server.start()
        if server.port is not None:
            print(f"serving on {config.host}:{server.port}", flush=True)
        if config.unix_path is not None:
            print(f"serving on unix:{config.unix_path}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signame in ("SIGINT", "SIGTERM"):
            try:
                loop.add_signal_handler(getattr(signal, signame), stop.set)
            except (NotImplementedError, OSError):  # non-unix platforms
                pass
        await stop.wait()
        print("draining in-flight requests...", file=sys.stderr)
        await server.shutdown()
        return 0

    # The telemetry session wraps the whole server lifetime, so the trace
    # written at exit covers startup verification, every request, and the
    # drain.
    with _telemetry_session(args):
        try:
            return asyncio.run(_run())
        except KeyboardInterrupt:
            return 0


def _submit_request(args: argparse.Namespace) -> dict:
    """Map ``repro submit`` flags onto one protocol request."""
    if args.stats:
        return {"op": "stats"}
    if args.name:
        return {
            "op": "experiment",
            "name": args.name,
            "scale": args.scale,
            "seed": args.seed,
            "runner": args.runner,
            "workers": args.workers,
            "rewrite": args.rewrite,
        }
    if args.benchmark:
        return {
            "op": "baseline" if args.baseline else "compile",
            "benchmark": args.benchmark,
            "qubits": args.qubits,
            "rate": args.rate,
            "stars": args.stars,
            "seed": args.seed,
            "max_rsl": args.max_rsl,
            "rewrite": args.rewrite or "on",
            "passes": args.passes,
        }
    raise ReproError(
        "submit: pick a request — --name EXPERIMENT, "
        "--benchmark NAME --qubits N [--baseline], or --stats"
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Send one request to a running server; stream the response down."""
    from repro.experiments.streams import JsonlStreamWriter
    from repro.serve import ServeClient, ServerError
    from repro.serve.protocol import record_from_payload

    try:
        request = _submit_request(args)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2
    client = ServeClient(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        timeout=args.timeout,
    )
    if args.wait:
        client.wait_until_up(timeout=args.wait)
    # Records stream to --out (extension-selected writer) or stdout JSONL
    # the moment their frames arrive — the submit path shares the
    # `--stream --out` writers, so server and local files are line-equal.
    writer = make_stream_writer(args.out) if args.out else None
    if writer is None and request["op"] == "experiment" and not args.json:
        writer = JsonlStreamWriter(sys.stdout)

    def on_frame(frame: dict) -> None:
        if frame["frame"] == "record" and writer is not None:
            writer.write(record_from_payload(frame["record"]))
        elif frame["frame"] == "pass" and not args.json:
            print(
                f"pass {frame['pass']}: {frame['seconds']:.3f} s",
                file=sys.stderr,
            )

    try:
        run = client.submit(request, on_frame=on_frame)
    except (OSError, ReproError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.out and writer is not None:
            writer.close()
            print(
                f"wrote {args.out} ({writer.records_written} records, "
                "streamed)",
                file=sys.stderr,
            )
    if args.frames_out:
        # The response verbatim: the ack, then the shared stream's exact
        # wire bytes — what benchmarks/serve_schema.py validates in CI.
        from repro.serve.protocol import encode_frame

        with open(args.frames_out, "wb") as handle:
            if run.ack is not None:
                handle.write(encode_frame(run.ack))
            for line in run.raw:
                handle.write(line)
        print(f"wrote {args.frames_out}", file=sys.stderr)
    try:
        run.raise_for_error()
    except ServerError as exc:
        print(f"submit: server error ({exc.kind}): {exc}", file=sys.stderr)
        return 1
    if run.ack is not None and run.coalesced:
        print("coalesced onto an in-flight identical request", file=sys.stderr)
    if request["op"] == "stats":
        print(json.dumps(run.stats, indent=2))
        return 0
    if request["op"] == "experiment":
        result = run.experiment_result()
        if args.json:
            print(json.dumps(result.to_json_obj(), indent=2))
        else:
            summary = run.summary or {}
            print(
                f"streamed {len(run.records)} records in "
                f"{summary.get('elapsed_s', 0.0):.3f} s "
                f"(cache hit rate {summary.get('cache', {}).get('hit_rate', 0.0):.0%})",
                file=sys.stderr,
            )
        return 0
    print(json.dumps(run.result, indent=2))
    return 0


def cmd_percolate(args: argparse.Namespace) -> int:
    from repro.online.percolation import sample_lattice
    from repro.online.renormalize import renormalize
    from repro.viz import render_renormalization

    lattice = sample_lattice(args.size, args.rate, rng=args.seed)
    target = max(1, args.size // args.node)
    result = renormalize(lattice.copy(), target)
    print(
        f"RSL {args.size}x{args.size} at p={args.rate}: renormalization to "
        f"{target}x{target} {'succeeded' if result.success else 'FAILED'} "
        f"(achieved {result.lattice_size}, visited {result.visited_sites})"
    )
    print(render_renormalization(lattice, result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OnePerc reproduction CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser("compile", help="compile with OnePerc")
    _add_common_compile_args(compile_parser)
    compile_parser.add_argument(
        "--show-ir", type=int, default=0, metavar="N", help="print the first N IR layers"
    )
    compile_parser.set_defaults(handler=cmd_compile)

    baseline_parser = commands.add_parser(
        "baseline", help="run the OneQ repeat-until-success baseline"
    )
    _add_common_compile_args(baseline_parser)
    baseline_parser.set_defaults(handler=cmd_baseline)

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate a table/figure via the experiment registry"
    )
    experiment_parser.add_argument(
        "--name",
        help="registered experiment name: " + ", ".join(experiment_names()),
    )
    experiment_parser.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    experiment_parser.add_argument("--scale", default="bench", choices=list(SCALES))
    experiment_parser.add_argument("--seed", type=int, default=0)
    experiment_parser.add_argument(
        "--rewrite",
        default=None,
        choices=list(REWRITES),
        help="force the pattern-rewrite pass on or off for every compile "
        "job (records are byte-identical; 'off' is the unrewritten oracle)",
    )
    experiment_parser.add_argument(
        "--runner",
        default="serial",
        choices=list(RUNNERS),
        help="execution backend for the experiment's jobs",
    )
    experiment_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for pool runners (records are identical for any N)",
    )
    experiment_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="jobs per pool dispatch for --runner process "
        "(default: auto-sized ~jobs/(4*workers); records are identical "
        "for any N)",
    )
    experiment_parser.add_argument(
        "--stream",
        action="store_true",
        help="yield records as they complete instead of waiting for the "
        "whole sweep; with --out, the writer flushes per record "
        "(.csv -> incremental CSV, otherwise JSON Lines)",
    )
    experiment_parser.add_argument(
        "--json",
        action="store_true",
        help="print the structured records as JSON instead of the rendered table",
    )
    experiment_parser.add_argument(
        "--out",
        metavar="FILE",
        help="also export the records to FILE (.csv -> CSV, otherwise JSON)",
    )
    _add_cache_args(experiment_parser)
    _add_telemetry_args(experiment_parser)
    experiment_parser.set_defaults(handler=cmd_experiment)

    telemetry_parser = commands.add_parser(
        "telemetry",
        help="inspect trace/event files written by --trace-out/--events-out",
    )
    telemetry_commands = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize_parser = telemetry_commands.add_parser(
        "summarize",
        help="per-pass wall/CPU time, per-run jobs, and cache hit rate "
        "from a JSONL trace",
    )
    summarize_parser.add_argument(
        "--trace", required=True, metavar="FILE", help="JSONL trace file"
    )
    summarize_parser.add_argument(
        "--events", metavar="FILE", help="JSONL events file (adds event counts)"
    )
    summarize_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    summarize_parser.set_defaults(handler=cmd_telemetry)

    serve_parser = commands.add_parser(
        "serve",
        help="run the streaming compile service (JSONL over TCP/unix socket)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (0 picks a free port, printed at startup)",
    )
    serve_parser.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="also (or instead) listen on a unix domain socket at PATH",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="concurrent compiles; further requests queue (identical "
        "concurrent requests coalesce onto one compile regardless)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock bound; a timed-out subscriber gets an "
        "error frame (a coalesced compile keeps serving other subscribers)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight requests before cancelling",
    )
    _add_cache_args(serve_parser)
    _add_telemetry_args(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = commands.add_parser(
        "submit",
        help="send one request to a running `repro serve` and stream the result",
    )
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=None)
    submit_parser.add_argument(
        "--unix-socket", metavar="PATH", default=None,
        help="connect over a unix domain socket instead of TCP",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout for connect and reads",
    )
    submit_parser.add_argument(
        "--wait", type=float, nargs="?", const=10.0, default=None,
        metavar="SECONDS",
        help="poll until the server accepts connections before submitting "
        "(races startup; bare --wait polls for 10 s)",
    )
    submit_parser.add_argument(
        "--name", help="experiment request: a registered experiment name"
    )
    submit_parser.add_argument("--scale", default="bench", choices=list(SCALES))
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument(
        "--runner", default="serial", choices=list(RUNNERS),
        help="server-side execution backend for experiment requests",
    )
    submit_parser.add_argument("--workers", type=int, default=None, metavar="N")
    submit_parser.add_argument(
        "--rewrite", default=None, choices=list(REWRITES)
    )
    submit_parser.add_argument(
        "--passes", metavar="NAMES", default=None,
        help="compile requests only: comma-separated extra passes "
        "(server-side vocabulary: " + ", ".join(pass_names()) + ")",
    )
    submit_parser.add_argument(
        "--benchmark", choices=sorted(BENCHMARKS),
        help="compile request: benchmark family (with --qubits)",
    )
    submit_parser.add_argument("--qubits", type=int, default=None)
    submit_parser.add_argument("--rate", type=float, default=0.75)
    submit_parser.add_argument("--stars", type=int, default=4)
    submit_parser.add_argument("--max-rsl", type=int, default=10**6)
    submit_parser.add_argument(
        "--baseline", action="store_true",
        help="run the OneQ baseline instead of the OnePerc compile",
    )
    submit_parser.add_argument(
        "--stats", action="store_true",
        help="fetch the server's live introspection snapshot",
    )
    submit_parser.add_argument(
        "--json", action="store_true",
        help="print the folded result as JSON instead of streaming records",
    )
    submit_parser.add_argument(
        "--out", metavar="FILE",
        help="stream records to FILE as they arrive (.csv -> CSV, else JSONL)",
    )
    submit_parser.add_argument(
        "--frames-out", metavar="FILE",
        help="also dump the response's raw protocol frames (ack + stream) "
        "as JSONL, for benchmarks/serve_schema.py validation",
    )
    submit_parser.set_defaults(handler=cmd_submit)

    percolate_parser = commands.add_parser(
        "percolate", help="sample and renormalize one RSL"
    )
    percolate_parser.add_argument("--size", type=int, default=24)
    percolate_parser.add_argument("--rate", type=float, default=0.75)
    percolate_parser.add_argument("--node", type=int, default=8)
    percolate_parser.add_argument("--seed", type=int, default=0)
    percolate_parser.set_defaults(handler=cmd_percolate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro submit --stats | head`) closed
        # early; swallow the noise and let the shell see a clean exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
