"""The asyncio compile server: bounded workers, coalescing, graceful drain.

:class:`ReproServer` listens on TCP and/or a Unix socket, speaks the JSONL
frame protocol (:mod:`repro.serve.protocol`), and executes compile work on
a bounded thread pool (``max_inflight`` concurrent compiles) so a traffic
burst queues instead of forking the machine.  The asyncio side only ever
shuttles bytes: producers run in worker threads, publish encoded frames
into an :class:`~repro.serve.singleflight.InflightStream`, and every
connection subscribed to that stream forwards the identical bytes.

Single-flight coalescing happens at request-key granularity: a compile
request's key hashes the *circuit fingerprint* plus the resolved settings
(the same :func:`~repro.pipeline.cache.circuit_fingerprint` the artifact
cache keys on), an experiment request's key hashes the normalized request,
so simultaneous identical requests cost one compile and N subscriptions.
Repeat traffic that misses the single-flight window still hits the shared
artifact cache — the server holds one cache for its whole lifetime,
verified (unreadable entries dropped, counted) at startup.

Shutdown is a drain, not a guillotine: listeners close first (no new
connections), in-flight requests run to their terminal frame (bounded by
``drain_timeout``), stragglers are cancelled, and the worker pool shuts
down with queued work cancelled.  A request arriving on a live connection
mid-drain gets an ``error`` frame with kind ``draining``.

:class:`ServerThread` hosts a server on a background event loop for tests,
benchmarks, and synchronous embedders.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.circuits.benchmarks import make_benchmark
from repro.errors import ReproError
from repro.experiments.api import get_experiment
from repro.experiments.runners import make_runner
from repro.pipeline import Pipeline, PipelineSettings
from repro.pipeline.cache import (
    DiskCache,
    cache_summary,
    circuit_fingerprint,
)
from repro.pipeline.pipeline import baseline_passes
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    ack_frame,
    encode_frame,
    error_frame,
    hello_frame,
    pass_frame,
    record_frame,
    result_frame,
    stats_frame,
    summary_frame,
    validate_request,
)
from repro.serve.singleflight import InflightStream, SingleFlight


@dataclass
class ServeConfig:
    """Everything one server needs; the CLI maps flags onto this 1:1."""

    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral, bound port on ``server.port``); ``None``
    #: disables TCP entirely (Unix-socket-only deployments).
    port: int | None = 0
    unix_path: str | None = None
    #: Shared artifact cache (:class:`~repro.pipeline.cache.ArtifactCache`
    #: or ``None``) — one store serves every request of the server's life.
    cache: Any = None
    #: Concurrent compiles; further requests queue on the worker pool.
    max_inflight: int = 4
    #: Per-request wall-clock bound (seconds); ``None`` = unbounded.  A
    #: timed-out subscriber gets an ``error`` frame; a coalesced compile
    #: keeps running for its other subscribers.
    request_timeout: float | None = None
    #: How long shutdown waits for in-flight requests before cancelling.
    drain_timeout: float = 30.0


def request_key(request: dict[str, Any]) -> str:
    """The single-flight key of a normalized request.

    Compile/baseline requests key on the circuit's content fingerprint
    (reusing the cache's :func:`circuit_fingerprint` verbatim) plus the
    resolved :class:`PipelineSettings` and seed — the same identity the
    artifact cache addresses, one level up.  Experiment requests key on
    the normalized request fields (runner config included: coalesced
    subscribers share *one* stream, so its execution backend must be part
    of the identity).
    """
    if request["op"] == "experiment":
        parts = [
            "op=experiment",
            *(
                f"{name}={request[name]!r}"
                for name in (
                    "name", "scale", "seed", "runner", "workers", "rewrite",
                )
            ),
        ]
    else:
        circuit = make_benchmark(
            request["benchmark"], request["qubits"], seed=request["seed"]
        )
        parts = [
            f"op={request['op']}",
            f"circuit={circuit_fingerprint(circuit)}",
            f"config={_settings_for(request)!r}",
            f"seed={request['seed']}",
            f"passes={request['passes']!r}",
        ]
    return hashlib.blake2b("\n".join(parts).encode(), digest_size=20).hexdigest()


def _settings_for(request: dict[str, Any]) -> PipelineSettings:
    return PipelineSettings(
        fusion_success_rate=request["rate"],
        resource_state_size=request["stars"],
        rsl_size=request["rsl_size"],
        virtual_size=request["virtual_size"],
        max_rsl=request["max_rsl"],
        rewrite=request["rewrite"],
    )


class _NotifyingPass:
    """A pass wrapper that reports completion — the per-pass streaming hook.

    Wraps an already cache-wrapped stage (so a cache *hit* still counts as
    the pass completing) and forwards the full pass interface; the server
    wraps a pipeline's pass chain with these so a compile request streams
    one ``pass`` frame per stage as it finishes.
    """

    def __init__(self, inner, callback: Callable[[str, float], None]) -> None:
        self.inner = inner
        self.callback = callback
        self.name = inner.name
        self.requires = inner.requires
        self.provides = inner.provides
        self.rng_labels = inner.rng_labels
        self.cacheable = inner.cacheable

    def run(self, ctx) -> None:
        start = time.perf_counter()
        self.inner.run(ctx)
        self.callback(self.name, time.perf_counter() - start)


class ReproServer:
    """One serving process: listeners + worker pool + single-flight + cache."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.cache = self.config.cache
        self.singleflight = SingleFlight()
        self.port: int | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._pool = None  # ThreadPoolExecutor, created in start()
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._started_at = time.time()
        self._requests_total = 0
        self._requests_active = 0
        self._requests_errors = 0
        self._requests_by_op: dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._own_session = None  # obs.session() cm when we opened one

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners, sweep/verify the cache, spin up the worker pool.

        The server always runs under a telemetry session — the stats
        request serves the registry snapshot — joining the active one
        (the CLI's ``--trace-out``/``--events-out`` session) or opening
        its own collect-only session for its lifetime.
        """
        from concurrent.futures import ThreadPoolExecutor

        if obs.active() is None:
            self._own_session = obs.session()
            self._own_session.__enter__()
        self._tele = obs.active()
        if isinstance(self.cache, DiskCache):
            # A torn entry would surface as a mid-request unpickle error;
            # startup is the one moment to verify the store.
            self.cache.verify()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight, thread_name_prefix="serve"
        )
        self._started_at = time.time()
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._on_connect,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_FRAME_BYTES,
            )
            self._servers.append(server)
            self.port = server.sockets[0].getsockname()[1]
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._on_connect, path=self.config.unix_path, limit=MAX_FRAME_BYTES
            )
            self._servers.append(server)
        if not self._servers:
            raise ReproError("serve: neither a TCP port nor a unix socket given")
        obs.event(
            "serve_started", port=self.port, unix_path=self.config.unix_path
        )

    async def serve_forever(self) -> None:
        """Block until the listeners close (i.e. until :meth:`shutdown`)."""
        await asyncio.gather(
            *(server.wait_closed() for server in self._servers)
        )

    async def shutdown(self, drain_timeout: float | None = None) -> None:
        """Graceful drain: stop accepting, finish in-flight, then tear down."""
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        deadline = time.monotonic() + drain_timeout
        while self._requests_active and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self.config.unix_path is not None:
            Path(self.config.unix_path).unlink(missing_ok=True)
        obs.event("serve_stopped", requests=self._requests_total)
        if self._own_session is not None:
            self._own_session.__exit__(None, None, None)
            self._own_session = None

    # -- connection handling -------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (
            asyncio.CancelledError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away or we are tearing down — both fine
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._send(writer, hello_frame())
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # over the stream limit: a garbage client
                await self._send(
                    writer, error_frame("request line too long", kind="protocol")
                )
                return
            if not line:
                return  # EOF: client done with this connection
            if not line.strip():
                continue
            if self._draining:
                await self._send(
                    writer, error_frame("server is draining", kind="draining")
                )
                return
            try:
                request = validate_request(_parse_request(line))
            except ProtocolError as exc:
                # A malformed request fails *that request*; the connection
                # stays usable (the client may just have typoed one field).
                self._bump(errors=True)
                await self._send(writer, error_frame(str(exc), kind="protocol"))
                continue
            with self._count_lock:
                self._requests_active += 1
            try:
                await asyncio.wait_for(
                    self._dispatch(request, writer), self.config.request_timeout
                )
            except asyncio.TimeoutError:
                # The subscriber is cancelled mid-frame-stream, so the line
                # discipline is broken: error out and close the connection.
                # A coalesced producer keeps running for other subscribers.
                self._bump(errors=True)
                await self._send(
                    writer,
                    error_frame(
                        f"request exceeded {self.config.request_timeout}s",
                        kind="timeout",
                    ),
                )
                return
            finally:
                with self._count_lock:
                    self._requests_active -= 1

    async def _dispatch(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = request["op"]
        self._bump(op=op)
        obs.count("serve.requests")
        if op == "stats":
            await self._send(
                writer, ack_frame(request["id"], op, key="stats", coalesced=False)
            )
            await self._send(writer, stats_frame(self.stats()))
            return
        try:
            key = request_key(request)
        except ReproError as exc:  # e.g. unknown benchmark family
            self._bump(errors=True)
            await self._send(writer, error_frame(str(exc), kind="request"))
            return
        stream, leader = self.singleflight.join(
            key, lambda s: self._pool.submit(self._produce, s, request)
        )
        if not leader:
            obs.count("serve.singleflight.coalesced")
        await self._send(writer, ack_frame(request["id"], op, key, not leader))
        async for chunk in stream.asubscribe():
            writer.write(chunk)
            await writer.drain()

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: dict[str, Any]) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    def _bump(self, op: str | None = None, errors: bool = False) -> None:
        with self._count_lock:
            if op is not None:
                self._requests_total += 1
                self._requests_by_op[op] = self._requests_by_op.get(op, 0) + 1
            if errors:
                self._requests_errors += 1

    # -- producers (worker threads) ------------------------------------------

    def _produce(self, stream: InflightStream, request: dict[str, Any]) -> None:
        """Run one compile/experiment, publishing frames; always finishes."""
        obs.count("serve.produced")
        start = time.perf_counter()
        try:
            if request["op"] == "experiment":
                self._produce_experiment(stream, request, start)
            else:
                self._produce_compile(stream, request, start)
        except Exception as exc:
            # Failure is a frame, not an exception: every subscriber of the
            # stream (current and late-joining) must see the same terminal.
            # Validator rejections additionally ship their machine-readable
            # diagnostics so clients see rule/severity/location, not just a
            # flattened message.
            details = (
                exc.to_json_obj() if hasattr(exc, "to_json_obj") else None
            )
            self._bump(errors=True)
            self.singleflight.retire(stream.key, stream)
            stream.publish(
                encode_frame(
                    error_frame(str(exc), kind=type(exc).__name__, details=details)
                )
            )
        finally:
            self.singleflight.finish(stream.key, stream)

    def _produce_experiment(
        self, stream: InflightStream, request: dict[str, Any], start: float
    ) -> None:
        experiment = get_experiment(request["name"])
        runner = make_runner(
            request["runner"],
            max_workers=request["workers"],
            cache=self.cache,
        )
        hits = misses = seq = 0
        for record in experiment.iter_records(
            request["scale"],
            seed=request["seed"],
            runner=runner,
            rewrite=request["rewrite"],
        ):
            stream.publish(encode_frame(record_frame(seq, record)))
            seq += 1
            hits += int(record.metrics.get("cache_hits", 0))
            misses += int(record.metrics.get("cache_misses", 0))
            for name, seconds in record.timings.items():
                obs.observe(f"serve.pass_seconds.{name}", seconds)
        self._publish_summary(
            stream, "experiment", records=seq,
            cache=cache_summary(hits, misses), start=start,
        )

    def _produce_compile(
        self, stream: InflightStream, request: dict[str, Any], start: float
    ) -> None:
        settings = _settings_for(request)
        circuit = make_benchmark(
            request["benchmark"], request["qubits"], seed=request["seed"]
        )
        baseline = request["op"] == "baseline"
        pipeline = Pipeline(
            settings,
            passes=baseline_passes() if baseline else None,
            seed=request["seed"],
            cache=self.cache,
        )
        if request["passes"]:
            # Same vocabulary and slotting as the CLI's --passes; unknown
            # names or bad insertions surface as error frames (exactly the
            # validator fail-fast contract, one layer up).
            from repro.passes import get_pass

            for name in reversed(
                [n.strip() for n in request["passes"].split(",") if n.strip()]
            ):
                cls = get_pass(name)
                pipeline = pipeline.insert_pass(
                    cls(), after=getattr(cls, "default_slot", None)
                )

        def on_pass(name: str, seconds: float) -> None:
            stream.publish(encode_frame(pass_frame(name, seconds)))
            obs.observe(f"serve.pass_seconds.{name}", seconds)

        # Wrap *after* construction so cache wrappers sit inside: a cache
        # hit still completes the pass and still streams its frame.
        pipeline.passes = tuple(
            _NotifyingPass(stage, on_pass) for stage in pipeline.passes
        )
        if baseline:
            # compile_baseline would rebuild the chain (losing the
            # notifiers); run the context against our wrapped chain and
            # finish the result exactly as compile_baseline does.
            ctx = settings.context_for(circuit, request["seed"])
            pipeline.run(ctx)
            result = ctx.require("baseline")
            result.metrics = dict(ctx.metrics)
            result.spans = list(ctx.spans)
            payload = {
                "benchmark": circuit.name,
                "num_qubits": request["qubits"],
                "rsl_count": result.rsl_count,
                "fusion_count": result.fusion_count,
                "restarts": result.restarts,
                "capped": result.capped,
            }
        else:
            result = pipeline.compile(circuit)
            payload = {
                "benchmark": circuit.name,
                "num_qubits": result.num_qubits,
                "rsl_count": result.rsl_count,
                "fusion_count": result.fusion_count,
                "logical_layers": result.logical_layers,
                "pl_ratio": result.pl_ratio,
                "pass_timings": dict(result.timings_by_pass),
            }
        metrics = dict(result.metrics)
        payload["cache"] = cache_summary(
            int(metrics.get("cache_hits", 0)), int(metrics.get("cache_misses", 0))
        )
        stream.publish(encode_frame(result_frame(request["op"], payload)))
        self._publish_summary(
            stream, request["op"], records=0, cache=payload["cache"], start=start
        )

    def _publish_summary(
        self,
        stream: InflightStream,
        op: str,
        *,
        records: int,
        cache: dict[str, Any],
        start: float,
    ) -> None:
        elapsed = time.perf_counter() - start
        obs.observe("serve.request_seconds", elapsed)
        # Retire the key *before* the terminal frame goes out: a client that
        # sees the summary and immediately resubmits must start a fresh
        # flight (served from the warm cache), not replay this response.
        self.singleflight.retire(stream.key, stream)
        stream.publish(
            encode_frame(
                summary_frame(
                    op,
                    records=records,
                    elapsed_s=elapsed,
                    cache=cache,
                    cache_session=(
                        self.cache.stats() if self.cache is not None else None
                    ),
                    metrics=(
                        self._tele.metrics.snapshot()
                        if self._tele is not None
                        else None
                    ),
                )
            )
        )

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The live introspection payload behind the ``stats`` op."""
        with self._count_lock:
            requests = {
                "total": self._requests_total,
                "active": self._requests_active,
                "errors": self._requests_errors,
                "by_op": dict(self._requests_by_op),
            }
        return {
            "uptime_s": time.time() - self._started_at,
            "draining": self._draining,
            "max_inflight": self.config.max_inflight,
            "requests": requests,
            "singleflight": self.singleflight.stats(),
            "cache_session": self.cache.stats() if self.cache is not None else None,
            "metrics": (
                self._tele.metrics.snapshot() if self._tele is not None else None
            ),
        }


def _parse_request(line: bytes) -> Any:
    import json

    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"unparsable request: {exc}") from None


# ---------------------------------------------------------------------------
# Background-thread hosting (tests, benches, sync embedders)
# ---------------------------------------------------------------------------


@dataclass
class ServerThread:
    """A :class:`ReproServer` on its own event loop in a daemon thread.

    ``start()`` returns once the listeners are bound (``server.port`` is
    readable); ``stop()`` runs the graceful drain and joins the thread.
    Usable as a context manager — the shape every server test and the
    serve bench share.
    """

    config: ServeConfig = field(default_factory=ServeConfig)
    server: ReproServer | None = None

    def start(self) -> "ServerThread":
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("serve: server thread did not start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ReproServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    @property
    def port(self) -> int | None:
        return self.server.port if self.server is not None else None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
