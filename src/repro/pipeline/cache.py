"""Content-addressed artifact cache for the compiler pipeline.

Seed sweeps re-run the deterministic ``translate`` and ``offline-map``
stages once per seed even though only the online stages consume randomness.
This module removes that waste: a :class:`CachePass` wraps any cacheable
pass and memoizes its artifacts under a **content address** — a stable hash
of everything that feeds the stage:

* the circuit fingerprint (gate list, qubit count, name);
* the resolved hardware config and virtual size;
* the :class:`~repro.pipeline.settings.PipelineSettings`-derived options;
* for stochastic stages (``online-reshape``, ``baseline``), the derived
  child-stream seed the stage would draw from — the exact
  ``RandomStream.child(*labels, circuit.name)`` derivation, so two runs
  that would sample identical streams share one entry while different
  seeds never collide.

Deterministic stages omit the seed part, which is what lets a sweep over
the *seed axis* (same circuits, different online randomness) reuse the
translate/offline-map prefix across every rollout.

Two backends exist behind one interface: :class:`MemoryCache` (per-process
dict; serves the serial runner and the compile service) and
:class:`DiskCache` (a directory of pickle files with atomic writes;
shareable across process pools and across runs).  Both store *pickled
bytes* and deserialize on every hit, so a cached artifact is never aliased
between compilations — bit-identical results cannot be perturbed by
downstream mutation.  A ``max_bytes`` budget with LRU eviction (recency =
entry file mtime, refreshed on every hit) keeps long-running disk stores
bounded.

Hit/miss counts are recorded twice: on the cache object (session totals,
for reports) and in each compilation's ``PassContext.metrics`` (per-job
provenance that flows into ``CompilationResult.metrics`` and from there
into ``ExperimentRecord.metrics``, surviving process-pool boundaries).
A process-pool worker counts on its own pickled copy of the cache; the
process runner folds each chunk's counts back into the parent's cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any

from repro import obs
from repro.errors import CompilationError
from repro.pipeline.context import PassContext
from repro.pipeline.passes import CompilerPass

#: Bump when the key derivation or payload schema changes: stale entries
#: from older layouts must read as misses, never as wrong hits.  v2: the
#: option vocabulary grew the ``rewrite`` knob (pattern-rewrite pass on or
#: off), which keys rewritten and unrewritten chains apart.  v3: the option
#: vocabulary lost the path-search selector knob.
CACHE_SCHEMA_VERSION = 3


def circuit_fingerprint(circuit) -> str:
    """Stable content hash of a circuit (gates, qubit count, name).

    The name participates because downstream artifacts may embed it (and
    RNG streams derive from it); two same-content circuits with different
    names therefore address different entries — a lost sharing opportunity,
    never a correctness hazard.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{circuit.num_qubits}|{circuit.name}".encode())
    for gate in circuit.gates:
        digest.update(repr((gate.name, gate.qubits, gate.params)).encode())
    return digest.hexdigest()


class ArtifactCache:
    """Backend-agnostic half of the cache: keys, counters, (de)serialization.

    Subclasses implement :meth:`_read` / :meth:`_write` over raw bytes.
    ``hits``/``misses``/``evictions`` are session-local totals: they do not
    persist, and a process pool's workers count on their own copies (the
    process runner folds those back).  Only a budgeted
    :class:`DiskCache` ever evicts.
    """

    name = "cache"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    # -- key derivation -----------------------------------------------------

    def key_for(self, stage: CompilerPass, ctx: PassContext) -> str:
        """The content address of ``stage``'s output for ``ctx``."""
        parts = [
            f"schema={CACHE_SCHEMA_VERSION}",
            f"pass={stage.name}",
            f"circuit={circuit_fingerprint(ctx.circuit)}",
            f"config={ctx.config!r}",
            f"virtual={ctx.virtual_size}",
            f"options={sorted(ctx.options.items(), key=lambda kv: kv[0])!r}",
        ]
        if stage.rng_labels:
            # The exact child-seed the stage's generator would start from:
            # stochastic stages are deterministic *given* this value.
            child = ctx.stream.child(*stage.rng_labels, ctx.circuit.name)
            parts.append(f"stream={child.seed}")
        digest = hashlib.blake2b("\n".join(parts).encode(), digest_size=20)
        return digest.hexdigest()

    # -- payloads -----------------------------------------------------------

    def fetch(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key`` (a fresh deserialized copy), or None.

        A blob that does not unpickle into a dict (a torn write, bit rot, a
        foreign file) is dropped and counted as a miss, the same policy as
        :meth:`DiskCache.verify`, so the caller recomputes it.
        """
        blob = self._read(key)
        payload = None if blob is None else _load_payload(blob)
        if blob is not None and payload is None:
            self._drop(key)
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        return payload

    def store(self, key: str, payload: dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (last write wins; same content)."""
        self._write(key, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict[str, Any]:
        """Session totals, for reports and the CLI."""
        return {"backend": self.name, **cache_summary(self.hits, self.misses)}

    def absorb(self, counts: dict[str, int]) -> None:
        """Add a pool worker's counter deltas to this cache's session totals."""
        with self._lock:
            for name, value in counts.items():
                setattr(self, name, getattr(self, name) + value)

    # -- backend hooks ------------------------------------------------------

    def _read(self, key: str) -> bytes | None:
        raise NotImplementedError

    def _write(self, key: str, blob: bytes) -> None:
        raise NotImplementedError

    def _drop(self, key: str) -> None:
        raise NotImplementedError

    # -- pickling (process pools) -------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]  # locks do not pickle; workers get their own
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class MemoryCache(ArtifactCache):
    """In-process backend: a dict of pickled payloads.

    Shared by reference within one process (serial runner, compile
    service); a process pool pickles it *by value*, so workers see a
    snapshot and new entries do not flow back — use :class:`DiskCache` to
    share across processes.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._store: dict[str, bytes] = {}

    def __len__(self) -> int:
        return len(self._store)

    def _read(self, key: str) -> bytes | None:
        with self._lock:
            return self._store.get(key)

    def _write(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._store[key] = blob

    def _drop(self, key: str) -> None:
        with self._lock:
            self._store.pop(key, None)


def _load_payload(blob: bytes) -> dict[str, Any] | None:
    """``blob`` unpickled, or None unless it is a readable dict payload."""
    try:
        payload = pickle.loads(blob)
    except Exception:
        return None
    return payload if isinstance(payload, dict) else None


class DiskCache(ArtifactCache):
    """On-disk backend: one pickle file per entry, fanned out by key prefix.

    Writes are atomic (temp file + ``os.replace``), so concurrent writers —
    threads or whole process-pool workers — can race on a key and the loser
    simply overwrites identical content.  Pickles by *path*, which is what
    makes one cache shareable across a process pool and across runs.

    ``max_bytes`` bounds the store: after every write (and every
    :meth:`absorb` of a pool chunk) the least-recently-used entries are
    unlinked until the total payload fits the budget.  Recency is the
    entry file's mtime, refreshed on every hit, so eviction tracks *use*,
    not insertion — a long-running service keeps its working set.  Evicted entries simply
    read as misses and are recomputed; results are unaffected.
    """

    name = "disk"

    def __init__(
        self, directory: str | os.PathLike, max_bytes: int | None = None
    ) -> None:
        super().__init__()
        if max_bytes is not None and max_bytes <= 0:
            raise CompilationError(f"max_bytes must be positive, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        # Running payload estimate so a budgeted store does not pay a full
        # directory scan per write: seeded from disk once, bumped per
        # write, re-synced to truth by every authoritative eviction scan.
        self._approx_bytes = self.total_bytes() if max_bytes is not None else 0

    def _path(self, key: str) -> Path:
        """Where ``key``'s pickle lives (two-char fan-out)."""
        return self.directory / key[:2] / f"{key}.pkl"

    def stats(self) -> dict[str, Any]:
        """Session totals plus this store's eviction count."""
        return {**super().stats(), "evictions": self.evictions}

    def absorb(self, counts: dict[str, int]) -> None:
        """Fold a pool worker's counts in and re-apply the budget: each
        worker budgets against its own copy's size estimate, so concurrent
        writers can overshoot ``max_bytes`` together."""
        super().absorb(counts)
        if self.max_bytes is not None:
            self._evict_to_budget()

    def _entries(self):
        """Every entry file currently in the store."""
        return self.directory.glob("*/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        """Payload bytes currently on disk (entries only, not directories)."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:  # raced with a concurrent eviction
                continue
        return total

    def _read(self, key: str) -> bytes | None:
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            os.utime(path)  # refresh LRU recency: a hit is a use
        except OSError:
            pass  # concurrently evicted after the read — the hit stands
        return blob

    def _write(self, key: str, blob: bytes) -> None:
        if self.max_bytes is not None and len(blob) > self.max_bytes:
            # An artifact bigger than the whole budget can never be kept;
            # storing it would evict every warm entry and then itself.
            # Skip the write — the entry simply reads as a miss forever.
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{key[:8]}-", delete=False
        )
        try:
            handle.write(blob)
            # Durability before visibility: fsync the temp file so the
            # rename can never publish a truncated entry after a crash —
            # os.replace is atomic in the namespace, but without the fsync
            # the *data* may still be dirty page cache when the name flips.
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            if self.max_bytes is not None:
                # Overwrite accounting: os.replace drops the old payload,
                # so only charge the size *delta* — charging the full blob
                # on every overwrite drifts the estimate upward until a
                # store sitting under budget pays a spurious full-directory
                # eviction scan on each write.
                try:
                    replaced = path.stat().st_size
                except OSError:
                    replaced = 0
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            with self._lock:
                self._approx_bytes += len(blob) - replaced
                over_budget = self._approx_bytes > self.max_bytes
            if over_budget:
                self._evict_to_budget()

    def _drop(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)

    # -- size budgeting -----------------------------------------------------

    #: Eviction low-water mark: scans drop the store to this fraction of
    #: ``max_bytes``, not to the brim, so a store hovering at its budget
    #: does not pay a full directory re-scan on every subsequent write.
    EVICT_TO_FRACTION = 0.9

    def _evict_to_budget(self) -> int:
        """Unlink least-recently-used entries until ``max_bytes`` is met.

        Safe against concurrent writers/evictors: stat and unlink races are
        tolerated (a vanished file was someone else's eviction).  Returns
        the number of entries this call removed.
        """
        if self.max_bytes is None:
            return 0
        entries = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, str(path), stat.st_size, path))
            total += stat.st_size
        entries.sort()  # oldest first; path string breaks mtime ties stably
        removed = 0
        target = (
            self.max_bytes * self.EVICT_TO_FRACTION
            if total > self.max_bytes
            else self.max_bytes
        )
        for _mtime, _tie, size, path in entries:
            if total <= target:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        with self._lock:
            self.evictions += removed
            self._approx_bytes = total  # re-sync the estimate to truth
        if removed:
            obs.count("cache.evictions", removed)
        return removed

    # -- maintenance (long-running services) --------------------------------

    def verify(self) -> int:
        """Drop unreadable or truncated entries; returns how many.

        ``_write`` fsyncs before ``os.replace``, so a crash can no longer
        publish a truncated entry of our own making — what remains for
        verification is the rest of the threat model: a torn write on a
        non-atomic filesystem, bit rot, or a foreign file in the entry
        namespace, any of which would otherwise
        surface later as an unpickling error in the middle of a request.
        Verification at service startup converts that latent failure into
        a counted miss: each entry's pickle is loaded once and failures
        are unlinked.  Emits ``cache.verify_dropped`` and a
        ``cache_verified`` event so dashboards see store health.
        """
        dropped = 0
        checked = 0
        for path in self._entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue  # raced with a concurrent eviction
            checked += 1
            if _load_payload(blob) is None:
                path.unlink(missing_ok=True)
                dropped += 1
        if self.max_bytes is not None:
            with self._lock:
                self._approx_bytes = self.total_bytes()
        if dropped:
            obs.count("cache.verify_dropped", dropped)
        obs.event("cache_verified", entries=checked, dropped=dropped)
        return dropped


#: CLI ``--cache`` vocabulary -> constructor behavior (see :func:`make_cache`).
CACHE_KINDS = ("off", "memory", "disk")


def make_cache(
    kind: str,
    directory: str | os.PathLike | None = None,
    max_bytes: int | None = None,
) -> ArtifactCache | None:
    """Build a cache from the CLI vocabulary (``off`` -> ``None``).

    ``max_bytes`` applies to the disk backend only: it is the LRU eviction
    budget (the memory backend lives and dies with the process).
    """
    if max_bytes is not None and kind != "disk":
        # Silently dropping a budget would let "--cache-max-bytes" without
        # a disk cache masquerade as a bounded store.
        raise CompilationError("max_bytes budgets apply to the disk cache only")
    if kind == "off":
        return None
    if kind == "memory":
        return MemoryCache()
    if kind == "disk":
        if directory is None:
            raise CompilationError("a disk cache needs a directory (--cache-dir)")
        return DiskCache(directory, max_bytes=max_bytes)
    raise CompilationError(
        f"unknown cache kind {kind!r}; use one of: {', '.join(CACHE_KINDS)}"
    )


class CachePass(CompilerPass):
    """A memoizing wrapper around one cacheable pass.

    Presents the wrapped pass's ``name``/``requires``/``provides`` (so
    pipeline contracts, timing entries, and downstream consumers are
    oblivious), and on each run either replays the stored artifacts and
    metrics or executes the inner pass and stores what it produced.  The
    payload captures the pass's *metrics delta* alongside its artifacts so
    a hit reproduces ``ctx.metrics`` exactly as a miss would.
    """

    def __init__(self, inner: CompilerPass, cache: ArtifactCache) -> None:
        if isinstance(inner, CachePass):
            raise CompilationError(f"pass {inner.name!r} is already cached")
        if not inner.cacheable:
            raise CompilationError(
                f"pass {inner.name!r} is not cacheable (outputs are not a pure "
                "function of the cache key)"
            )
        self.inner = inner
        self.cache = cache
        self.name = inner.name
        self.requires = inner.requires
        self.provides = inner.provides
        self.rng_labels = inner.rng_labels

    def run(self, ctx: PassContext) -> None:
        key = self.cache.key_for(self.inner, ctx)
        payload = self.cache.fetch(key)
        if payload is not None:
            for artifact_name, value in payload["artifacts"].items():
                ctx.put(artifact_name, value)
            ctx.metrics.update(payload["metrics"])
            self._count(ctx, "cache_hits")
            # Event only, never a registry counter: ``cache.*`` counters
            # derive exclusively from record metrics at adoption time, so
            # both runner backends reconcile to one source of truth.
            obs.event("cache_hit", stage=self.name, circuit=ctx.circuit.name)
            return
        obs.event("cache_miss", stage=self.name, circuit=ctx.circuit.name)
        before = dict(ctx.metrics)
        self.inner.run(ctx)
        delta = {
            name: value
            for name, value in ctx.metrics.items()
            if name not in before or before[name] != value
        }
        artifacts = {name: ctx.artifacts[name] for name in self.inner.provides}
        self.cache.store(key, {"artifacts": artifacts, "metrics": delta})
        self._count(ctx, "cache_misses")

    @staticmethod
    def _count(ctx: PassContext, counter: str) -> None:
        ctx.metrics[counter] = ctx.metrics.get(counter, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachePass {self.name!r} via {self.cache.name}>"


def cache_summary(hits: int, misses: int) -> dict[str, Any]:
    """The one definition of hit/miss accounting every reporter shares."""
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def uncached_passes(passes) -> tuple[CompilerPass, ...]:
    """Strip every :class:`CachePass` wrapper, restoring the bare chain."""
    return tuple(
        stage.inner if isinstance(stage, CachePass) else stage for stage in passes
    )


def cached_passes(
    passes, cache: ArtifactCache, only: tuple[str, ...] | None = None
) -> tuple[CompilerPass, ...]:
    """Wrap every cacheable pass of ``passes`` in a :class:`CachePass`.

    ``only`` restricts wrapping to the named passes (e.g. just the
    deterministic prefix, ``("translate", "offline-map")``); by default
    every pass that declares itself cacheable is wrapped.  Already-wrapped
    and non-cacheable passes are kept as-is.
    """
    wrapped = []
    for stage in passes:
        eligible = stage.cacheable and not isinstance(stage, CachePass)
        if eligible and (only is None or stage.name in only):
            wrapped.append(CachePass(stage, cache))
        else:
            wrapped.append(stage)
    return tuple(wrapped)
