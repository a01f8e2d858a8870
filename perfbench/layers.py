"""Per-layer tracing from outside the compiler: pass-through wrappers.

A traced run installs a timing and counting wrapper around public
functions and methods of each ``src/repro`` layer and removes it again
afterwards.  Wrappers only pass calls through, so the compiler computes
exactly what it computes untraced; the benchmark checks that it does.

``from x import f`` gives every importing module its own binding of ``f``,
so a function wrapper is installed in every loaded ``repro`` module that
holds the original object (``renormalize``, for example, is bound in
``online.timelike``, ``online.modular``, ``online.autotune`` and the fig13,
fig14 and fig16 experiments).  Methods are wrapped once, on their class.

Each wrapper records calls, inclusive seconds and self seconds (inclusive
time minus the time of wrapped calls made inside it).  Hooks read domain
counters off arguments and results: fusions by kind from the fusion
device's tally, renormalisation outcomes, mapped layers, and so on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Fusion kinds the online pass tallies (``FusionDevice.tally.by_kind``).
FUSION_KINDS = ("root-leaf", "leaf-leaf", "temporal")

#: Pipeline passes with a per-layer timing row.
PASS_NAMES = ("translate", "rewrite", "offline-map", "lower-ir", "online-reshape", "baseline")


class Tracer:
    """Wrapper installer plus the counters its wrappers feed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Hook-detected inconsistencies (each one fails the run's check).
        self.violations: list[str] = []
        self._open: list[float] = []  # child seconds of each open wrapped call
        self._undo: list[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, span: str, fn, before=None, after=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += elapsed
                tracer.calls[span] += 1
                tracer.seconds[span] += elapsed
                tracer.self_seconds[span] += elapsed - children
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def patch_function(self, module_name: str, attr: str, span: str, **hooks) -> None:
        """Wrap ``module_name.attr`` in every loaded ``repro`` namespace."""
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            print(f"perfbench: {module_name}.{attr} not found; {span} unmeasured", file=sys.stderr)
            return
        wrapper = self._wrap(span, original, **hooks)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(functools.partial(setattr, module, key, original))

    def patch_method(self, cls: type, attr: str, span: str, **hooks) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__.get(attr)
        if original is None:
            print(f"perfbench: {cls.__name__}.{attr} not found; {span} unmeasured", file=sys.stderr)
            return
        setattr(cls, attr, self._wrap(span, original, **hooks))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the ``src/repro`` modules, by name."""
        c, s, n = self.calls, self.seconds, self.counts
        out: dict[str, float] = {}

        def timed(prefix: str, span: str, with_calls: bool = True) -> None:
            if with_calls:
                out[f"{prefix}.calls"] = c[span]
            out[f"{prefix}.s"] = s[span]

        timed("online.reshape", "online.reshape")
        out["online.reshape.self_s"] = self.self_seconds["online.reshape"]
        timed("online.form_layer", "online.form_layer")
        timed("online.renormalize", "online.renormalize")
        out["online.renormalize.success_ratio"] = _ratio(
            n["renormalize_successes"], c["online.renormalize"]
        )
        out["online.renormalize.visited_sites"] = n["visited_sites"]
        timed("online.frontier_bfs", "online.frontier_bfs")
        timed("online.sample_lattice", "online.sample_lattice")
        out["online.routing_layers"] = n["routing_layers"]
        out["online.connection_failures"] = n["connection_failures"]

        timed("hardware.merge_layers", "hardware.merge_layers")
        for kind in FUSION_KINDS:
            out[f"hardware.fusions.{kind}"] = n[f"fusions.{kind}"]
        out["hardware.fusion.success_ratio"] = _ratio(
            n["fusions_succeeded"], n["fusions_attempted"]
        )
        out["hardware.spatial_retries"] = n["spatial_retries"]

        timed("offline.map", "offline.map")
        out["offline.layers"] = n["offline_layers"]
        out["offline.refresh_layers"] = n["refresh_layers"]
        out["offline.deferred_edges"] = n["deferred_edges"]
        out["offline.budget_exceeded"] = n["budget_exceeded"]

        timed("mbqc.translate", "mbqc.translate")
        out["mbqc.pattern_nodes"] = n["pattern_nodes"]

        out["passes.rewrite.s"] = s["pipeline.pass.rewrite"]
        out["passes.rewrite.shrink_ratio"] = _ratio(
            n["rewrite_nodes_removed"], n["rewrite_nodes_in"]
        )

        timed("pipeline.compile", "pipeline.compile")
        for name in PASS_NAMES:
            out[f"pipeline.pass.{name}.s"] = s[f"pipeline.pass.{name}"]
        out["pipeline.self_s"] = self.self_seconds["pipeline.compile"]

        out["baseline.plan_oneq.s"] = s["baseline.plan_oneq"]
        out["baseline.retry.s"] = s["baseline.retry"]
        out["baseline.restarts"] = n["baseline_restarts"]
        out["baseline.capped"] = n["baseline_capped"]

        timed("circuits.make_benchmark", "circuits.make_benchmark")
        return out

    def pass_seconds(self) -> float:
        """Seconds inside every wrapped pipeline pass, whatever its name."""
        return sum(
            seconds for span, seconds in self.seconds.items() if span.startswith("pipeline.pass.")
        )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``src/repro`` layer."""
    from repro.baseline.retry import RepeatUntilSuccessExecutor
    from repro.errors import MemoryBudgetExceeded
    from repro.hardware.rsg import RSGArray
    from repro.offline.mapper import OfflineMapper
    from repro.online.timelike import OnlineReshaper
    from repro.pipeline.pipeline import Pipeline, baseline_passes, default_passes

    n = tracer.counts

    def tally_before(args) -> tuple[int, int, dict[str, int]]:
        tally = args[0].device.tally
        return tally.attempted, tally.succeeded, dict(tally.by_kind)

    def reshape_after(args, metrics, before) -> None:
        tally = args[0].device.tally
        attempted0, succeeded0, by_kind0 = before
        by_kind = {k: v - by_kind0.get(k, 0) for k, v in tally.by_kind.items()}
        for kind, count in by_kind.items():
            n[f"fusions.{kind}"] += count
        n["fusions_attempted"] += tally.attempted - attempted0
        n["fusions_succeeded"] += tally.succeeded - succeeded0
        n["routing_layers"] += metrics.routing_layers
        n["connection_failures"] += metrics.connection_failures
        if sum(by_kind.values()) != metrics.fusions:
            tracer.violations.append(
                f"fusions by kind sum to {sum(by_kind.values())}, "
                f"online pass counted {metrics.fusions}"
            )
        if metrics.renormalization_successes < metrics.logical_layers:
            tracer.violations.append(
                f"{metrics.renormalization_successes} renormalisation successes "
                f"for {metrics.logical_layers} logical layers"
            )

    def renormalize_after(args, result, before) -> None:
        n["renormalize_successes"] += bool(result.success)
        n["visited_sites"] += result.visited_sites

    def form_layer_after(args, formation, before) -> None:
        n["spatial_retries"] += formation.spatial_retries

    def map_after(args, mapping, before) -> None:
        n["offline_layers"] += mapping.layer_count
        n["refresh_layers"] += mapping.refresh_layer_count
        n["deferred_edges"] += mapping.deferred_edge_realizations

    def map_error(exc: BaseException) -> None:
        if isinstance(exc, MemoryBudgetExceeded):
            n["budget_exceeded"] += 1

    def translate_after(args, pattern, before) -> None:
        n["pattern_nodes"] += len(pattern.nodes)

    def rewrite_after(args, result, before) -> None:
        metrics = args[1].metrics
        n["rewrite_nodes_in"] += metrics["rewrite_nodes_before"]
        n["rewrite_nodes_removed"] += (
            metrics["rewrite_nodes_before"] - metrics["rewrite_nodes_after"]
        )

    def retry_after(args, result, before) -> None:
        n["baseline_restarts"] += result.restarts
        n["baseline_capped"] += bool(result.capped)

    tracer.patch_method(OnlineReshaper, "run", "online.reshape", before=tally_before, after=reshape_after)
    tracer.patch_function("repro.online.fusion_strategy", "form_layer", "online.form_layer", after=form_layer_after)
    tracer.patch_function(
        "repro.online.renormalize", "renormalize", "online.renormalize", after=renormalize_after
    )
    tracer.patch_function("repro.online.percolation", "frontier_bfs", "online.frontier_bfs")
    tracer.patch_function("repro.online.percolation", "sample_lattice", "online.sample_lattice")
    tracer.patch_method(RSGArray, "merge_layers", "hardware.merge_layers")
    tracer.patch_method(OfflineMapper, "map_pattern", "offline.map", after=map_after, on_error=map_error)
    tracer.patch_function("repro.mbqc.translate", "translate_circuit", "mbqc.translate", after=translate_after)
    pass_classes = {type(stage) for stage in (*default_passes(), *baseline_passes())}
    for cls in sorted(pass_classes, key=lambda cls: cls.name):
        hooks: dict[str, Any] = {"after": rewrite_after} if cls.name == "rewrite" else {}
        tracer.patch_method(cls, "run", f"pipeline.pass.{cls.name}", **hooks)
    tracer.patch_method(Pipeline, "compile", "pipeline.compile")
    tracer.patch_function("repro.baseline.oneq", "plan_oneq", "baseline.plan_oneq")
    tracer.patch_method(RepeatUntilSuccessExecutor, "run", "baseline.retry", after=retry_after)
    tracer.patch_function("repro.circuits.benchmarks", "make_benchmark", "circuits.make_benchmark")
