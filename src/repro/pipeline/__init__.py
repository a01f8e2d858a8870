"""Composable compiler-pass pipeline (see ARCHITECTURE.md).

The Fig. 2 flow — circuit -> MBQC pattern -> offline FlexLattice mapping ->
online reshaping — expressed as first-class passes over a shared
:class:`PassContext`, chained by a :class:`Pipeline`.  A pipeline compiles
one circuit per call; sweeps go through :mod:`repro.experiments.runners`.
"""

from repro.pipeline.cache import (
    ArtifactCache,
    CachePass,
    DiskCache,
    MemoryCache,
    cache_summary,
    cached_passes,
    circuit_fingerprint,
    make_cache,
    uncached_passes,
)
from repro.pipeline.context import PassContext, PassTiming
from repro.pipeline.passes import (
    BaselinePass,
    CompilerPass,
    LowerIRPass,
    OfflineMapPass,
    OnlineReshapePass,
    TranslatePass,
)
from repro.pipeline.pipeline import (
    PassInsertionError,
    Pipeline,
    baseline_passes,
    check_chain,
    default_passes,
)
from repro.pipeline.result import CompilationResult
from repro.pipeline.settings import PipelineSettings, rsl_size_for, virtual_size_for

__all__ = [
    "ArtifactCache",
    "BaselinePass",
    "CachePass",
    "CompilationResult",
    "CompilerPass",
    "DiskCache",
    "MemoryCache",
    "LowerIRPass",
    "OfflineMapPass",
    "OnlineReshapePass",
    "PassContext",
    "PassInsertionError",
    "PassTiming",
    "Pipeline",
    "PipelineSettings",
    "TranslatePass",
    "baseline_passes",
    "cache_summary",
    "cached_passes",
    "check_chain",
    "circuit_fingerprint",
    "default_passes",
    "make_cache",
    "uncached_passes",
    "rsl_size_for",
    "virtual_size_for",
]
