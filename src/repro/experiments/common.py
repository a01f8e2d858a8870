"""Shared experiment scaffolding: scales, benchmark cases, seed streams.

Every experiment runs at one of two scales:

* ``"bench"`` — small parameters for CI / pytest-benchmark (minutes end to
  end).  Trends survive; absolute values shrink.
* ``"paper"`` — the paper's own parameters (Table 1, Figs. 12-16 captions).
  Minutes of CPU (see EXPERIMENTS.md "Scales and determinism").

EXPERIMENTS.md records which scale produced the checked-in numbers.  The
sweep/averaging helpers that used to live here are gone: sweeps are now job
lists built by :class:`repro.experiments.api.Experiment` subclasses and
averaging happens inside self-seeded jobs, so any runner backend can execute
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import RandomStream

SCALES = ("bench", "paper")


@dataclass(frozen=True)
class BenchmarkCase:
    """One (benchmark family, qubit count) cell of Table 2 / Table 3."""

    family: str
    num_qubits: int

    @property
    def label(self) -> str:
        return f"{self.family.upper()}-{self.num_qubits}"


def check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def stream_for(experiment: str, seed: int | None = None) -> RandomStream:
    """Deterministic per-experiment random stream.

    Monte-Carlo jobs derive per-point child streams from this
    (``stream_for("fig16", seed).child(rate, node)``), which is what makes
    them independent of scheduling order and safe on any runner backend.
    """
    return RandomStream(seed).child("experiments", experiment)
