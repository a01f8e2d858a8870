"""Reference models that pin optimized product code to its plain form.

Each oracle is the straightforward implementation an optimized function in
``src/`` replaced.  They live with the tests, not in the product: their
only job is to prove two implementations equal.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import FusionDevice, HardwareConfig
from repro.hardware.rsg import MergeResult


def merge_layers_reference(config: HardwareConfig, device: FusionDevice) -> MergeResult:
    """Full-grid-mask twin of :meth:`repro.hardware.RSGArray.merge_layers`.

    Every retry round recomputes ``n x n`` masks and scatters the batch of
    outcomes onto the attemptable sites in row-major order.  The product
    version walks a shrinking array of pending site indices instead; the two
    must agree on every output and consume the device RNG identically.
    """
    n = config.rsl_size
    star_degree = config.resource_state.max_degree
    merges = config.merged_rsls_per_layer - 1

    alive = np.ones((n, n), dtype=bool)
    degrees = np.full((n, n), star_degree, dtype=np.int64)
    merge_fusions = 0
    if merges == 0:
        return MergeResult(alive=alive, degrees=degrees, merge_fusions=0)

    for _ in range(merges):
        joiner = np.full((n, n), star_degree, dtype=np.int64)
        pending = alive.copy()
        while pending.any():
            attemptable = pending & (degrees >= 1) & (joiner >= 1)
            exhausted = pending & ~attemptable
            alive[exhausted] = False
            pending[exhausted] = False
            count = int(attemptable.sum())
            if count == 0:
                break
            outcomes = device.attempt_batch(count, "root-leaf")
            merge_fusions += count
            success = np.zeros((n, n), dtype=bool)
            success[attemptable] = outcomes
            failure = attemptable & ~success
            degrees[success] += joiner[success] - 1
            pending[success] = False
            degrees[failure] -= 1
            joiner[failure] -= 1
    return MergeResult(alive=alive, degrees=degrees, merge_fusions=merge_fusions)
