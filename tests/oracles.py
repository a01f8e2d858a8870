"""Reference models that pin optimized product code to its plain form.

Each oracle is the straightforward implementation an optimized function in
``src/`` replaced.  They live with the tests, not in the product: their
only job is to prove two implementations equal.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hardware import FusionDevice, HardwareConfig
from repro.hardware.rsg import MergeResult
from repro.offline import LayerGrid
from repro.utils.gridgeom import Coord2D, grid_neighbors4


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


def route_reference(grid: LayerGrid, start: Coord2D, goal: Coord2D) -> list[Coord2D] | None:
    """Coordinate-tuple twin of :func:`repro.offline.route`.

    A plain BFS from ``start`` over free cells that stops at the first
    dequeued cell next to ``goal``.  The product version runs the same
    search over row-major cell indices and a byte mask, and returns at once
    when no free cell touches the goal; the wires must be identical.
    """
    if abs(start[0] - goal[0]) + abs(start[1] - goal[1]) == 1:
        return []
    parents: dict[Coord2D, Coord2D] = {}
    seen = {start}
    queue: deque[Coord2D] = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in grid_neighbors4(current, grid.width):
            if neighbor == goal and current != start:
                path = [current]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path[1:]
            if neighbor in seen or not grid.is_free(neighbor):
                continue
            seen.add(neighbor)
            parents[neighbor] = current
            queue.append(neighbor)
    return None
