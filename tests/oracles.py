"""Reference models that pin optimized product code to its plain form.

Each oracle is the straightforward implementation an optimized function in
``src/`` replaced.  They live with the tests, not in the product: their
only job is to prove two implementations equal.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import RenormalizationError
from repro.hardware import FusionDevice, HardwareConfig
from repro.hardware.rsg import MergeResult
from repro.offline import LayerGrid
from repro.online.percolation import PercolatedLattice
from repro.online.renormalize import _FREE, _HORIZONTAL, _VERTICAL, _Carver
from repro.utils.dsu import DisjointSet
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


def components_dsu(lattice: PercolatedLattice) -> DisjointSet:
    """Per-bond union-find twin of :meth:`PercolatedLattice.components`.

    A DSU over the alive sites with one union per usable bond.  The product
    version labels components by vectorized min-label propagation; the two
    must give the same partition behind the same query interface.
    """
    dsu: DisjointSet = DisjointSet()
    alive_rows, alive_cols = np.nonzero(lattice.sites)
    for row, col in zip(alive_rows.tolist(), alive_cols.tolist()):
        dsu.add((row, col))
    h_rows, h_cols = np.nonzero(lattice.horizontal)
    for row, col in zip(h_rows.tolist(), h_cols.tolist()):
        if lattice.sites[row, col] and lattice.sites[row, col + 1]:
            dsu.union((row, col), (row, col + 1))
    v_rows, v_cols = np.nonzero(lattice.vertical)
    for row, col in zip(v_rows.tolist(), v_cols.tolist()):
        if lattice.sites[row, col] and lattice.sites[row + 1, col]:
            dsu.union((row, col), (row + 1, col))
    return dsu


def strip_spans_dsu(
    lattice: PercolatedLattice, vertical: bool, low: int, high: int
) -> bool:
    """Flat union-find twin of :func:`repro.online.renormalize.strip_spans`.

    Unions every usable bond inside the strip, then asks whether a root of
    the near edge is also a root of the far edge.  The product version runs
    one compiled BFS instead; the answers must agree on every strip.
    """
    n = lattice.size
    width = high - low
    if width <= 0:
        return False
    total = n * width
    parent = list(range(total))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def flat(a: int, b: int) -> int:
        # a runs along the spanning axis, b across the strip width.
        return a * width + (b - low)

    dead = ~lattice.sites
    for a in range(n):
        for b in range(low, high):
            coord = (a, b) if vertical else (b, a)
            if dead[coord]:
                continue
            here = flat(a, b)
            if a > 0:
                back = (a - 1, b) if vertical else (b, a - 1)
                if not dead[back] and lattice.has_bond(coord, back):
                    ra, rb = find(here), find(flat(a - 1, b))
                    if ra != rb:
                        parent[ra] = rb
            if b > low:
                side = (a, b - 1) if vertical else (b - 1, a)
                if not dead[side] and lattice.has_bond(coord, side):
                    ra, rb = find(here), find(flat(a, b - 1))
                    if ra != rb:
                        parent[ra] = rb
    first_roots = {
        find(flat(0, b))
        for b in range(low, high)
        if not dead[(0, b) if vertical else (b, 0)]
    }
    return any(
        find(flat(n - 1, b)) in first_roots
        for b in range(low, high)
        if not dead[(n - 1, b) if vertical else (b, n - 1)]
    )


#: Null-predecessor marker, the sentinel scipy.sparse.csgraph uses.
NO_PREDECESSOR = -9999


def frontier_bfs_reference(graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Pure-Python twin of :func:`repro.online.percolation.frontier_bfs`.

    FIFO pops over a CSR ``graph``'s ``indptr`` and ``indices``, per-node
    edges walked in storage order, the first discoverer becoming the
    predecessor.  The product runs scipy's ``breadth_first_order``; this
    pins scipy's (undocumented but load-bearing) tie-break behaviour.
    """
    node_count = graph.indptr.shape[0] - 1
    predecessors = np.full(node_count, NO_PREDECESSOR, dtype=np.int32)
    indptr_list = graph.indptr.tolist()
    indices_list = graph.indices.tolist()
    seen = bytearray(node_count)
    seen[source] = 1
    order = [source]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for neighbor in indices_list[indptr_list[node] : indptr_list[node + 1]]:
            if not seen[neighbor]:
                seen[neighbor] = 1
                predecessors[neighbor] = node
                order.append(neighbor)
    return np.array(order, dtype=np.int32), predecessors


def find_path_reference(
    carver: _Carver, vertical: bool, index: int, count: int
) -> list[Coord2D] | None:
    """Per-cell deque-BFS twin of :meth:`_Carver.find_path`.

    Runs the strip pre-check first, then a plain BFS from the near edge.
    The product version runs one compiled wavefront over a fixed-shape CSR
    template and defers the pre-check until a search fails; the paths,
    ownership and visited-site counts must be identical.  Patch it in with
    ``patch.object(_Carver, "find_path", find_path_reference)``.
    """
    low, high = carver._strip_range(index, count)
    if high - low < 1:
        raise RenormalizationError("strip is empty; target size too large")
    if not carver._strip_connected(vertical, low, high):
        return None

    other_owner = _HORIZONTAL if vertical else _VERTICAL
    n = carver.size
    owner = carver.owner
    bond = carver.lattice.has_bond

    def free(coord: Coord2D) -> bool:
        return owner[coord] == _FREE

    def in_strip(coord: Coord2D) -> bool:
        lane = coord[1] if vertical else coord[0]
        return low <= lane < high

    goal_axis = n - 1

    def axis_of(coord: Coord2D) -> int:
        return coord[0] if vertical else coord[1]

    def moves(coord: Coord2D):
        row, col = coord
        for drow, dcol in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            step = (row + drow, col + dcol)
            if not (0 <= step[0] < n and 0 <= step[1] < n):
                continue
            if not in_strip(step):
                continue
            if not bond(coord, step):
                continue
            if free(step):
                yield step, (step,)
            elif owner[step] == other_owner:
                if axis_of(step) == goal_axis:
                    # Crossing right at the far edge: the perpendicular
                    # path's site serves as the endpoint.
                    yield step, (step,)
                    continue
                # Cross the perpendicular path straight through.
                landing = (step[0] + drow, step[1] + dcol)
                if (
                    0 <= landing[0] < n
                    and 0 <= landing[1] < n
                    and in_strip(landing)
                    and free(landing)
                    and bond(step, landing)
                ):
                    yield landing, (step, landing)

    # Start cells on the near edge: free cells start normally; cells owned
    # by a perpendicular path are entered as crossings (step straight in,
    # or end immediately on a 1-wide lattice).
    parent: dict[Coord2D, tuple[Coord2D, tuple[Coord2D, ...]]] = {}
    queue: deque[Coord2D] = deque()
    seen: set[Coord2D] = set()
    for lane in range(low, high):
        cell = (0, lane) if vertical else (lane, 0)
        if free(cell):
            seen.add(cell)
            queue.append(cell)
        elif owner[cell] == other_owner:
            if goal_axis == 0:
                # Degenerate 1-wide lattice: the crossing site alone spans it.
                return [cell]
            inward = (1, lane) if vertical else (lane, 1)
            if (
                0 <= inward[0] < n
                and 0 <= inward[1] < n
                and in_strip(inward)
                and free(inward)
                and bond(cell, inward)
                and inward not in seen
            ):
                seen.add(inward)
                parent[inward] = (cell, (inward,))
                seen.add(cell)
                queue.append(inward)
    goal: Coord2D | None = None
    while queue:
        current = queue.popleft()
        carver.visited_sites += 1
        if axis_of(current) == goal_axis:
            goal = current
            break
        for landing, hops in moves(current):
            if landing not in seen:
                seen.add(landing)
                parent[landing] = (current, hops)
                queue.append(landing)
    if goal is None:
        return None

    # Reconstruct, including crossing sites, root to goal.
    path: list[Coord2D] = [goal]
    node = goal
    while node in parent:
        previous, hops = parent[node]
        for hop in reversed(hops[:-1]):
            path.append(hop)
        path.append(previous)
        node = previous
    path.reverse()
    return path
