"""Percolated lattices: the random physical graph state on one RSL.

After the semi-static fusion strategy runs, each (merged) RSL is a random
subgraph of an ``N x N`` square lattice: sites are merged resource states
(dead if their root was lost during merging) and bonds are the heralded
outcomes of leaf-leaf fusions.  When the fusion success probability exceeds
the square-lattice bond percolation threshold of 1/2 [40], the lattice has a
giant long-range-connected component — the raw material the renormalization
pass carves into a regular grid (Section 5.1).

Connectivity is computed by :meth:`PercolatedLattice.components`, a
vectorized numpy label propagation — the primitive behind every spanning
sweep and cluster-fraction estimate (autotuning, Figs. 13(a)/16, the
threshold tests), which sample thousands of lattices per curve.  The
renormalization pass's path search and per-strip connectivity pre-check
run on :func:`frontier_bfs`, one compiled scipy breadth-first search over
a fixed-degree :func:`frontier_graph`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from repro import obs
from repro.errors import RenormalizationError
from repro.utils.gridgeom import Coord2D
from repro.utils.rng import ensure_rng

#: Label value marking dead sites in a component label grid.
DEAD_LABEL = -1


@cache
def _scipy_bfs() -> tuple:
    """scipy's ``(csr_array, breadth_first_order)``, imported on first use.

    scipy is required, but ``scipy.sparse`` takes about a quarter second to
    import, so the import waits for the first search instead of riding on
    ``import repro``.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    return csr_array, breadth_first_order


#: Out-edge slots per grid node in a fixed-degree frontier graph: one per
#: grid move, in the scalar BFS move order ``(-1,0), (1,0), (0,-1), (0,1)``.
FRONTIER_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


@lru_cache(maxsize=8)
def _frontier_template(
    rows: int, cols: int, lanes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached, read-only ``(indptr, nodes, deltas, weights)`` of a grid shape.

    ``nodes`` and ``deltas`` hold, per grid slot, the slot's own node and
    its move's one-cell step in flat indices, both int32; ``weights`` is
    the all-ones edge data every graph of the shape shares.
    """
    total = rows * cols
    slots = len(FRONTIER_MOVES)
    indptr = np.append(
        np.arange(0, slots * total + 1, slots, dtype=np.int32),
        np.int32(slots * total + lanes),
    )
    nodes = np.repeat(np.arange(total, dtype=np.int32), slots)
    steps = np.array([d_row * cols + d_col for d_row, d_col in FRONTIER_MOVES], np.int32)
    deltas = np.tile(steps, total)
    weights = np.ones(indptr[-1], dtype=np.float64)
    for array in (indptr, nodes, deltas, weights):
        array.setflags(write=False)
    return indptr, nodes, deltas, weights


def frontier_graph(rows: int, cols: int, lanes: int):
    """A fixed-degree frontier graph on a ``rows x cols`` grid, all self-loops.

    Node ``r * cols + c`` owns one out-edge slot per move of
    :data:`FRONTIER_MOVES`, in move order, and a virtual super-source
    (node ``rows * cols``) owns ``lanes`` slots.  Every slot starts as a
    self-loop, which :func:`frontier_bfs` walks without effect (a popped
    node is already seen).  The graph is a scipy ``csr_array`` over the
    shape's cached ``indptr``; :func:`fill_frontier` rewrites its
    ``indices`` in place, so one graph serves every search of its shape
    without being rebuilt or revalidated.
    """
    csr_array, _ = _scipy_bfs()
    indptr, nodes, _, weights = _frontier_template(rows, cols, lanes)
    total = rows * cols
    indices = np.concatenate([nodes, np.full(lanes, total, dtype=np.int32)])
    return csr_array((weights, indices, indptr), shape=(total + 1, total + 1))


def fill_frontier(graph, codes: np.ndarray, lane_targets: np.ndarray) -> None:
    """Point ``graph``'s edge slots at the targets ``codes`` describe.

    ``codes`` is ``(rows, cols, len(FRONTIER_MOVES))``, one code per grid
    node and move: ``0`` unused (a self-loop), ``1`` or ``2`` an edge to
    the node one or two cells along the move.  It may be a view of
    ``graph.indices`` itself, which is then converted in place.
    ``lane_targets`` are the super-source's targets in slot order (the
    super-source itself for an unused lane).  A fill is one multiply-add
    into ``graph.indices``.
    """
    rows, cols, _ = codes.shape
    _, nodes, deltas, _ = _frontier_template(rows, cols, lane_targets.size)
    indices = graph.indices
    np.multiply(codes.ravel(), deltas, out=indices[: nodes.size])
    indices[: nodes.size] += nodes
    indices[nodes.size :] = lane_targets


def frontier_bfs(graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first wavefront over a CSR graph: pop order + predecessors.

    Pops are FIFO and each popped node's out-edges are walked in CSR
    storage order, the first discoverer of a node becoming its predecessor
    — exactly the semantics of a scalar ``deque`` BFS, which is what lets
    the vectorized renormalization path search reproduce a deque BFS's
    paths and visited-site counts byte-for-byte.  ``graph`` is a scipy
    ``csr_array`` (a :func:`frontier_graph`), searched by scipy's compiled
    ``breadth_first_order``.
    """
    _, breadth_first_order = _scipy_bfs()
    order, predecessors = breadth_first_order(
        graph, source, directed=True, return_predecessors=True
    )
    if obs.active() is not None:
        # Out-of-band wavefront-size telemetry; the ``active`` gate keeps
        # the untraced hot path to one global read.
        obs.observe("online.bfs_nodes", int(order.shape[0]))
    return order, predecessors


def grid_spans(
    alive: np.ndarray, horizontal: np.ndarray, vertical: np.ndarray
) -> bool:
    """Do the first and last rows of a rectangular bond grid touch at all?

    Shapes follow :func:`label_grid_components` (``alive`` is ``(R, C)``,
    ``horizontal`` bonds along axis 1, ``vertical`` along axis 0).  This is
    the relaxed spanning question behind the renormalization strip
    pre-check.  The answer is one compiled BFS over a
    :func:`frontier_graph` from a virtual source hooked to the first row.
    """
    usable_across = horizontal & alive[:, :-1] & alive[:, 1:]
    usable_down = vertical & alive[:-1, :] & alive[1:, :]
    if alive.size == 0 or not alive.any():
        return False
    rows, cols = alive.shape
    total = rows * cols
    codes = np.zeros((rows, cols, len(FRONTIER_MOVES)), dtype=np.uint8)
    codes[1:, :, 0] = usable_down
    codes[:-1, :, 1] = usable_down
    codes[:, 1:, 2] = usable_across
    codes[:, :-1, 3] = usable_across
    graph = frontier_graph(rows, cols, cols)
    fill_frontier(graph, codes, np.where(alive[0], np.arange(cols), total))
    order, _ = frontier_bfs(graph, total)
    return bool((order // cols == rows - 1).any())


def label_grid_components(
    alive: np.ndarray, horizontal: np.ndarray, vertical: np.ndarray
) -> np.ndarray:
    """Vectorized flood fill over a rectangular grid: label per site, -1 dead.

    ``alive`` is ``(R, C)`` bool; ``horizontal[r, c]`` bonds ``(r, c)`` to
    ``(r, c+1)`` and ``vertical[r, c]`` bonds ``(r, c)`` to ``(r+1, c)``
    (masked to usable internally, so raw sampled bonds are fine).  Labels
    are flat row-major site indices; each component ends up labelled by its
    minimum index, so the labelling is deterministic.  Min-label
    propagation across the bond grids is interleaved with pointer jumping
    (``labels = labels[labels]``) so chains collapse in logarithmically
    many rounds instead of one round per grid diameter.

    This is the primitive behind :meth:`PercolatedLattice.label_components`.
    """
    rows, cols = alive.shape
    total = rows * cols
    flat = np.arange(total, dtype=np.int64)
    labels = np.where(alive.ravel(), flat, DEAD_LABEL)
    if total == 0 or not alive.any():
        return labels.reshape(rows, cols)
    horizontal = horizontal & alive[:, :-1] & alive[:, 1:]
    vertical = vertical & alive[:-1, :] & alive[1:, :]
    sentinel = total  # larger than any real label, inert under minimum
    grid = np.where(alive, flat.reshape(rows, cols), sentinel)
    while True:
        neighbor_min = grid.copy()
        if cols > 1:
            # Pull the smaller label across each usable bond, both ways.
            np.minimum(
                neighbor_min[:, :-1],
                np.where(horizontal, grid[:, 1:], sentinel),
                out=neighbor_min[:, :-1],
            )
            np.minimum(
                neighbor_min[:, 1:],
                np.where(horizontal, grid[:, :-1], sentinel),
                out=neighbor_min[:, 1:],
            )
        if rows > 1:
            np.minimum(
                neighbor_min[:-1, :],
                np.where(vertical, grid[1:, :], sentinel),
                out=neighbor_min[:-1, :],
            )
            np.minimum(
                neighbor_min[1:, :],
                np.where(vertical, grid[:-1, :], sentinel),
                out=neighbor_min[1:, :],
            )
        if np.array_equal(neighbor_min, grid):
            break
        grid = neighbor_min
        # Pointer jumping: labels are site indices, so chasing them
        # through the flat view compresses label chains exponentially.
        flat_view = np.where(alive.ravel(), grid.ravel(), sentinel)
        padded = np.append(flat_view, sentinel)  # sentinel maps to itself
        while True:
            jumped = padded[flat_view]
            if np.array_equal(jumped, flat_view):
                break
            flat_view = jumped
            padded[:total] = np.where(alive.ravel(), flat_view, sentinel)
        grid = np.where(alive, flat_view.reshape(rows, cols), sentinel)
    return np.where(alive, grid, DEAD_LABEL)


class GridComponents:
    """Connected components of a grid, backed by a flat label array.

    Quacks like the :class:`~repro.utils.dsu.DisjointSet` the callers were
    written against — ``connected``, ``find``, ``largest_component``,
    ``component_size``, ``components``, ``len`` — but every query is an
    array lookup on the ``(N, N)`` label grid produced by the vectorized
    flood fill, with per-component sizes precomputed by ``bincount``.
    """

    def __init__(self, labels: np.ndarray) -> None:
        self.labels = labels
        alive = labels[labels != DEAD_LABEL]
        self._alive_count = int(alive.size)
        self._sizes = (
            np.bincount(alive, minlength=labels.size) if alive.size else np.zeros(0, int)
        )

    def __len__(self) -> int:
        return self._alive_count

    def __contains__(self, coord: Coord2D) -> bool:
        return self.labels[coord] != DEAD_LABEL

    def __iter__(self) -> Iterator[Coord2D]:
        for row, col in np.argwhere(self.labels != DEAD_LABEL).tolist():
            yield (row, col)

    @property
    def component_count(self) -> int:
        """Number of disjoint components among the alive sites."""
        return int(np.count_nonzero(self._sizes))

    def find(self, coord: Coord2D) -> int:
        """Canonical representative (root label) of ``coord``'s component."""
        label = int(self.labels[coord])
        if label == DEAD_LABEL:
            raise KeyError(f"site {coord} is dead")
        return label

    def connected(self, a: Coord2D, b: Coord2D) -> bool:
        """Whether alive sites ``a`` and ``b`` share a component."""
        la, lb = self.labels[a], self.labels[b]
        return la != DEAD_LABEL and la == lb

    def component_size(self, coord: Coord2D) -> int:
        """Size of the component containing ``coord``."""
        return int(self._sizes[self.find(coord)])

    def largest_component_size(self) -> int:
        """Size of the largest component (0 if no alive sites)."""
        return int(self._sizes.max()) if self._sizes.size else 0

    def largest_component(self) -> list[Coord2D]:
        """Sites of the largest component (empty list if no alive sites)."""
        if not self._sizes.size or not self._sizes.any():
            return []
        best = int(self._sizes.argmax())
        return [tuple(coord) for coord in np.argwhere(self.labels == best).tolist()]

    def components(self) -> dict[int, list[Coord2D]]:
        """Map each root label to the list of sites in its component."""
        grouped: dict[int, list[Coord2D]] = {}
        for row, col in np.argwhere(self.labels != DEAD_LABEL).tolist():
            grouped.setdefault(int(self.labels[row, col]), []).append((row, col))
        return grouped

    def row_roots(self, row: int) -> np.ndarray:
        """Distinct root labels present among the alive sites of ``row``."""
        labels = self.labels[row]
        return np.unique(labels[labels != DEAD_LABEL])


@dataclass
class PercolatedLattice:
    """Random subgraph of an ``N x N`` square lattice.

    ``horizontal[r, c]`` is the bond between ``(r, c)`` and ``(r, c+1)``;
    ``vertical[r, c]`` is the bond between ``(r, c)`` and ``(r+1, c)``.
    A bond is usable only if it sampled open *and* both endpoint sites are
    alive.
    """

    sites: np.ndarray  # bool (N, N)
    horizontal: np.ndarray  # bool (N, N-1)
    vertical: np.ndarray  # bool (N-1, N)

    def __post_init__(self) -> None:
        n = self.sites.shape[0]
        if self.sites.shape != (n, n):
            raise RenormalizationError("sites must be square")
        if self.horizontal.shape != (n, max(0, n - 1)):
            raise RenormalizationError("horizontal bonds have the wrong shape")
        if self.vertical.shape != (max(0, n - 1), n):
            raise RenormalizationError("vertical bonds have the wrong shape")

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    def has_bond(self, a: Coord2D, b: Coord2D) -> bool:
        """Whether a usable bond joins sites ``a`` and ``b`` (must be adjacent)."""
        (ra, ca), (rb, cb) = a, b
        if not (self.sites[ra, ca] and self.sites[rb, cb]):
            return False
        if ra == rb and abs(ca - cb) == 1:
            return bool(self.horizontal[ra, min(ca, cb)])
        if ca == cb and abs(ra - rb) == 1:
            return bool(self.vertical[min(ra, rb), ca])
        raise RenormalizationError(f"sites {a} and {b} are not adjacent")

    def neighbors(self, coord: Coord2D) -> Iterator[Coord2D]:
        """Alive sites connected to ``coord`` by a usable bond."""
        row, col = coord
        n = self.size
        if col + 1 < n and self.has_bond(coord, (row, col + 1)):
            yield (row, col + 1)
        if col - 1 >= 0 and self.has_bond(coord, (row, col - 1)):
            yield (row, col - 1)
        if row + 1 < n and self.has_bond(coord, (row + 1, col)):
            yield (row + 1, col)
        if row - 1 >= 0 and self.has_bond(coord, (row - 1, col)):
            yield (row - 1, col)

    def usable_bonds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bond grids masked down to bonds whose both endpoints are alive."""
        horizontal = self.horizontal & self.sites[:, :-1] & self.sites[:, 1:]
        vertical = self.vertical & self.sites[:-1, :] & self.sites[1:, :]
        return horizontal, vertical

    def label_components(self) -> np.ndarray:
        """Vectorized flood fill: component label per site, -1 where dead.

        Delegates to :func:`label_grid_components` (the rectangular-grid
        primitive shared with the renormalization strip pre-check); labels
        are flat site indices, each component labelled by its minimum
        index, so the labelling is deterministic.
        """
        return label_grid_components(self.sites, self.horizontal, self.vertical)

    def components(self) -> GridComponents:
        """Connected components of alive sites under usable bonds.

        The vectorized online hot path.  The tests pin it to a per-bond
        union-find reference model (same partition, same interface).
        """
        return GridComponents(self.label_components())

    def largest_cluster_fraction(self) -> float:
        """Size of the largest cluster over total sites (the order parameter)."""
        if self.size == 0:
            return 0.0
        return self.components().largest_component_size() / (self.size * self.size)

    def spans_rows(self) -> bool:
        """Whether one component touches both the top and bottom rows.

        Intersects the root-label sets of the two edge rows — one pass over
        ``2N`` labels instead of the old ``O(N^2)`` pairwise connectivity
        checks.
        """
        if self.size == 0:
            return False
        components = self.components()
        top = components.row_roots(0)
        bottom = components.row_roots(self.size - 1)
        return bool(np.intersect1d(top, bottom, assume_unique=True).size)

    def remove_site(self, coord: Coord2D) -> None:
        """Measure a site out in Z: mark it dead (used during path carving)."""
        self.sites[coord] = False

    def copy(self) -> "PercolatedLattice":
        return PercolatedLattice(
            sites=self.sites.copy(),
            horizontal=self.horizontal.copy(),
            vertical=self.vertical.copy(),
        )


def sample_lattice(
    size: int,
    bond_probability: float,
    rng=None,
    site_alive: np.ndarray | None = None,
) -> PercolatedLattice:
    """Sample a bond-percolated ``size x size`` lattice.

    ``site_alive`` (from the RSL merging step) marks sites whose root
    survived; ``None`` means all alive.  Bond outcomes are iid Bernoulli at
    ``bond_probability`` — the leaf-leaf fusion success rate.
    """
    if size < 1:
        raise RenormalizationError(f"lattice size must be >= 1, got {size}")
    if not 0.0 <= bond_probability <= 1.0:
        raise RenormalizationError(
            f"bond probability must be in [0, 1], got {bond_probability}"
        )
    rng = ensure_rng(rng)
    sites = (
        np.ones((size, size), dtype=bool)
        if site_alive is None
        else site_alive.astype(bool).copy()
    )
    horizontal = rng.random((size, max(0, size - 1))) < bond_probability
    vertical = rng.random((max(0, size - 1), size)) < bond_probability
    return PercolatedLattice(sites=sites, horizontal=horizontal, vertical=vertical)


def spanning_probability(
    size: int,
    bond_probability: float,
    trials: int,
    rng=None,
) -> float:
    """Monte-Carlo estimate of the top-bottom spanning probability.

    Used by the tests to confirm the implementation reproduces the
    square-lattice bond percolation threshold of 1/2 [40] — the fact the
    whole online pass rests on.
    """
    rng = ensure_rng(rng)
    hits = 0
    for _ in range(trials):
        lattice = sample_lattice(size, bond_probability, rng)
        hits += int(lattice.spans_rows())
    return hits / trials
