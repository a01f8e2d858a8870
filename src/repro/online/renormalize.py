"""2D renormalization: carving a regular coarse lattice out of a random one.

Section 5.1: on each (merged) RSL the largest connected component of the
percolated lattice is reshaped into a coarse-grained ``k x k`` square lattice
by finding ``k`` vertical top-bottom paths (searched left to right) and ``k``
horizontal left-right paths (searched bottom to top), alternating the two
orientations.  Path intersections become the renormalized (logical) nodes;
every other qubit is measured out in Z.

Two mechanics from the paper:

* **connectivity check** — a per-strip spanning check answers "is there
  any path at all?" on the relaxed graph that ignores crossing constraints
  (negative checks are the common case near threshold).  It is
  :func:`strip_spans`, one compiled BFS.  The path search asks it only
  after its own search failed, since a found path already proves the strip
  spans; the visited-site charge is the one a check-first search would
  make, so the order never shows in results;
* **tangling prevention** — distinct same-orientation paths must stay
  disjoint, and a path may touch a perpendicular path only by crossing it
  straight through (the crossing site becoming a renormalized node).  The
  artifact implements this by deleting each path's surrounding qubits; we
  get the same guarantee structurally, by confining each vertical path to
  its own column strip (and each horizontal path to its own row band) and by
  restricting perpendicular contact to straight crossings.  DESIGN.md
  records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RenormalizationError
from repro.online.percolation import (
    FRONTIER_MOVES,
    PercolatedLattice,
    fill_frontier,
    frontier_bfs,
    frontier_graph,
    grid_spans,
)
from repro.utils.gridgeom import Coord2D

#: Search states of a cell for one path search: blocked, free, or owned by
#: the perpendicular orientation (it may be crossed straight through).
_BLOCKED, _OPEN, _CROSS = 0, 1, 2

#: Marker values for the orientation ownership grid.  Each marker packs the
#: cell's search state for a vertical search in bits 0-1 and for a
#: horizontal search in bits 2-3, so a search reads its states off the
#: grid with one bitwise operation.
_FREE = _OPEN | _OPEN << 2
_VERTICAL = _BLOCKED | _CROSS << 2
_HORIZONTAL = _CROSS | _BLOCKED << 2
_DEAD = _BLOCKED | _BLOCKED << 2


def _strip_arrays(
    lattice: PercolatedLattice, vertical: bool, low: int, high: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strip-view arrays with axis 0 along the spanning direction.

    Returns ``(alive, across, along)``: the ``(n, w)`` liveness view, the
    ``(n, w-1)`` bonds across the strip width, and the ``(n-1, w)`` bonds
    along the spanning axis.  Row bands are transposed so both orientations
    share the one top-to-bottom geometry :func:`strip_spans` expects.
    """
    if vertical:
        alive = lattice.sites[:, low:high]
        across = lattice.horizontal[:, low : max(low, high - 1)]
        along = lattice.vertical[:, low:high]
    else:
        alive = lattice.sites[low:high, :].T
        across = lattice.vertical[low : max(low, high - 1), :].T
        along = lattice.horizontal[low:high, :].T
    return alive, across, along


def strip_spans(
    lattice: PercolatedLattice, vertical: bool, low: int, high: int
) -> bool:
    """Vectorized strip pre-check: do the strip's two far edges touch at all?

    Runs on the relaxed graph that ignores crossing constraints, so a
    negative answer is definitive while a positive one still needs BFS.
    The strip subgrid is handed (transposed for row bands, so the spanning
    axis is always rows) to :func:`~repro.online.percolation.grid_spans`,
    one compiled BFS over the same kind of fixed-degree template graph the
    vectorized path search uses.
    """
    alive, across, along = _strip_arrays(lattice, vertical, low, high)
    if alive.size == 0:
        return False
    return grid_spans(alive, across, along)


@dataclass
class RenormalizationResult:
    """Outcome of one 2D renormalization attempt."""

    success: bool
    target_size: int
    lattice_size: int  # achieved size (== target_size on success)
    node_sites: dict[tuple[int, int], Coord2D] = field(default_factory=dict)
    vertical_paths: list[list[Coord2D]] = field(default_factory=list)
    horizontal_paths: list[list[Coord2D]] = field(default_factory=list)
    visited_sites: int = 0  # BFS + DSU work, the Fig. 14 cost proxy

    @property
    def average_node_size(self) -> float:
        """``RSL_size / renormalized_lattice_size`` (paper's definition)."""
        if not self.vertical_paths:
            return float("nan")
        rsl = max(len(path) for path in self.vertical_paths)
        return rsl / max(1, self.lattice_size)


#: Margin of blocked cells around the carver's bond masks and each strip
#: grid.  A two-hop crossing reads two cells past its source, so with two
#: cells of padding every shifted read the path search needs is a slice.
_PAD = 2


class _StripGrid:
    """Buffers and CSR graph shared by every path search of one strip shape.

    The node grid is the strip in lattice orientation (``rows`` along the
    spanning direction, ``lanes`` across it) widened by ``_PAD`` lanes on
    each side along axis 1.  ``state`` holds the strip's search states on
    that grid plus ``_PAD`` rows above and below, so every read one or two
    moves away is a contiguous slice of its flat view.  Everything outside
    ``interior`` stays blocked, which keeps paths inside the strip; a query
    rewrites only ``interior``.
    """

    def __init__(self, vertical: bool, size: int, lanes: int) -> None:
        rows, cols = (size, lanes) if vertical else (lanes, size)
        width = self.width = cols + 2 * _PAD
        total = self.total = rows * width
        self.state = np.zeros((rows + 2 * _PAD, width), dtype=np.int32)
        self.interior = self.state[_PAD : _PAD + rows, _PAD : _PAD + cols]
        self.landing = np.empty_like(self.state)
        # The codes are written straight into the graph's edge targets,
        # which fill_frontier then turns into node indices in place.
        self.graph = frontier_graph(rows, width, lanes)
        slots = len(FRONTIER_MOVES)
        self.codes = self.graph.indices[: total * slots].reshape(rows, width, slots)
        # Grid node q is flat state cell q + base; each move reads the cells
        # one and two steps along it.
        base = _PAD * width
        self.reads = []
        for d_row, d_col in FRONTIER_MOVES:
            one, two = base + d_row * width + d_col, base + 2 * (d_row * width + d_col)
            self.reads.append((slice(one, one + total), slice(two, two + total)))
        # Near-edge start nodes in lane order and the step one cell inward,
        # with the edge states and the landing values one cell inward; the
        # move onto the far edge, from the line before it, as (codes,
        # far-edge states) views; and the far-edge goal nodes.
        goal = np.zeros((rows, width), dtype=bool)
        if vertical:
            self.starts = np.arange(_PAD, _PAD + lanes, dtype=np.int32)
            self.inward = width
            self.edge = self.interior[0]
            self.inner_landing = self.landing[_PAD + 1, _PAD : _PAD + cols]
            onto_goal_slot = FRONTIER_MOVES.index((1, 0))
            self.onto_goal = (
                self.codes[rows - 2, :, onto_goal_slot],
                self.state[_PAD + rows - 1],
            )
            goal[rows - 1] = True
        else:
            self.starts = np.arange(_PAD, total, width, dtype=np.int32)
            self.inward = 1
            self.edge = self.interior[:, 0]
            self.inner_landing = self.landing[_PAD : _PAD + rows, _PAD + 1]
            onto_goal_slot = FRONTIER_MOVES.index((0, 1))
            self.onto_goal = (
                self.codes[:, _PAD + cols - 2, onto_goal_slot],
                self.state[_PAD : _PAD + rows, _PAD + cols - 1],
            )
            goal[:, _PAD + cols - 1] = True
        # The super-source's target per lane and start kind (see find_path).
        self.lane_targets = np.stack(
            [np.full(lanes, total, dtype=np.int32), self.starts, self.starts + self.inward]
        )
        self.lanes = np.arange(lanes)
        self.start_set = frozenset(self.starts.tolist())
        self.is_goal = goal.ravel()
        # A step of 2 or 2 * width (every width is at least 5) can only be a
        # two-hop crossing.
        self.two_hops = frozenset((2, -2, 2 * width, -2 * width))


class _Carver:
    """Stateful path search over one percolated lattice."""

    def __init__(self, lattice: PercolatedLattice) -> None:
        self.lattice = lattice
        n = self.size = lattice.size
        side = n + 2 * _PAD
        self.owner = np.where(lattice.sites, _FREE, _DEAD).astype(np.uint8)
        # Per-RSL bond masks on the padded grid, one per move slot: bit 0
        # when the bond onto the neighbour along the move is open, bit 1
        # when the bond beyond it is open too.  Raw sampled bonds suffice:
        # the search only follows a bond onto a free or perpendicular-owned
        # cell, and both imply a live site at each end.
        down = np.zeros((side, side), dtype=np.uint8)
        down[_PAD : _PAD + n - 1, _PAD : _PAD + n] = lattice.vertical
        right = np.zeros((side, side), dtype=np.uint8)
        right[_PAD : _PAD + n, _PAD : _PAD + n - 1] = lattice.horizontal
        self._masks = np.zeros((side, side, len(FRONTIER_MOVES)), dtype=np.uint8)
        for slot, (d_row, d_col) in enumerate(FRONTIER_MOVES):
            plane = down if d_row else right
            # The bond joining a cell to its neighbour at (d_row, d_col)
            # sits at the cell shifted by (b_row, b_col).
            b_row, b_col = _PAD + min(d_row, 0), _PAD + min(d_col, 0)
            near = plane[b_row : b_row + n, b_col : b_col + n]
            far = plane[b_row + d_row : b_row + d_row + n, b_col + d_col : b_col + d_col + n]
            self._masks[_PAD : _PAD + n, _PAD : _PAD + n, slot] = near | ((near & far) << 1)
        # The start kinds each near-edge lane allows (see find_path): bit 0
        # always, bit 1 when the bond one cell inward is open.
        lattice_lanes = np.s_[_PAD : _PAD + n]
        down_slot, right_slot = FRONTIER_MOVES.index((1, 0)), FRONTIER_MOVES.index((0, 1))
        self._lane_kinds = {
            True: 1 | (self._masks[_PAD, lattice_lanes, down_slot] & 1) << 1,
            False: 1 | (self._masks[lattice_lanes, _PAD, right_slot] & 1) << 1,
        }
        # One grid per strip shape, owned here rather than shared: the
        # carver lives for one RSL and one thread.
        self._grids: dict[tuple[bool, int], _StripGrid] = {}
        self.visited_sites = 0

    # -- generic helpers --------------------------------------------------

    def _strip_range(self, index: int, count: int) -> tuple[int, int]:
        """Half-open coordinate range of strip/band ``index`` of ``count``."""
        low = (index * self.size) // count
        high = ((index + 1) * self.size) // count
        return low, high

    # -- connectivity pre-check (disjoint-set, Section 5.1) ----------------

    def _strip_connected(self, vertical: bool, low: int, high: int) -> bool:
        """Connectivity pre-check: do the strip's two far edges touch at all?

        Answers the relaxed-graph question with :func:`strip_spans`, so a
        negative answer is definitive while a positive one still needs BFS.
        The visited-site cost proxy charges the full strip area — Fig. 14's
        accounting models the work the check *represents*, not the constant
        factors of the implementation that ran it.
        """
        self.visited_sites += self.size * (high - low)
        return strip_spans(self.lattice, vertical, low, high)

    # -- BFS path search ----------------------------------------------------

    def find_path(
        self, vertical: bool, index: int, count: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Shortest spanning path for strip/band ``index`` (None if blocked).

        Returns the path's sites, near edge to far edge, as flat row and
        column arrays.  A vertical path may step on horizontal-path sites
        only by crossing them straight through (and vice versa); it may
        never travel along them, which is the tangling the surround-removal
        of the paper prevents.  The search is a fixed-shape CSR wavefront,
        byte-identical in paths, ownership and visited-site accounting to a
        per-cell deque BFS (the reference model the tests patch in).

        The strip's search states are read off the ownership markers into
        its shape's :class:`_StripGrid`, whose blocked margins keep paths
        in the strip.  Each cell gets one code per grid move, in the scalar
        move order: 1 for a step onto a free cell or a far-edge crossing
        onto a perpendicular-owned goal cell, 2 for a straight-through
        crossing onto a free landing, 0 for nothing (the scalar step kinds
        need distinct target states, so one code suffices), masked by the
        RSL's bond masks.
        :func:`~repro.online.percolation.fill_frontier` turns the codes into
        the shape's reused CSR graph, with the near-edge start cells in
        lane order on a super-source, and one
        :func:`~repro.online.percolation.frontier_bfs` pops cells in the
        scalar deque's order: the goal's pop index is the scalar visited
        count and the predecessor walk is its path.

        The strip pre-check runs only after a failed search: a constrained
        path is also a relaxed one, so a found path already proves the
        strip spans.  The visited-site charges are the deque BFS's.
        """
        low, high = self._strip_range(index, count)
        if high - low < 1:
            raise RenormalizationError("strip is empty; target size too large")
        n = self.size
        other_owner = _HORIZONTAL if vertical else _VERTICAL

        if n == 1:
            # Degenerate 1-wide lattice: a perpendicular-owned cell spans it
            # outright (before any BFS pop); a free cell is popped once and
            # immediately found to be the goal.  The pre-check charges the
            # strip area, 1.
            state = self.owner[0, 0]
            if state == other_owner or state == _FREE:
                self.visited_sites += 1 + int(state == _FREE)
                return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            self._strip_connected(vertical, low, high)
            return None

        grid = self._grids.get((vertical, high - low))
        if grid is None:
            grid = self._grids[(vertical, high - low)] = _StripGrid(vertical, n, high - low)
        if vertical:
            strip, region = self.owner[:, low:high], np.s_[_PAD : _PAD + n, low : high + 2 * _PAD]
            np.bitwise_and(strip, 3, out=grid.interior)
        else:
            strip, region = self.owner[low:high, :], np.s_[low + _PAD : high + _PAD, :]
            np.right_shift(strip, 2, out=grid.interior)
        # A move's code is ``near & (far << 1 | 1)`` over the search states
        # one and two steps along it: 1 onto a free cell, 2 across a
        # crossable cell onto a free landing.
        state, landing = grid.state.ravel(), grid.landing.ravel()
        np.left_shift(state, 1, out=landing)
        landing |= 1
        codes = grid.codes
        slot_codes = codes.reshape(grid.total, -1)
        for slot, (near, far) in enumerate(grid.reads):
            np.bitwise_and(state[near], landing[far], out=slot_codes[:, slot])
        # Onto the far edge, a crossable cell is an endpoint (a far-edge
        # crossing), not a cell to cross.
        onto_goal, goal_states = grid.onto_goal
        np.minimum(goal_states, 1, out=onto_goal)
        codes &= self._masks[region]

        # Start cells on the near edge, in lane order: a free cell starts
        # normally (kind 1); a perpendicular-owned cell with an open bond
        # onto a free cell one inward is entered there (kind 2; the owned
        # cell rejoins the path as a reconstruction prefix); kind 0 leaves
        # the lane unused.  The kind is the move code of a step onto the
        # edge cell from outside the strip (``near`` the edge cell, ``far``
        # the cell inward), masked by the lane's bond.
        kinds = grid.edge & grid.inner_landing & self._lane_kinds[vertical][low:high]
        fill_frontier(grid.graph, codes, grid.lane_targets[kinds, grid.lanes])
        total = grid.total
        pop_order, parents = frontier_bfs(grid.graph, total)
        popped = pop_order[1:]  # pop 0 is the super-source, which costs nothing
        goal_pops = grid.is_goal.take(popped)
        if not goal_pops.any():
            # Every enqueued cell was popped without reaching the far edge.
            # Those pops count only if the pre-check lets the search run.
            if self._strip_connected(vertical, low, high):
                self.visited_sites += popped.size
            return None
        found = int(goal_pops.argmax())
        # Pops up to (and including) the goal are the scalar BFS's visited
        # count; the pre-check the scalar search runs first charges the
        # full strip area.
        self.visited_sites += n * (high - low) + found + 1

        # Walk the predecessors goal to root; a two-hop crossing's skipped
        # crossing site is the midpoint of its step.
        parent_of = memoryview(parents)
        two_hops = grid.two_hops
        chain = []
        node = int(popped[found])
        while True:
            chain.append(node)
            parent = parent_of[node]
            if parent == total:
                break
            if node - parent in two_hops:
                chain.append((node + parent) // 2)
            node = parent
        if node not in grid.start_set:
            # Entered one cell inward: the owned near-edge cell comes first.
            chain.append(node - grid.inward)
        path_rows, path_cols = np.divmod(
            np.fromiter(reversed(chain), np.int64, len(chain)), grid.width
        )
        if vertical:
            path_cols += low - _PAD
        else:
            path_rows += low
            path_cols -= _PAD
        return path_rows, path_cols

    def claim(
        self, path: tuple[np.ndarray, np.ndarray] | list[Coord2D], vertical: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mark a found path's sites with their orientation ownership.

        Crossing sites (already owned by the perpendicular orientation) keep
        their original owner — they are exactly the renormalized nodes.
        Takes the flat ``(rows, cols)`` arrays :meth:`find_path` returns or
        a list of coordinates, and returns the path as flat arrays.
        """
        rows, cols = path if isinstance(path, tuple) else np.array(path).T
        sites = self.owner[rows, cols]
        marker = _VERTICAL if vertical else _HORIZONTAL
        self.owner[rows, cols] = np.where(sites == _FREE, marker, sites)
        return rows, cols


def renormalize(
    lattice: PercolatedLattice,
    target_size: int,
    work_budget: int | None = None,
) -> RenormalizationResult:
    """Reshape ``lattice`` into a ``target_size x target_size`` coarse lattice.

    Searches vertical and horizontal spanning paths alternately (the paper's
    effective order) and reports success only if all ``2 * target_size``
    paths exist — in which case every pair crosses and the intersection grid
    is complete.

    ``work_budget`` caps the visited-site count, modelling the photon
    lifetime limit on real-time processing (Fig. 13(c)'s time-restricted
    non-modular baseline): when exceeded, the partial result so far is
    returned as a failure.

    Each path search is one compiled wavefront over a CSR graph that the
    carver builds once per strip shape and refills per search.  The
    visited-site accounting is
    implementation-independent (the property suite patches in a deque-BFS
    reference search and a union-find pre-check and asserts full-result
    identity), so it is a stable Fig. 14 cost proxy.
    """
    if target_size < 1:
        raise RenormalizationError(f"target size must be >= 1, got {target_size}")
    if target_size > lattice.size:
        raise RenormalizationError(
            f"target {target_size} exceeds lattice size {lattice.size}"
        )
    carver = _Carver(lattice)
    paths: dict[bool, list[tuple[np.ndarray, np.ndarray]]] = {True: [], False: []}

    def result(success: bool, lattice_size: int, node_sites=None) -> RenormalizationResult:
        return RenormalizationResult(
            success=success,
            target_size=target_size,
            lattice_size=lattice_size,
            node_sites={} if node_sites is None else node_sites,
            vertical_paths=[_coords(path) for path in paths[True]],
            horizontal_paths=[_coords(path) for path in paths[False]],
            visited_sites=carver.visited_sites,
        )

    for index in range(target_size):
        for vertical in (True, False):
            if work_budget is not None and carver.visited_sites > work_budget:
                return result(False, min(len(paths[True]), len(paths[False])))
            path = carver.find_path(vertical, index, target_size)
            if path is None:
                return result(False, min(len(paths[True]), len(paths[False])))
            paths[vertical].append(carver.claim(path, vertical))

    node_sites = _intersections(lattice.size, paths[True], paths[False])
    if len(node_sites) < target_size * target_size:
        return result(False, int(len(node_sites) ** 0.5), node_sites)
    return result(True, target_size, node_sites)


def _coords(path: tuple[np.ndarray, np.ndarray]) -> list[Coord2D]:
    """A path's flat row and column arrays as a list of coordinates."""
    rows, cols = path
    return list(zip(rows.tolist(), cols.tolist()))


def _intersections(
    size: int,
    vertical_paths: list[tuple[np.ndarray, np.ndarray]],
    horizontal_paths: list[tuple[np.ndarray, np.ndarray]],
) -> dict[tuple[int, int], Coord2D]:
    """First shared site of each (vertical, horizontal) path pair.

    Paths are flat ``(rows, cols)`` arrays on a ``size x size`` lattice.
    One label grid maps each site to the vertical path on it (the first,
    should two share a site), so each horizontal path is one gather, and
    the work is linear in total path length.  "First" means first along
    the horizontal path, and the node dict is in ascending ``h_index``,
    then ascending ``v_index`` order.
    """
    labels = np.full((size, size), -1, dtype=np.int32)
    for v_index in reversed(range(len(vertical_paths))):
        labels[vertical_paths[v_index]] = v_index
    nodes: dict[tuple[int, int], Coord2D] = {}
    for h_index, (rows, cols) in enumerate(horizontal_paths):
        crossed = labels[rows, cols]
        at = np.flatnonzero(crossed >= 0)
        first: dict[int, int] = {}
        for position, v_index in zip(at.tolist(), crossed[at].tolist()):
            first.setdefault(v_index, position)
        for v_index in sorted(first):
            position = first[v_index]
            nodes[(v_index, h_index)] = (rows.item(position), cols.item(position))
    return nodes
