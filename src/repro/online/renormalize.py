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
    frontier_bfs,
    frontier_graph,
    grid_spans,
)
from repro.utils.gridgeom import Coord2D

#: Marker values for the orientation ownership grid.
_FREE, _VERTICAL, _HORIZONTAL, _DEAD = 0, 1, 2, 3


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


#: Margin of dead cells around the carver's padded ownership grid and bond
#: planes.  A two-hop crossing reads two cells past its source, so with two
#: cells of padding every shifted mask the path search needs is a slice.
_PAD = 2


class _Carver:
    """Stateful path search over one percolated lattice."""

    def __init__(self, lattice: PercolatedLattice) -> None:
        self.lattice = lattice
        n = self.size = lattice.size
        self._owner_padded = np.full((n + 2 * _PAD, n + 2 * _PAD), _DEAD, dtype=np.uint8)
        self.owner = self._owner_padded[_PAD : _PAD + n, _PAD : _PAD + n]
        self.owner[lattice.sites] = _FREE
        # Per-RSL bond planes on the same padded grid, 0xFF where a bond is
        # open: ``_bonds_down[r, c]`` joins cells (r, c) and (r+1, c),
        # ``_bonds_right[r, c]`` joins (r, c) and (r, c+1).  Raw sampled
        # bonds suffice: the search only follows a bond onto a free or
        # perpendicular-owned cell, and both imply a live site at each end.
        self._bonds_down = np.zeros(self._owner_padded.shape, dtype=np.uint8)
        self._bonds_down[_PAD : _PAD + n - 1, _PAD : _PAD + n][lattice.vertical] = 0xFF
        self._bonds_right = np.zeros(self._owner_padded.shape, dtype=np.uint8)
        self._bonds_right[_PAD : _PAD + n, _PAD : _PAD + n - 1][lattice.horizontal] = 0xFF
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

    def find_path(self, vertical: bool, index: int, count: int) -> list[Coord2D] | None:
        """Shortest spanning path for strip/band ``index`` (None if blocked).

        A vertical path may step on horizontal-path sites only by crossing
        them straight through (and vice versa); it may never travel along
        them, which is the tangling the surround-removal of the paper
        prevents.  The search is a fixed-shape CSR wavefront, byte-identical
        in paths, ownership and visited-site accounting to a per-cell deque
        BFS (the reference model the tests patch in).

        The strip plus a ``_PAD`` margin on each lane side is cut from the
        carver's padded planes and flattened, so every shifted mask is a
        contiguous slice.  Each cell gets one code per grid move, in the
        scalar move order: 1 for a step onto a free cell or a far-edge
        crossing onto a perpendicular-owned goal cell, 2 for a straight-
        through crossing onto a free landing, 0 for nothing (the scalar
        step kinds need distinct target states, so one code suffices).
        :func:`~repro.online.percolation.frontier_graph` turns the codes
        into CSR over a cached skeleton, with the near-edge start cells in
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
                return [(0, 0)]
            self._strip_connected(vertical, low, high)
            return None

        # The strip in lattice orientation: it spans along rows for a column
        # strip and along columns for a row band.  The margin lanes beside
        # it are masked dead so paths stay inside it.
        if vertical:
            rows, width = n, high - low + 2 * _PAD
            region = np.s_[:, low : high + 2 * _PAD]
            margins = (np.s_[:, :_PAD], np.s_[:, -_PAD:])
        else:
            rows, width = high - low, n + 2 * _PAD
            region = np.s_[low : high + 2 * _PAD, :]
            margins = (np.s_[:_PAD], np.s_[-_PAD:])
        owner = self._owner_padded[region]
        free = owner == _FREE
        other = owner == other_owner
        for margin in margins:
            free[margin] = False
            other[margin] = False
        # Flat uint8 planes (0/1 states, 0/0xFF bonds): every shifted mask
        # below is a contiguous slice.
        free = free.ravel().view(np.uint8)
        other = other.ravel().view(np.uint8)
        bonds_down = self._bonds_down[region].ravel()
        bonds_right = self._bonds_right[region].ravel()

        # Grid node q is flat padded cell q + first; the super-source is
        # node ``total``.
        total = rows * width
        first = _PAD * width

        def at(plane: np.ndarray, shift: int) -> np.ndarray:
            """``plane`` sampled at ``node + shift``, for every grid node."""
            return plane[first + shift : first + shift + total]

        codes = np.empty((rows, width, len(FRONTIER_MOVES)), dtype=np.uint8)
        slot_codes = codes.reshape(total, -1)
        if vertical:
            # Stepping down onto the far edge (row rows - 1).
            into_goal, goal_line = (1, 0), np.s_[(rows - 2) * width : (rows - 1) * width]
        else:
            # Stepping right onto the far edge (column n - 1).
            into_goal, goal_line = (0, 1), np.s_[_PAD + n - 2 :: width]
        for slot, (d_row, d_col) in enumerate(FRONTIER_MOVES):
            plane = bonds_down if d_row else bonds_right
            d = d_row * width + d_col
            back = min(d, 0)  # the bond joining node and node + d sits here
            # What stepping onto node + d yields: 1 onto a free cell; 2 onto
            # a perpendicular-owned cell crossed straight through (bond
            # onward, free landing two cells out).
            landing = at(other, d) & at(plane, d + back)
            landing &= at(free, 2 * d)
            landing <<= 1
            landing |= at(free, d)
            if (d_row, d_col) == into_goal:
                # Crossing right at the far edge: the perpendicular path's
                # site serves as the endpoint.
                landing[goal_line] = at(free, d)[goal_line] | at(other, d)[goal_line]
            np.bitwise_and(at(plane, back), landing, out=slot_codes[:, slot])

        # Start cells on the near edge, in lane order: free cells start
        # normally; perpendicular-owned cells are entered one cell inward
        # (the owned cell rejoins the path as a reconstruction prefix).
        if vertical:
            edge, inward, entry_bonds = np.s_[_PAD : width - _PAD], width, bonds_down
        else:
            edge, inward, entry_bonds = np.s_[_PAD:total:width], 1, bonds_right
        starts = np.arange(total, dtype=np.int32)[edge]
        entered = at(other, 0)[edge] & at(free, inward)[edge]
        entered &= at(entry_bonds, 0)[edge]
        indptr, indices = frontier_graph(
            codes, np.where(at(free, 0)[edge], starts, np.where(entered, starts + inward, total))
        )
        pop_order, parents = frontier_bfs(indptr, indices, total)
        popped = pop_order[1:]  # pop 0 is the super-source, which costs nothing
        if vertical:
            hits = np.flatnonzero(popped >= (rows - 1) * width)
        else:
            hits = np.flatnonzero(popped % width == _PAD + n - 1)
        if not hits.size:
            # Every enqueued cell was popped without reaching the far edge.
            # Those pops count only if the pre-check lets the search run.
            if self._strip_connected(vertical, low, high):
                self.visited_sites += popped.size
            return None
        found = int(hits[0])
        # Pops up to (and including) the goal are the scalar BFS's visited
        # count; the pre-check the scalar search runs first charges the
        # full strip area.
        self.visited_sites += n * (high - low) + found + 1

        # Walk the predecessors goal to root.  With the lane padding every
        # width is at least 5, so a step of 2 or 2 * width can only be a
        # two-hop crossing, whose skipped crossing site is the midpoint.
        two_hops = (2, -2, 2 * width, -2 * width)
        chain = []
        node = int(popped[found])
        while True:
            chain.append(node)
            parent = parents.item(node)
            if parent == total:
                break
            if node - parent in two_hops:
                chain.append((node + parent) // 2)
            node = parent
        if node not in starts:
            # Entered one cell inward: the owned near-edge cell comes first.
            chain.append(node - inward)
        path_rows, path_cols = np.divmod(np.array(chain[::-1]), width)
        if vertical:
            path_cols += low - _PAD
        else:
            path_rows += low
            path_cols -= _PAD
        return list(zip(path_rows.tolist(), path_cols.tolist()))

    def claim(self, path: list[Coord2D], vertical: bool) -> None:
        """Mark a found path's sites with their orientation ownership.

        Crossing sites (already owned by the perpendicular orientation) keep
        their original owner — they are exactly the renormalized nodes.
        """
        rows, cols = np.array(path).T
        sites = self.owner[rows, cols]
        marker = _VERTICAL if vertical else _HORIZONTAL
        self.owner[rows, cols] = np.where(sites == _FREE, marker, sites)


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

    Each path search is one compiled wavefront over a fixed-shape CSR
    template per strip.  The visited-site accounting is
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
    vertical_paths: list[list[Coord2D]] = []
    horizontal_paths: list[list[Coord2D]] = []

    for index in range(target_size):
        for vertical in (True, False):
            if work_budget is not None and carver.visited_sites > work_budget:
                achieved = min(len(vertical_paths), len(horizontal_paths))
                return RenormalizationResult(
                    success=False,
                    target_size=target_size,
                    lattice_size=achieved,
                    vertical_paths=vertical_paths,
                    horizontal_paths=horizontal_paths,
                    visited_sites=carver.visited_sites,
                )
            path = carver.find_path(vertical, index, target_size)
            if path is None:
                achieved = min(len(vertical_paths), len(horizontal_paths))
                return RenormalizationResult(
                    success=False,
                    target_size=target_size,
                    lattice_size=achieved,
                    vertical_paths=vertical_paths,
                    horizontal_paths=horizontal_paths,
                    visited_sites=carver.visited_sites,
                )
            carver.claim(path, vertical)
            (vertical_paths if vertical else horizontal_paths).append(path)

    node_sites = _intersections(vertical_paths, horizontal_paths)
    if len(node_sites) < target_size * target_size:
        achieved = int(len(node_sites) ** 0.5)
        return RenormalizationResult(
            success=False,
            target_size=target_size,
            lattice_size=achieved,
            node_sites=node_sites,
            vertical_paths=vertical_paths,
            horizontal_paths=horizontal_paths,
            visited_sites=carver.visited_sites,
        )
    return RenormalizationResult(
        success=True,
        target_size=target_size,
        lattice_size=target_size,
        node_sites=node_sites,
        vertical_paths=vertical_paths,
        horizontal_paths=horizontal_paths,
        visited_sites=carver.visited_sites,
    )


def _intersections(
    vertical_paths: list[list[Coord2D]],
    horizontal_paths: list[list[Coord2D]],
) -> dict[tuple[int, int], Coord2D]:
    """First shared site of each (vertical, horizontal) path pair.

    One ``coord -> v_index`` map over all vertical paths replaces the old
    every-horizontal-against-every-vertical-set rescan, making this linear
    in total path length instead of quadratic in the path count.  "First"
    still means first along the horizontal path (vertical paths are
    disjoint, so each site maps to at most one v_index), and the node dict
    keeps the old (ascending ``v_index``) insertion order per ``h_index``.
    """
    nodes: dict[tuple[int, int], Coord2D] = {}
    site_to_v: dict[Coord2D, int] = {}
    for v_index, v_path in enumerate(vertical_paths):
        for coord in v_path:
            site_to_v.setdefault(coord, v_index)
    for h_index, h_path in enumerate(horizontal_paths):
        found: dict[int, Coord2D] = {}
        for coord in h_path:
            v_index = site_to_v.get(coord)
            if v_index is not None and v_index not in found:
                found[v_index] = coord
        for v_index in sorted(found):
            nodes[(v_index, h_index)] = found[v_index]
    return nodes
