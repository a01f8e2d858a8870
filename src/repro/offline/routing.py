"""In-layer routing on the virtual hardware grid.

Spatial edges of the FlexLattice IR join 4-adjacent nodes, so connecting two
arbitrary cells on a layer lays down a wire of ancilla nodes between them
(measured in X/Y depending on parity, per Section 6.3).  The router is a
plain BFS over free cells — the optimization-relevant behaviour is *which*
cells are free, which the mapper controls.
"""

from __future__ import annotations

from collections import deque
from functools import cache

from repro.utils.gridgeom import Coord2D, grid_neighbors4


@cache
def _grid_tables(width: int) -> tuple[tuple[Coord2D, ...], tuple[tuple[int, ...], ...]]:
    """A ``width`` x ``width`` layer's cells in row-major order, and each
    cell's in-bounds 4-neighbours as row-major indices; built on first use
    per width."""
    cells = tuple((row, col) for row in range(width) for col in range(width))
    neighbors = tuple(
        tuple(nrow * width + ncol for nrow, ncol in grid_neighbors4(cell, width))
        for cell in cells
    )
    return cells, neighbors


class LayerGrid:
    """Occupancy of one virtual-hardware layer.

    ``cells`` maps each occupied cell to its owner; ``busy`` mirrors it as
    one byte per cell in row-major order, which the router scans.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.cells: dict[Coord2D, object] = {}
        self.busy = bytearray(width * width)
        self.all_cells, self.neighbors = _grid_tables(width)

    def is_free(self, cell: Coord2D) -> bool:
        return cell not in self.cells

    def occupy(self, cell: Coord2D, owner: object) -> None:
        if cell in self.cells:
            raise ValueError(f"cell {cell} already occupied by {self.cells[cell]!r}")
        self.cells[cell] = owner
        self.busy[cell[0] * self.width + cell[1]] = 1

    def release(self, cell: Coord2D) -> None:
        if cell in self.cells:
            del self.cells[cell]
            self.busy[cell[0] * self.width + cell[1]] = 0

    def free_cells(self) -> list[Coord2D]:
        return [cell for cell, taken in zip(self.all_cells, self.busy) if not taken]

    def nearest_free(self, anchors: list[Coord2D]) -> Coord2D | None:
        """The free cell minimizing total Manhattan distance to ``anchors``.

        With no anchors, returns the first free cell in row-major order.
        """
        best: Coord2D | None = None
        best_cost = None
        for cell in self.free_cells():
            if not anchors:
                return cell
            cost = sum(abs(cell[0] - a[0]) + abs(cell[1] - a[1]) for a in anchors)
            if best_cost is None or cost < best_cost:
                best, best_cost = cell, cost
        return best


def route(grid: LayerGrid, start: Coord2D, goal: Coord2D) -> list[Coord2D] | None:
    """Shortest wire of *free* cells connecting ``start`` and ``goal``.

    ``start`` and ``goal`` are occupied endpoints (the nodes being joined);
    the returned list contains only the intermediate free cells, which the
    caller turns into ancillas.  Returns ``[]`` if the endpoints are already
    adjacent, ``None`` if no route exists.
    """
    if abs(start[0] - goal[0]) + abs(start[1] - goal[1]) == 1:
        return []
    width = grid.width
    origin = start[0] * width + start[1]
    target = goal[0] * width + goal[1]
    neighbors = grid.neighbors
    if all(grid.busy[index] for index in neighbors[target]):
        return None  # only a free cell next to the goal can end a wire
    blocked = bytearray(grid.busy)  # occupied or already seen
    blocked[origin] = 1
    parents: dict[int, int] = {}
    queue: deque[int] = deque([origin])
    while queue:
        current = queue.popleft()
        for neighbor in neighbors[current]:
            if neighbor == target and current != origin:
                path = [current]
                while path[-1] != origin:
                    path.append(parents[path[-1]])
                cells = grid.all_cells
                return [cells[index] for index in reversed(path[:-1])]
            if blocked[neighbor]:
                continue
            blocked[neighbor] = 1
            parents[neighbor] = current
            queue.append(neighbor)
    return None
