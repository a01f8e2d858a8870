"""The offline mapping pass: program graph state -> FlexLattice IR (Section 6.2).

The mapper extends OneQ's graph-state embedding with the paper's three
optimizations:

1. **dynamic scheduling** — candidate nodes come from the front layer of the
   measurement-calculus dependency DAG, updated as nodes are consumed;
2. **occupancy limit** — at most ``occupancy_limit`` (default 25 %) of each
   layer's cells may hold *incomplete* nodes (mapped nodes with unmapped
   edges), reserving room for routing;
3. **refresh** — every ``refresh_every`` layers the virtual memory's
   contents are retrieved and re-stored, bounding the classical memory that
   tracks the accumulated graph information at the price of extra layers.

Mechanics.  A mapped node with unrealized edges is *stored* in the virtual
memory at its home coordinate (the per-coordinate memory of the virtual
hardware).  An edge is realized on whichever layer both endpoint wires can
meet: at either endpoint's mapping layer, or later by retrieving both
worldlines and routing between them.  Every retrieval re-emerges at the
node's home coordinate (FlexLattice temporal edges keep their 2D coordinate)
and consumes that cell on the current layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MappingError, MemoryBudgetExceeded
from repro.ir.flexlattice import (
    ROLE_ANCILLA,
    ROLE_GRAPH,
    ROLE_WORLDLINE,
    FlexLatticeIR,
)
from repro.mbqc.dependency import DependencyDAG
from repro.mbqc.pattern import MeasurementPattern
from repro.offline.routing import LayerGrid, route
from repro.online.timelike import LayerDemand
from repro.utils.gridgeom import Coord2D, Coord3D

#: Classical bytes accounted per stored node per elapsed layer: the physical
#: qubits of a stored wire grow by one layer's worth of graph bookkeeping per
#: RSL the node waits.  Calibrated once (see DESIGN.md / Table 3) so the
#: paper's 32 GB budget separates 25-qubit from 64-qubit benchmarks.
DEFAULT_BYTES_PER_NODE_LAYER = 4 * 2**20  # 4 MiB


@dataclass
class MemoryEntry:
    """One stored node: where it lives and what it still owes."""

    g_node: int
    home: Coord2D
    last_coord: Coord3D  # newest worldline instance (or original placement)
    stored_layer: int  # layer at which it was last (re-)stored
    pending: set[int] = field(default_factory=set)  # unrealized neighbour ids


@dataclass
class MappingResult:
    """Everything the offline pass hands to the online pass and the harness."""

    ir: FlexLatticeIR
    demands: list[LayerDemand]
    layer_count: int
    refresh_layer_count: int
    peak_memory_bytes: int
    retrievals: int
    deferred_edge_realizations: int
    ancilla_cells: int

    @property
    def logical_layer_count(self) -> int:
        """Layers the online pass must realize (mapping + refresh layers)."""
        return self.layer_count


class OfflineMapper:
    """Maps a measurement pattern onto the virtual hardware."""

    def __init__(
        self,
        width: int,
        occupancy_limit: float = 0.25,
        refresh_every: int | None = None,
        memory_budget_bytes: int | None = None,
        bytes_per_node_layer: int = DEFAULT_BYTES_PER_NODE_LAYER,
        dynamic_scheduling: bool = True,
        max_idle_layers: int = 8,
    ) -> None:
        if width < 2:
            raise MappingError(f"virtual hardware width must be >= 2, got {width}")
        if not 0.0 < occupancy_limit <= 1.0:
            raise MappingError(
                f"occupancy limit must be in (0, 1], got {occupancy_limit}"
            )
        if refresh_every is not None and refresh_every < 1:
            raise MappingError("refresh_every must be >= 1 layer when given")
        self.width = width
        self.occupancy_limit = occupancy_limit
        self.refresh_every = refresh_every
        self.memory_budget_bytes = memory_budget_bytes
        self.bytes_per_node_layer = bytes_per_node_layer
        self.dynamic_scheduling = dynamic_scheduling
        self.max_idle_layers = max_idle_layers

    # ------------------------------------------------------------------

    def map_pattern(self, pattern: MeasurementPattern) -> MappingResult:
        """Run the mapping; raises on budget violation or impossible layouts."""
        state = _MapperState(self, pattern)
        return state.run()


class _MapperState:
    """One mapping run's mutable state (kept off the public mapper object).

    The per-layer bookkeeping is incremental: the scheduler's ready set,
    the mapped-neighbour counts, the multiset of memory homes and the
    running memory total are updated where nodes are consumed and memory
    entries are stored, re-stored or forgotten, instead of being recomputed
    from scratch on every layer.
    """

    def __init__(self, mapper: OfflineMapper, pattern: MeasurementPattern) -> None:
        self.mapper = mapper
        self.pattern = pattern
        self.graph = pattern.graph
        self.dag = DependencyDAG(pattern)
        self.ir = FlexLatticeIR(mapper.width)
        self.memory: dict[int, MemoryEntry] = {}
        self.consumed: set[int] = set()
        # Deferred edges keyed (lo, hi).  The value is the endpoint order of
        # the first frozenset({u, v}) that deferred the edge: route direction
        # and the relocation mover follow it.
        self.deferred_edges: dict[tuple[int, int], tuple[int, int]] = {}
        # Scheduler: unconsumed predecessors per node, and the nodes with
        # none left (the DAG's front layer).
        self.unmet = {node: len(self.dag.predecessors(node)) for node in pattern.nodes}
        self.ready = {node for node, count in self.unmet.items() if count == 0}
        self.mapped_neighbors = dict.fromkeys(pattern.nodes, 0)
        # Memory: how many entries live at each home cell, and the sum of
        # their stored_layer fields.
        self.home_count: dict[Coord2D, int] = {}
        self.stored_layer_sum = 0
        self.layer = -1
        self.layers_since_refresh = 0
        self.refresh_layers = 0
        self.peak_memory = 0
        self.retrievals = 0
        self.deferred_realized = 0
        self.ancilla_cells = 0
        if mapper.dynamic_scheduling:
            self._static_order = None
        else:
            # OneQ-style static partition: one global topological order,
            # consumed strictly in sequence.
            self._static_order = self.dag.topological_order()

    # -- top level -----------------------------------------------------

    def run(self) -> MappingResult:
        total = len(self.pattern.nodes)
        idle = 0
        while len(self.consumed) < total or self.deferred_edges or self._memory_dirty():
            progress = self._map_one_layer()
            idle = 0 if progress else idle + 1
            if idle > self.mapper.max_idle_layers:
                raise MappingError(
                    f"no progress for {idle} layers: "
                    f"{total - len(self.consumed)} nodes unmapped, "
                    f"{len(self.deferred_edges)} edges deferred "
                    f"(virtual hardware too small?)"
                )
            self._account_memory()
            if self._refresh_due():
                self._run_refresh()
        return MappingResult(
            ir=self.ir,
            demands=self._derive_demands(),
            layer_count=self.layer + 1,
            refresh_layer_count=self.refresh_layers,
            peak_memory_bytes=self.peak_memory,
            retrievals=self.retrievals,
            deferred_edge_realizations=self.deferred_realized,
            ancilla_cells=self.ancilla_cells,
        )

    def _derive_demands(self) -> list[LayerDemand]:
        """Per-layer time-like connection demands, read off the final IR.

        Cross-layer connections also carry their layer gaps so the online
        pass can enforce the delay-line photon lifetime.
        """
        adjacent = [0] * (self.layer + 1)
        cross_gaps: list[list[int]] = [[] for _ in range(self.layer + 1)]
        for earlier, later in self.ir.temporal_edges():
            gap = later[2] - earlier[2]
            if gap == 1:
                adjacent[later[2]] += 1
            else:
                cross_gaps[later[2]].append(gap)
        return [
            LayerDemand(
                adjacent_connections=adjacent[index],
                cross_connections=len(cross_gaps[index]),
                cross_gaps=tuple(cross_gaps[index]),
            )
            for index in range(self.layer + 1)
        ]

    def _memory_dirty(self) -> bool:
        """Whether any stored node still owes edges."""
        return any(entry.pending for entry in self.memory.values())

    # -- incremental state ----------------------------------------------

    def _consume(self, g_node: int) -> None:
        """Mark ``g_node`` mapped and update the scheduler's counters."""
        self.consumed.add(g_node)
        self.ready.discard(g_node)
        unmet = self.unmet
        for later in self.dag.successors(g_node):
            unmet[later] -= 1
            if not unmet[later]:
                self.ready.add(later)
        mapped_neighbors = self.mapped_neighbors
        for nb in self.graph.neighbors(g_node):
            mapped_neighbors[nb] += 1

    def _store(self, entry: MemoryEntry) -> None:
        self.memory[entry.g_node] = entry
        self.home_count[entry.home] = self.home_count.get(entry.home, 0) + 1
        self.stored_layer_sum += entry.stored_layer

    def _forget(self, g_node: int) -> None:
        entry = self.memory.pop(g_node)
        self._leave_home(entry.home)
        self.stored_layer_sum -= entry.stored_layer

    def _leave_home(self, home: Coord2D) -> None:
        count = self.home_count[home] - 1
        if count:
            self.home_count[home] = count
        else:
            del self.home_count[home]

    def _retrieve(self, entry: MemoryEntry) -> None:
        """Bring a stored wire onto this layer at its home and re-store it."""
        coord = (entry.home[0], entry.home[1], self.layer)
        self.ir.add_node(coord, ROLE_WORLDLINE, entry.g_node)
        self.ir.add_temporal_edge(entry.last_coord, coord)
        self.retrievals += 1
        self.stored_layer_sum += self.layer - entry.stored_layer
        entry.last_coord = coord
        entry.stored_layer = self.layer

    def _retire(self, a: int, b: int) -> None:
        """Drop the realized edge (a, b) from both nodes' pending sets."""
        for node, other in ((a, b), (b, a)):
            entry = self.memory.get(node)
            if entry is not None:
                entry.pending.discard(other)
                if not entry.pending:
                    self._forget(node)

    def _lay_wire(self, grid: LayerGrid, start: Coord2D, wire: list[Coord2D]) -> Coord2D:
        """Turn ``wire`` into a chain of ancillas joined to ``start``.

        Returns the wire's last cell (``start`` for an empty wire); the
        caller joins it to the far endpoint.
        """
        layer = self.layer
        previous = start
        for step in wire:
            grid.occupy(step, "ancilla")
            coord = (step[0], step[1], layer)
            self.ir.add_node(coord, ROLE_ANCILLA, None)
            self.ir.add_spatial_edge((previous[0], previous[1], layer), coord)
            previous = step
        self.ancilla_cells += len(wire)
        return previous

    # -- per-layer mapping ------------------------------------------------

    def _map_one_layer(self) -> bool:
        self.layer += 1
        self.layers_since_refresh += 1
        grid = LayerGrid(self.mapper.width)
        placed_here: dict[int, Coord2D] = {}  # g_node -> cell (residents + worldlines)
        incomplete_here = 0
        progress = False
        limit = max(1, int(self.mapper.occupancy_limit * self.mapper.width**2))

        # Phase 1: realize deferred edges between stored worldlines first —
        # retiring memory takes precedence over growing it, which keeps the
        # live population (and therefore refresh cost) bounded.
        deferred = self.deferred_edges
        memory = self.memory
        busy = grid.cells
        for key in sorted(deferred):
            u, v = deferred[key]
            # Most edges wait on a busy home cell; check that here, u fully
            # before v, so an untracked endpoint still raises.
            for node in (u, v):
                if node in placed_here:
                    continue
                entry = memory.get(node)
                if entry is None:
                    raise MappingError(f"deferred edge endpoint {node} untracked")
                if entry.home in busy:
                    break
            else:
                if self._realize_deferred(u, v, grid, placed_here):
                    del deferred[key]
                    self.deferred_realized += 1
                    progress = True

        # Phase 2: place new nodes from the scheduler's candidate list.
        for g_node in self._candidates():
            if incomplete_here >= limit:
                break
            pending = self._try_place(g_node, grid, placed_here)
            if pending is None:
                continue
            progress = True
            if pending:
                incomplete_here += 1

        # End of layer: every on-layer node with pending edges is stored.
        self._store_leftovers(placed_here)
        return progress

    def _candidates(self) -> list[int]:
        if self._static_order is not None:
            # Static partition (the OneQ inheritance): the fixed topological
            # order, no priority reshuffling as the mapping evolves.
            return [node for node in self._static_order if node in self.ready]
        # The front layer, nodes with more already-mapped neighbours first
        # (ties by id): they retire pending edges (and therefore memory)
        # fastest.
        mapped_neighbors = self.mapped_neighbors
        return sorted(self.ready, key=lambda node: (-mapped_neighbors[node], node))

    # -- placement --------------------------------------------------------

    def _try_place(
        self,
        g_node: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> set[int] | None:
        """Attempt to place ``g_node`` and realize what edges it can.

        A node realizes at most four edges on its own layer (its cell has
        four sides); edges to mapped neighbours that cannot be routed now are
        deferred to later layers, where both worldlines meet (Phase 2).
        Returns the node's unrealized-neighbour set on success (may be
        empty), ``None`` if no cell was available this layer.
        """
        neighbors = self.graph.neighbors(g_node)
        mapped_neighbors = [nb for nb in neighbors if nb in self.consumed]

        anchors: list[Coord2D] = []
        for nb in mapped_neighbors:
            if nb in placed_here:
                anchors.append(placed_here[nb])
            elif nb in self.memory:
                anchors.append(self.memory[nb].home)
            else:
                raise MappingError(
                    f"neighbour {nb} of {g_node} is mapped but untracked"
                )

        # Prefer cells that are nobody's home (a node may later need to
        # retrieve at its home cell on the same layer another node would
        # occupy), then cells that at least aren't a direct neighbour's home,
        # then any free cell — placement must not deadlock, since edges can
        # always be realized later through worldline meetings.  Ties go to
        # the first cell in row-major order.
        def distance(c: Coord2D) -> int:
            return sum(abs(c[0] - a[0]) + abs(c[1] - a[1]) for a in anchors)

        free = grid.free_cells()
        homes = self.home_count
        cell = min((c for c in free if c not in homes), key=distance, default=None)
        if cell is None:
            neighbor_homes = {
                self.memory[nb].home for nb in mapped_neighbors if nb in self.memory
            }
            cell = min(
                (c for c in free if c not in neighbor_homes), key=distance, default=None
            )
        if cell is None:
            cell = min(free, key=distance, default=None)
        if cell is None:
            return None

        grid.occupy(cell, g_node)
        self.ir.add_node((cell[0], cell[1], self.layer), ROLE_GRAPH, g_node)
        self._consume(g_node)
        placed_here[g_node] = cell

        def neighbor_position(nb: int) -> Coord2D:
            return placed_here[nb] if nb in placed_here else self.memory[nb].home

        realized: set[int] = set()
        ordered = sorted(
            mapped_neighbors,
            key=lambda nb: abs(neighbor_position(nb)[0] - cell[0])
            + abs(neighbor_position(nb)[1] - cell[1]),
        )
        for nb in ordered:
            if self._realize_edge(g_node, nb, grid, placed_here):
                realized.add(nb)

        pending = set(neighbors) - realized
        if pending:
            self._store(
                MemoryEntry(
                    g_node=g_node,
                    home=cell,
                    last_coord=(cell[0], cell[1], self.layer),
                    stored_layer=self.layer,
                    pending=set(pending),
                )
            )
        return pending

    def _realize_edge(
        self,
        g_node: int,
        nb: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> bool:
        """Route the edge (g_node, nb) on the current layer (one transaction).

        ``g_node`` must be on this layer; ``nb`` is either on this layer or
        retrieved from memory at its home cell.  On failure nothing changes.
        """
        cell = placed_here[g_node]
        retrieved = False
        if nb in placed_here:
            nb_cell = placed_here[nb]
        elif nb in self.memory:
            nb_cell = self.memory[nb].home
            if nb_cell in grid.cells:
                return False
            retrieved = True
        else:
            return False
        if nb_cell == cell:
            return False

        if retrieved:
            grid.occupy(nb_cell, ("worldline", nb))
        wire = route(grid, nb_cell, cell)
        if wire is None:
            if retrieved:
                grid.release(nb_cell)
            return False

        layer = self.layer
        if retrieved:
            self._retrieve(self.memory[nb])
            placed_here[nb] = nb_cell
        end = self._lay_wire(grid, nb_cell, wire)
        self.ir.add_spatial_edge((end[0], end[1], layer), (cell[0], cell[1], layer))
        self._retire(nb, g_node)
        return True

    def _realize_deferred(
        self,
        u: int,
        v: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> bool:
        """Realize a deferred edge by meeting both worldlines on this layer.

        Each endpoint is on this layer already or stored with a free home.
        """
        positions = {
            node: placed_here[node] if node in placed_here else self.memory[node].home
            for node in (u, v)
        }
        if positions[u] == positions[v]:
            # Both wires live at the same coordinate (placed there on
            # different layers).  Relocate one of them to a fresh home so the
            # edge becomes realizable on a later layer.
            mover = u if u in self.memory else v
            return self._relocate_home(mover, grid, placed_here)

        to_retrieve = [node for node in (u, v) if node not in placed_here]
        for node in to_retrieve:
            grid.occupy(positions[node], ("worldline", node))
        wire = route(grid, positions[u], positions[v])
        if wire is None:
            for node in to_retrieve:
                grid.release(positions[node])
            return False

        for node in to_retrieve:
            self._retrieve(self.memory[node])
            placed_here[node] = positions[node]
        end = self._lay_wire(grid, positions[u], wire)
        self.ir.add_spatial_edge(
            (end[0], end[1], self.layer),
            (positions[v][0], positions[v][1], self.layer),
        )
        self._retire(u, v)
        return True

    def _relocate_home(
        self,
        g_node: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> bool:
        """Move a stored node's wire to a fresh home coordinate.

        Retrieves the node at its (colliding) home, extends the wire
        spatially to a free cell, and re-stores it there.  Counts as layer
        progress: the deferred edge becomes realizable once the homes differ.
        The entry is updated in place: its position in the memory's
        insertion order sets the refresh batches.
        """
        entry = self.memory.get(g_node)
        if entry is None or g_node in placed_here:
            return False
        home = entry.home
        if home in grid.cells:
            return False
        # The nearest free cell that is nobody's home (this entry's own home
        # included), ties to the first in row-major order.
        target = min(
            (c for c in grid.free_cells() if c not in self.home_count),
            key=lambda c: abs(c[0] - home[0]) + abs(c[1] - home[1]),
            default=None,
        )
        if target is None:
            return False
        grid.occupy(home, ("worldline", g_node))
        wire = route(grid, home, target)
        if wire is None:
            grid.release(home)
            return False
        grid.occupy(target, ("worldline", g_node))

        self._retrieve(entry)
        end = self._lay_wire(grid, home, wire)
        # The wire's new end arrives spatially (no temporal predecessor) but
        # keeps the program node's identity: it is the same logical wire.
        new_coord = (target[0], target[1], self.layer)
        self.ir.add_node(new_coord, ROLE_WORLDLINE, g_node)
        self.ir.add_spatial_edge((end[0], end[1], self.layer), new_coord)
        self._leave_home(home)
        self.home_count[target] = 1
        entry.home = target
        entry.last_coord = new_coord
        placed_here[g_node] = target
        return True

    def _store_leftovers(self, placed_here: dict[int, Coord2D]) -> None:
        """Defer the pending edges of this layer's stored nodes whose other
        endpoint is already mapped but unrouted."""
        deferred = self.deferred_edges
        for g_node in placed_here:
            entry = self.memory.get(g_node)
            if entry is None:
                continue
            for nb in entry.pending:
                if nb in self.consumed:
                    key = (g_node, nb) if g_node < nb else (nb, g_node)
                    if key not in deferred:
                        deferred[key] = tuple(frozenset((g_node, nb)))

    # -- memory accounting and refresh ---------------------------------

    def _account_memory(self) -> None:
        # sum(layer - stored_layer + 1) over the memory, kept as a running sum.
        used = self.mapper.bytes_per_node_layer * (
            len(self.memory) * (self.layer + 1) - self.stored_layer_sum
        )
        self.peak_memory = max(self.peak_memory, used)
        budget = self.mapper.memory_budget_bytes
        if budget is not None and used > budget:
            raise MemoryBudgetExceeded(used, budget)

    def _refresh_due(self) -> bool:
        return (
            self.mapper.refresh_every is not None
            and self.layers_since_refresh >= self.mapper.refresh_every
            and bool(self.memory)
        )

    def _run_refresh(self) -> None:
        """Retrieve and re-store every memory entry across dedicated layers.

        Each refresh layer retrieves a batch of entries (at their distinct
        home cells) and stores them again, resetting their accumulated wire
        — the memory-for-#RSL trade of Table 3.
        """
        entries = list(self.memory.values())
        batch_capacity = max(1, self.mapper.width**2)
        index = 0
        while index < len(entries):
            self.layer += 1
            self.refresh_layers += 1
            used_homes: set[Coord2D] = set()
            while index < len(entries) and len(used_homes) < batch_capacity:
                entry = entries[index]
                if entry.home in used_homes:
                    break  # home conflict: push to the next refresh layer
                used_homes.add(entry.home)
                self._retrieve(entry)
                index += 1
        self.layers_since_refresh = 0
