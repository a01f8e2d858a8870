"""Tests for the offline mapper, routing and refresh/memory accounting."""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import route_reference

from repro.circuits import Circuit, make_benchmark, qaoa, qft, vqe
from repro.errors import MappingError, MemoryBudgetExceeded
from repro.ir import InstructionInterpreter, lower_ir
from repro.mbqc import translate_circuit
from repro.offline import LayerGrid, OfflineMapper, route
from repro.offline.mapper import _MapperState
from repro.pipeline.settings import virtual_size_for


class TestLayerGrid:
    def test_occupy_and_free(self):
        grid = LayerGrid(3)
        assert grid.is_free((0, 0))
        grid.occupy((0, 0), "x")
        assert not grid.is_free((0, 0))
        grid.release((0, 0))
        assert grid.is_free((0, 0))

    def test_double_occupy_raises(self):
        grid = LayerGrid(2)
        grid.occupy((0, 0), "a")
        with pytest.raises(ValueError):
            grid.occupy((0, 0), "b")

    def test_nearest_free_prefers_close(self):
        grid = LayerGrid(3)
        cell = grid.nearest_free([(0, 0)])
        assert cell == (0, 0)
        grid.occupy((0, 0), "x")
        assert grid.nearest_free([(0, 0)]) in [(0, 1), (1, 0)]

    def test_nearest_free_no_anchor(self):
        assert LayerGrid(2).nearest_free([]) == (0, 0)

    def test_nearest_free_full_grid(self):
        grid = LayerGrid(2)
        for row in range(2):
            for col in range(2):
                grid.occupy((row, col), "x")
        assert grid.nearest_free([(0, 0)]) is None


class TestRoute:
    def test_adjacent_endpoints_empty_wire(self):
        assert route(LayerGrid(3), (0, 0), (0, 1)) == []

    def test_straight_wire(self):
        wire = route(LayerGrid(4), (0, 0), (0, 3))
        assert wire == [(0, 1), (0, 2)]

    def test_blocked_route_detours(self):
        grid = LayerGrid(3)
        grid.occupy((0, 1), "wall")
        wire = route(grid, (0, 0), (0, 2))
        assert wire is not None
        assert (0, 1) not in wire

    def test_fully_blocked_returns_none(self):
        grid = LayerGrid(3)
        for row in range(3):
            grid.occupy((row, 1), "wall")
        assert route(grid, (0, 0), (0, 2)) is None

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bfs(self, data):
        width = data.draw(st.integers(2, 6))
        cells = [(row, col) for row in range(width) for col in range(width)]
        grid = LayerGrid(width)
        for cell in data.draw(st.lists(st.sampled_from(cells), unique=True)):
            grid.occupy(cell, "wall")
        start = data.draw(st.sampled_from(cells))
        goal = data.draw(st.sampled_from(cells))
        assert route(grid, start, goal) == route_reference(grid, start, goal)

    def test_wire_cells_are_free_cells(self):
        grid = LayerGrid(5)
        grid.occupy((2, 2), "obstacle")
        wire = route(grid, (0, 0), (4, 4))
        for cell in wire:
            assert grid.is_free(cell)


class TestOfflineMapper:
    def test_parameter_validation(self):
        with pytest.raises(MappingError):
            OfflineMapper(width=1)
        with pytest.raises(MappingError):
            OfflineMapper(width=3, occupancy_limit=0.0)
        with pytest.raises(MappingError):
            OfflineMapper(width=3, refresh_every=0)

    @pytest.mark.parametrize(
        "circuit,width",
        [
            (qaoa(4, seed=1), 2),
            (qft(4), 2),
            (vqe(4, seed=1), 2),
            (make_benchmark("rca", 4), 2),
            (qaoa(9, seed=1), 3),
            (vqe(9, seed=1), 3),
        ],
        ids=["qaoa4", "qft4", "vqe4", "rca4", "qaoa9", "vqe9"],
    )
    def test_mapping_realizes_exact_edge_set(self, circuit, width):
        """The IR's wires realize exactly the program graph state's edges."""
        pattern = translate_circuit(circuit)
        result = OfflineMapper(width=width).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected
        result.ir.validate()

    def test_every_program_node_mapped_once(self):
        pattern = translate_circuit(qaoa(4, seed=2))
        result = OfflineMapper(width=2).map_pattern(pattern)
        placed = result.ir.graph_nodes()
        assert set(placed) == set(pattern.nodes)

    def test_instruction_round_trip(self):
        pattern = translate_circuit(qft(4))
        result = OfflineMapper(width=2).map_pattern(pattern)
        rebuilt = InstructionInterpreter(2).run(lower_ir(result.ir))
        assert rebuilt.structurally_equal(result.ir)

    def test_demands_match_temporal_edges(self):
        pattern = translate_circuit(qaoa(4, seed=0))
        result = OfflineMapper(width=2).map_pattern(pattern)
        total_connections = sum(
            d.adjacent_connections + d.cross_connections for d in result.demands
        )
        assert total_connections == len(result.ir.temporal_edges())
        assert len(result.demands) == result.layer_count

    def test_occupancy_limit_enforced(self):
        """Each layer introduces at most ceil(limit * W^2) incomplete nodes."""
        pattern = translate_circuit(qaoa(9, seed=0))
        width = 4
        limit = max(1, int(0.25 * width * width))
        result = OfflineMapper(width=width, occupancy_limit=0.25).map_pattern(pattern)
        # Count *new graph nodes with pending edges* per layer: bounded by
        # the incomplete-node cap (+1 because the limit is checked before
        # placement).
        by_layer: dict[int, int] = {}
        placed_layer = {g: coord[2] for g, coord in result.ir.graph_nodes().items()}
        for g_node, layer in placed_layer.items():
            neighbors = pattern.graph.neighbors(g_node)
            if any(placed_layer[nb] >= layer for nb in neighbors):
                by_layer[layer] = by_layer.get(layer, 0) + 1
        assert max(by_layer.values()) <= limit + 1

    def test_memory_budget_enforced(self):
        pattern = translate_circuit(qft(9))
        with pytest.raises(MemoryBudgetExceeded):
            OfflineMapper(
                width=3,
                memory_budget_bytes=10 * 2**20,
                bytes_per_node_layer=2**20,
            ).map_pattern(pattern)

    def test_refresh_reduces_peak_memory(self):
        pattern = translate_circuit(qft(9))
        plain = OfflineMapper(width=3, bytes_per_node_layer=2**20).map_pattern(pattern)
        refreshed = OfflineMapper(
            width=3, refresh_every=5, bytes_per_node_layer=2**20
        ).map_pattern(pattern)
        assert refreshed.peak_memory_bytes < plain.peak_memory_bytes
        assert refreshed.layer_count > plain.layer_count  # the #RSL price
        assert refreshed.refresh_layer_count > 0

    def test_refresh_preserves_edge_realization(self):
        pattern = translate_circuit(qaoa(9, seed=3))
        result = OfflineMapper(width=3, refresh_every=4).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected

    def test_dense_program_on_tiny_hardware(self):
        """Worldline meetings + home relocation let even a 2x2 layer host a
        fully-entangled 9-qubit program (many more live wires than cells)."""
        pattern = translate_circuit(vqe(9, seed=0))
        result = OfflineMapper(width=2).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected

    def test_static_scheduling_works_but_differs(self):
        pattern = translate_circuit(qaoa(4, seed=5))
        dynamic = OfflineMapper(width=2).map_pattern(pattern)
        static = OfflineMapper(width=2, dynamic_scheduling=False).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert static.ir.connected_graph_pairs() == expected
        assert dynamic.ir.connected_graph_pairs() == expected

    def test_wider_hardware_fewer_layers(self):
        pattern = translate_circuit(qft(9))
        narrow = OfflineMapper(width=3).map_pattern(pattern)
        wide = OfflineMapper(width=6).map_pattern(pattern)
        assert wide.layer_count < narrow.layer_count

    def test_single_wire_program(self):
        circuit = Circuit(1)
        for _ in range(4):
            circuit.j(0.3, 0)
        pattern = translate_circuit(circuit)
        result = OfflineMapper(width=2).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected


# ---------------------------------------------------------------------------
# Pinned output: sha256 digests of the mapper's full canonical output.
# ---------------------------------------------------------------------------


def _canonical_mapping(pattern, **kwargs) -> dict:
    """Everything the mapper produces, in a JSON-stable form: IR nodes in
    insertion order (role, program node, temporal links), sorted spatial
    edges, per-layer demands and every counter — or the raised error."""
    try:
        result = OfflineMapper(**kwargs).map_pattern(pattern)
    except MappingError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "nodes": [
            [coord, node.role, node.g_node, node.temporal_prev, node.temporal_next]
            for coord, node in result.ir.nodes.items()
        ],
        "spatial": sorted(sorted(edge) for edge in result.ir.spatial_edges),
        "demands": [
            [d.adjacent_connections, d.cross_connections, list(d.cross_gaps)]
            for d in result.demands
        ],
        "counters": [
            result.layer_count,
            result.refresh_layer_count,
            result.peak_memory_bytes,
            result.retrievals,
            result.deferred_edge_realizations,
            result.ancilla_cells,
        ],
    }


def _pinned_configs() -> dict[str, tuple[str, int, dict]]:
    configs = {}
    for family in ("qaoa", "qft", "rca", "vqe"):
        for qubits in (9, 16, 25):
            width = virtual_size_for(qubits)
            for refresh in (None, 10):
                configs[f"{family}{qubits}-refresh{refresh}"] = (
                    family, qubits, {"width": width, "refresh_every": refresh}
                )
    # Trips mid-run: qft-16 peaks at ~3 GiB unrefreshed.
    configs["qft16-budget"] = ("qft", 16, {"width": 4, "memory_budget_bytes": 2 * 2**30})
    configs["qaoa16-static"] = ("qaoa", 16, {"width": 4, "dynamic_scheduling": False})
    configs["vqe16-narrow"] = ("vqe", 16, {"width": 3, "occupancy_limit": 0.5})
    return configs


MAPPING_DIGESTS = {
    "qaoa16-refresh10": "5c20351a51a4f92f2ebd1e035458d0d4e21e7502852603dfe7c7b7c8de334309",
    "qaoa16-refreshNone": "a1672904967143e97c666e8b9bbe4f306f14cd379380db455a23e31fee771692",
    "qaoa16-static": "a4156e4f096d3d04cf59fcab00eddfa718fc339901fa9481c31d2e2064389fd2",
    "qaoa25-refresh10": "93f4591ba4e27272bcffb2e8aa6a0aa7da21e43a9d41a657c714bf304634e307",
    "qaoa25-refreshNone": "8aef598bef2caaa25483e07db07444191bb00a9c628f702f2a825b4779daf3e8",
    "qaoa9-refresh10": "fb291cd5822ee7909692f0519f933850dfa9ad9ddfafe4fd7c56f5d48ab35d26",
    "qaoa9-refreshNone": "9d751563ffad7a5217c51a0bff519c1fcfc74bd6218407988eff6ecba2975a66",
    "qft16-budget": "24782165e6a905b44178b8ea2ab5cfd9e4aaccaf40f4a7e308eddc3b0900d8c9",
    "qft16-refresh10": "87533940bc527ae2a6ab0343db9e7899acc5f11c9badd892e9fdbff8de4f91e8",
    "qft16-refreshNone": "b1c9d6c4e34627bf29d86ccf4c5c44542fa84aa2647fddba415f0bfd4baacdf0",
    "qft25-refresh10": "c4e09791095318919e557ed3af74f19c3001a49bd48f2e05e5d94a08d8ea6789",
    "qft25-refreshNone": "22482569d74470c69e4729081c6abd819c2fddede9d9ad781be6a73c4f14fee0",
    "qft9-refresh10": "654fc7996a5449f98e14b3213ff7ce9fbd2d407fce469d169ac5eff62d96a577",
    "qft9-refreshNone": "285a23bfa454cd999eb8359a9ea50712b4f5f8c8f3a97fc697d31032fcd816f7",
    "rca16-refresh10": "25a9b1c57d89b903b17b69a21cf915f3e430e118b8160680f289fb67cf5c6705",
    "rca16-refreshNone": "29e60e45fbbd1d01cf0834c94ed7440c1ba44ea9103c654272a8d1599f5959c5",
    "rca25-refresh10": "1e840ece19b6f9db7406e4f0381e83ccfa5347b1c0ad2e91cc500ee11e914176",
    "rca25-refreshNone": "a9b8afec7864fba6e1863d6ab1213426a48acdfcda9094c7e068aad6510b7d17",
    "rca9-refresh10": "15d6488f5b2753ac50a460b2d1e648e7f2626dbdde28207f2ce56f30c078ca9e",
    "rca9-refreshNone": "d7d6e22c83c7518eb8e64b281fc5bab6ccfdceb1436f2ea64f593ef01d2dc9c3",
    "vqe16-narrow": "24db5c9d10f671893b871edbc46fdde57259e4056a8da4e364b4e1a673401250",
    "vqe16-refresh10": "6f5d3e1c45fa873e6300c928687ede01faa4cf06a0f06a384ec768333337e6d1",
    "vqe16-refreshNone": "01b0cba68aac50d51ef318a1dd308d4b9b41bbd2131d6c4aae7af895d79b94f5",
    "vqe25-refresh10": "5c7371cd5eeb661fd63d1bcd4047dc1b2fe5eaba72b2b54d56d85be2c0adb321",
    "vqe25-refreshNone": "8ad2894eb42c1db494b91713da5d3b68a786a1dcb422ff7e1e944282bc07ce03",
    "vqe9-refresh10": "374df044212fd6e0f9187c6923b53edea0de5fe16622e4fcfee300dde8f3b1fc",
    "vqe9-refreshNone": "94d143300bdd9a422f427c48c0c9d1e2277f1d3b3a0d80987fdb6238e99c2676",
}


@pytest.mark.parametrize("name", sorted(_pinned_configs()))
def test_mapping_output_pinned(name):
    """The mapper's full output is pinned byte for byte: any change to the
    IR, the demands, a counter or a raised error shows up here."""
    family, qubits, kwargs = _pinned_configs()[name]
    pattern = translate_circuit(make_benchmark(family, qubits, seed=0))
    dump = json.dumps(_canonical_mapping(pattern, **kwargs), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == MAPPING_DIGESTS[name]


# ---------------------------------------------------------------------------
# The mapper's incremental state against its from-scratch definitions.
# ---------------------------------------------------------------------------


class _CheckedState(_MapperState):
    """A mapping run that recomputes every piece of incremental state from
    its definition after each layer and refresh, and compares."""

    def _map_one_layer(self) -> bool:
        progress = super()._map_one_layer()
        self.check()
        return progress

    def _run_refresh(self) -> None:
        super()._run_refresh()
        self.check()

    def check(self) -> None:
        assert sorted(self.ready) == self.dag.front_layer(self.consumed)
        for node in self.pattern.nodes:
            recount = sum(1 for nb in self.graph.neighbors(node) if nb in self.consumed)
            assert self.mapped_neighbors[node] == recount
        assert self.home_count == Counter(entry.home for entry in self.memory.values())
        running = len(self.memory) * (self.layer + 1) - self.stored_layer_sum
        assert running == sum(
            self.layer - entry.stored_layer + 1 for entry in self.memory.values()
        )
        for key, (u, v) in self.deferred_edges.items():
            assert key == (min(u, v), max(u, v))


@st.composite
def _mapping_cases(draw):
    """A small random {J, CZ} circuit and mapper settings to map it with."""
    num_qubits = draw(st.integers(2, 5))
    circuit = Circuit(num_qubits, name="hyp")
    for _ in range(draw(st.integers(1, 24))):
        a = draw(st.integers(0, num_qubits - 1))
        b = draw(st.integers(0, num_qubits - 1))
        if a == b:
            circuit.j(draw(st.sampled_from((0.0, 0.5, 1.0))), a)
        else:
            circuit.cz(a, b)
    settings_ = {
        "width": draw(st.integers(2, 4)),
        "occupancy_limit": draw(st.sampled_from((0.25, 0.5, 1.0))),
        "refresh_every": draw(st.sampled_from((None, 1, 3, 6))),
        "dynamic_scheduling": draw(st.booleans()),
        "bytes_per_node_layer": 1,
    }
    return circuit, settings_


@given(_mapping_cases())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_state_matches_definitions(case):
    circuit, kwargs = case
    pattern = translate_circuit(circuit)
    result = _CheckedState(OfflineMapper(**kwargs), pattern).run()
    expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
    assert result.ir.connected_graph_pairs() == expected


def test_untracked_deferred_endpoint_raises():
    """A deferred edge whose endpoint is neither on the layer nor in memory
    is a bookkeeping bug, reported rather than skipped."""
    state = _MapperState(OfflineMapper(width=2), translate_circuit(qft(4)))
    state.deferred_edges[(0, 1)] = (0, 1)
    with pytest.raises(MappingError, match="deferred edge endpoint 0 untracked"):
        state._map_one_layer()
