"""Property tests of the renormalization carving invariants, the vectorized
strip pre-check against its scalar DSU oracle, and the vectorized wavefront
path search against the scalar deque-BFS oracle."""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array
from oracles import find_path_reference, frontier_bfs_reference, strip_spans_dsu

import repro
from repro.online import percolation, renormalize, sample_lattice
from repro.online.renormalize import _Carver, _intersections, strip_spans

#: The product path search and its deque-BFS reference model.
PATH_SEARCHES = (_Carver.find_path, find_path_reference)


@st.composite
def carving_cases(draw):
    size = draw(st.integers(8, 28))
    target = draw(st.integers(1, max(1, size // 6)))
    probability = draw(st.sampled_from([0.6, 0.72, 0.85, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    return size, target, probability, seed


@given(carving_cases())
@settings(max_examples=40, deadline=None)
def test_same_orientation_paths_are_disjoint(case):
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    for paths in (result.vertical_paths, result.horizontal_paths):
        seen: set = set()
        for path in paths:
            assert not (seen & set(path)), "parallel paths must not share sites"
            seen |= set(path)


@given(carving_cases())
@settings(max_examples=40, deadline=None)
def test_paths_are_connected_walks(case):
    size, target, probability, seed = case
    snapshot = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(snapshot.copy(), target)
    for path in result.vertical_paths + result.horizontal_paths:
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert snapshot.has_bond(a, b)


@given(carving_cases())
@settings(max_examples=40, deadline=None)
def test_success_implies_complete_node_grid(case):
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    if result.success:
        assert len(result.node_sites) == target * target
        assert len(result.vertical_paths) == target
        assert len(result.horizontal_paths) == target
        for (v_index, h_index), coord in result.node_sites.items():
            assert coord in result.vertical_paths[v_index]
            assert coord in result.horizontal_paths[h_index]
    else:
        assert result.lattice_size < target


@given(carving_cases())
@settings(max_examples=30, deadline=None)
def test_paths_confined_to_their_strips(case):
    """Strip confinement is the tangling guard: every vertical path stays in
    its column strip, every horizontal path in its row band."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)

    def strip_range(index: int) -> tuple[int, int]:
        return (index * size) // target, ((index + 1) * size) // target

    for index, path in enumerate(result.vertical_paths):
        low, high = strip_range(index)
        assert all(low <= col < high for _row, col in path)
    for index, path in enumerate(result.horizontal_paths):
        low, high = strip_range(index)
        assert all(low <= row < high for row, _col in path)


@st.composite
def strip_cases(draw):
    """Randomized lattices with site loss, plus a strip partition to check.

    Loss rate 0 exercises full lattices; rates near 1 produce effectively
    empty strips; tiny sizes produce width-1 and single-row degenerates.
    """
    size = draw(st.integers(1, 26))
    bond_probability = draw(st.floats(0.0, 1.0))
    loss = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.97]))
    count = draw(st.integers(1, size))
    seed = draw(st.integers(0, 2**31 - 1))
    return size, bond_probability, loss, count, seed


def _lattice_with_loss(size, bond_probability, loss, seed):
    rng = np.random.default_rng(seed)
    alive = rng.random((size, size)) >= loss
    return sample_lattice(size, bond_probability, rng, site_alive=alive)


@given(strip_cases())
@settings(max_examples=60, deadline=None)
def test_vectorized_precheck_matches_dsu_oracle(case):
    """The numpy label-propagation pre-check and the scalar union-find must
    answer identically for every strip/band of every lattice."""
    size, bond_probability, loss, count, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    for vertical in (True, False):
        for index in range(count):
            low = (index * size) // count
            high = ((index + 1) * size) // count
            assert strip_spans(lattice, vertical, low, high) == strip_spans_dsu(
                lattice, vertical, low, high
            ), (size, vertical, low, high)


def test_precheck_degenerate_strips():
    """Hand-picked degenerates: empty width, fully dead, fully alive."""
    full = sample_lattice(6, 1.0, rng=np.random.default_rng(0))
    for vertical in (True, False):
        assert strip_spans(full, vertical, 0, 6) is True
        assert strip_spans(full, vertical, 2, 3) is True  # width-1 strip
        # Empty range: both implementations report "no path".
        assert strip_spans(full, vertical, 3, 3) is False
        assert strip_spans_dsu(full, vertical, 3, 3) is False
    dead = sample_lattice(
        5, 1.0, rng=np.random.default_rng(0), site_alive=np.zeros((5, 5), dtype=bool)
    )
    for vertical in (True, False):
        assert strip_spans(dead, vertical, 0, 5) is False
        assert strip_spans_dsu(dead, vertical, 0, 5) is False
    single = sample_lattice(1, 0.5, rng=np.random.default_rng(1))
    assert strip_spans(single, True, 0, 1) is strip_spans_dsu(single, True, 0, 1) is True


@given(carving_cases())
@settings(max_examples=25, deadline=None)
def test_full_renormalize_identical_for_either_precheck(case):
    """Patching the DSU reference model in for the pre-check must not perturb
    *anything*: success, paths, node grid, and the Fig. 14 visited-sites
    cost proxy."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    fast = renormalize(lattice.copy(), target)
    with patch("repro.online.renormalize.strip_spans", strip_spans_dsu):
        slow = renormalize(lattice.copy(), target)
    assert fast.success == slow.success
    assert fast.lattice_size == slow.lattice_size
    assert fast.visited_sites == slow.visited_sites
    assert fast.node_sites == slow.node_sites
    assert fast.vertical_paths == slow.vertical_paths
    assert fast.horizontal_paths == slow.horizontal_paths


def _result_tuple(result):
    """The full deterministic portion of a RenormalizationResult."""
    return (
        result.success,
        result.target_size,
        result.lattice_size,
        result.visited_sites,
        result.node_sites,
        result.vertical_paths,
        result.horizontal_paths,
    )


@st.composite
def pathfind_cases(draw):
    """Randomized lattices (with loss), targets, and work budgets.

    Sizes start at 1 to cover the degenerate single-row/owned-lane start
    branches; the optional budget exercises mid-carve truncation, whose
    cut point depends on exact visited-site accounting.  Lossy lattices
    just above the bond threshold (p 0.45-0.6) make strips that do not
    span, where the vector search fails first and the deferred pre-check
    decides the visited-site charge.
    """
    size = draw(st.integers(1, 24))
    target = draw(st.integers(1, size))
    bond_probability = draw(
        st.one_of(st.sampled_from([0.5, 0.6, 0.72, 0.85, 1.0]), st.floats(0.45, 0.6))
    )
    loss = draw(st.sampled_from([0.0, 0.0, 0.05, 0.15, 0.3]))
    budget = draw(st.one_of(st.none(), st.integers(1, 4 * size * size)))
    seed = draw(st.integers(0, 2**31 - 1))
    return size, target, bond_probability, loss, budget, seed


@given(pathfind_cases())
@settings(max_examples=100, deadline=None)
def test_pathfind_precheck_sweep_full_result_identity(case):
    """Every path-search x pre-check combination must agree on *everything*:
    success, paths, node grid, visited-site count, and where a work budget
    truncates the carve.  Each combination patches the reference models in
    for :meth:`_Carver.find_path` and :func:`strip_spans`."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    reference = None
    for search in PATH_SEARCHES:
        for precheck in (strip_spans, strip_spans_dsu):
            with (
                patch.object(_Carver, "find_path", search),
                patch("repro.online.renormalize.strip_spans", precheck),
            ):
                result = renormalize(lattice.copy(), target, work_budget=budget)
            if reference is None:
                reference = _result_tuple(result)
            else:
                assert _result_tuple(result) == reference, (
                    search.__name__,
                    precheck.__name__,
                )


def test_far_edge_crossing_ends_on_perpendicular_path():
    """The last horizontal path may end on a site of the last vertical path
    at the far edge.  Here the only vertical bonds run down column 2, so the
    vertical path claims all of it, and every horizontal route ends by
    stepping onto that claimed column: the far-edge crossing is the only
    way across, for both path searches."""
    sites = np.ones((3, 3), dtype=bool)
    horizontal = np.ones((3, 2), dtype=bool)
    vertical = np.zeros((2, 3), dtype=bool)
    vertical[:, 2] = True
    lattice = percolation.PercolatedLattice(sites, horizontal, vertical)
    results = []
    for search in PATH_SEARCHES:
        with patch.object(_Carver, "find_path", search):
            results.append(_result_tuple(renormalize(lattice.copy(), 1)))
    assert results[0] == results[1]
    result = renormalize(lattice.copy(), 1)
    assert result.success
    assert result.vertical_paths == [[(0, 2), (1, 2), (2, 2)]]
    assert result.horizontal_paths == [[(0, 0), (0, 1), (0, 2)]]


@given(pathfind_cases())
@settings(max_examples=20, deadline=None)
def test_pure_python_frontier_engine_is_identical(case):
    """The pure-python reference BFS, patched in for scipy's in both the path
    search and the strip pre-check, must reproduce the compiled engine's
    results byte-for-byte."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    compiled = renormalize(lattice.copy(), target, work_budget=budget)
    with (
        patch("repro.online.renormalize.frontier_bfs", frontier_bfs_reference),
        patch("repro.online.percolation.frontier_bfs", frontier_bfs_reference),
    ):
        reference = renormalize(lattice.copy(), target, work_budget=budget)
    assert _result_tuple(reference) == _result_tuple(compiled)


def test_scipy_stays_out_of_import_time():
    """scipy is required but imported on the first search: importing the
    experiments package must not pay for ``scipy.sparse``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, repro.experiments; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def frontier_adjacency(sources, targets, node_count):
    """Compacted CSR graph from directed edge lists.

    The stable sort keeps each node's out-edges in the order they appear in
    ``sources``/``targets`` — the tie-break order :func:`frontier_bfs`
    walks.  The product builds fixed-degree template graphs instead
    (:func:`percolation.frontier_graph`); this is the reference layout
    the template's self-loop padding is checked against.
    """
    order = np.argsort(sources, kind="stable")
    indices = targets[order].astype(np.int32, copy=False)
    indptr = np.zeros(node_count + 1, dtype=np.int32)
    np.cumsum(np.bincount(sources, minlength=node_count), out=indptr[1:])
    return csr_array(
        (np.ones(indices.size), indices, indptr), shape=(node_count, node_count)
    )


@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_frontier_bfs_engines_agree_on_random_graphs(seed, nodes, degree):
    """scipy's breadth_first_order and the pure-python reference must emit
    the same pop order and the same first-discoverer predecessors — the
    tie-break contract the path search's byte-identity rests on."""
    rng = np.random.default_rng(seed)
    edge_count = int(degree * nodes)
    sources = rng.integers(0, nodes, edge_count)
    targets = rng.integers(0, nodes, edge_count)
    graph = frontier_adjacency(sources, targets, nodes)
    source = int(rng.integers(0, nodes))
    python_order, python_pred = frontier_bfs_reference(graph, source)
    order, pred = percolation.frontier_bfs(graph, source)
    assert np.array_equal(order, python_order)
    assert np.array_equal(pred, python_pred)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 7),
    st.integers(1, 7),
    st.floats(0.0, 1.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_template_self_loops_match_compacted_csr(seed, rows, cols, density, by_rows):
    """A fixed-degree template graph whose unused slots are self-loops must
    traverse exactly like the compacted CSR of its live edges: same pop
    order, same predecessors, on scipy and on the reference BFS.  This is the
    contract the path search's per-query slot codes rely on."""
    rng = np.random.default_rng(seed)
    total = rows * cols
    # Random slot codes (0 unused, 1 or 2 cells along the move), kept only
    # where the target stays on the grid.
    codes = rng.choice(
        3, size=(rows, cols, len(percolation.FRONTIER_MOVES)),
        p=[1 - density, density / 2, density / 2],
    )
    grid_rows, grid_cols = np.indices((rows, cols))
    for slot, (d_row, d_col) in enumerate(percolation.FRONTIER_MOVES):
        target_rows = grid_rows + codes[:, :, slot] * d_row
        target_cols = grid_cols + codes[:, :, slot] * d_col
        off_grid = (
            (target_rows < 0) | (target_rows >= rows)
            | (target_cols < 0) | (target_cols >= cols)
        )
        codes[:, :, slot][off_grid] = 0
    lanes = np.arange(0, total, cols) if by_rows else np.arange(cols)
    graph = percolation.frontier_graph(rows, cols, lanes.size)
    percolation.fill_frontier(
        graph, codes.astype(np.uint8), np.where(rng.random(lanes.size) < density, lanes, total)
    )
    # The same graph, compacted: drop every self-loop, keep slot order.
    owners = np.repeat(np.arange(total + 1), np.diff(graph.indptr))
    live = graph.indices != owners
    compact = frontier_adjacency(owners[live], graph.indices[live], total + 1)
    for bfs in (percolation.frontier_bfs, frontier_bfs_reference):
        template_run = bfs(graph, total)
        compact_run = bfs(compact, total)
        assert np.array_equal(template_run[0], compact_run[0])
        assert np.array_equal(template_run[1], compact_run[1])


def _flat(paths):
    """Coordinate-list paths as the flat ``(rows, cols)`` arrays the carver
    keeps."""
    return [tuple(np.array(path).T) for path in paths]


def _intersections_quadratic(vertical_paths, horizontal_paths):
    """The pre-optimization reference: rescan every horizontal path against
    every vertical path's site set."""
    nodes = {}
    vertical_sets = [set(path) for path in vertical_paths]
    for h_index, h_path in enumerate(horizontal_paths):
        for v_index, v_sites in enumerate(vertical_sets):
            for coord in h_path:
                if coord in v_sites:
                    nodes[(v_index, h_index)] = coord
                    break
    return nodes


@given(carving_cases())
@settings(max_examples=25, deadline=None)
def test_intersections_map_matches_quadratic_reference(case):
    """The coord->v_index intersection map must pin the exact node_sites of
    the old quadratic scan — values *and* insertion order."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    expected = _intersections_quadratic(
        result.vertical_paths, result.horizontal_paths
    )
    actual = _intersections(
        size, _flat(result.vertical_paths), _flat(result.horizontal_paths)
    )
    assert actual == expected
    assert list(actual) == list(expected)


def test_intersections_first_site_along_horizontal_path():
    """"First shared site" means first along the *horizontal* path, even
    when that path walks high-index verticals before low-index ones."""
    v0 = [(0, 1), (1, 1), (2, 1)]
    v1 = [(0, 3), (1, 3), (2, 3)]
    h0 = [(1, 4), (1, 3), (1, 2), (1, 1)]  # meets v1 before v0
    nodes = _intersections(5, _flat([v0, v1]), _flat([h0]))
    assert nodes == {(0, 0): (1, 1), (1, 0): (1, 3)}
    assert list(nodes) == [(0, 0), (1, 0)]


@given(carving_cases())
@settings(max_examples=30, deadline=None)
def test_visited_work_scales_with_lattice(case):
    """The Fig. 14 cost proxy is positive and bounded by a small multiple of
    the lattice area (the O(N^2) claim of Section 5.1)."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    assert result.visited_sites > 0
    assert result.visited_sites <= 6 * size * size * max(1, target)
