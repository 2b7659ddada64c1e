import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowspace.graph
from conftest import (
    bfs_oracle,
    connected_graphs,
    diameter_oracle,
    every_graph,
    graphs,
    multiplicities,
    oracle_geodesic,
)
from rowspace.families import build, petersen
from rowspace.graph import (
    Graph,
    _component,
    diameter,
    diametral_geodesic,
    duplicate_vertex,
    find_adjacent_disjoint_pair,
    induced_subgraph,
    is_reduced,
    iter_bits,
    multiply_vertices,
)
from rowspace.graph6 import parse_graph6, write_graph6
from rowspace.oracle import _connected_graphs, _edge_pairs, iter_connected_graphs


def kneser_petersen() -> Graph:
    # Independent construction: vertices are the 2-subsets of a 5-set,
    # adjacent iff disjoint.
    subsets = list(combinations(range(5), 2))
    edges = [
        (a, b)
        for a, s in enumerate(subsets)
        for b, t in enumerate(subsets)
        if a < b and not set(s) & set(t)
    ]
    return Graph.from_edges(10, edges)


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b01))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bit(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_from_edges_bounds(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    @pytest.mark.parametrize("n, edges", [(3, [(1, 1)]), (3, [(-1, 2)]), (0, [])], ids=str)
    def test_from_edges_rejects(self, n, edges):
        with pytest.raises(ValueError):
            Graph.from_edges(n, edges)


def assert_valid(g: Graph) -> None:
    """g passes the public validator and equals the graph it builds."""
    assert Graph(g.n, g.adj) == g


class TestTrustedBuilders:
    """The builders that skip validation (Graph._trusted) only make graphs
    the validating constructor accepts."""

    def test_every_mask_graph_up_to_six(self):
        yielded = 0
        for n in range(1, 7):
            for g in iter_connected_graphs(n):
                assert_valid(g)
                yielded += 1
        # the connected graphs on 2..6: the generator never yields mask 0,
        # so the single vertex is not among them
        assert yielded == 1 + 4 + 38 + 728 + 26_704

    def test_graph6_round_trip_up_to_five(self):
        for n in range(1, 6):
            for g in every_graph(n):
                h = parse_graph6(write_graph6(g))
                assert_valid(h)
                assert h == g

    @settings(max_examples=100)
    @given(graphs(min_n=1, max_n=10), st.data())
    def test_induced_subgraph(self, g, data):
        vertices = data.draw(st.permutations(range(g.n)))
        k = data.draw(st.integers(1, g.n))
        assert_valid(induced_subgraph(g, vertices[:k]))

    @settings(max_examples=100)
    @given(graphs(min_n=1, max_n=8), st.data())
    def test_multiply_vertices(self, g, data):
        assert_valid(multiply_vertices(g, data.draw(multiplicities(g.n))))


def mask_graphs(n: int, start: int, stop: int) -> list[Graph]:
    """The connected graphs of Graph.from_edges over the pairs of each
    mask in [max(start, 1), stop), connectivity read from the diameter."""
    pairs = _edge_pairs(n)
    out = []
    for mask in range(max(start, 1), stop):
        g = Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
        if diameter(g) is not None:
            out.append(g)
    return out


class TestMaskWalk:
    """The sweep generator walks the edge masks as a binary counter, so a
    chunk is right only if its walk starts from the right adjacency: every
    chunking gives the graphs Graph.from_edges builds, in mask order."""

    def test_every_chunking_up_to_six(self):
        for n in range(1, 7):
            total = 1 << len(_edge_pairs(n))
            expected = mask_graphs(n, 0, total)
            for chunks in (1, 2, 3, 16, 17, 64):
                bounds = [total * k // chunks for k in range(chunks + 1)]
                walked = [
                    g for a, b in zip(bounds, bounds[1:]) for g in _connected_graphs(n, a, b)
                ]
                assert walked == expected, (n, chunks)

    def test_builds_a_graph_for_connected_masks_only(self, monkeypatch):
        # connectivity is read off the adjacency list, and a kept graph
        # comes with its component bitset, every vertex
        trusted = Graph._trusted.__func__
        built = []

        def recording(cls, n, adj):
            built.append(adj)
            return trusted(cls, n, adj)

        monkeypatch.setattr(Graph, "_trusted", classmethod(recording))
        graphs = list(iter_connected_graphs(5))
        assert len(built) == len(graphs) == 728
        assert {g.__dict__["_component"] for g in graphs} == {(1 << 5) - 1}

    def test_seeded_windows_on_seven(self):
        total = 1 << 21
        rng = random.Random(7)
        windows = [(0, 300), (1, 300), (1 << 20, (1 << 20) + 300), (total - 300, total)]
        windows += [(1 << b, (1 << b) + 40) for b in range(1, 21, 3)]
        for _ in range(12):
            start = rng.randrange(total)
            windows.append((start, min(total, start + rng.randrange(1, 300))))
            odd = rng.randrange(1, total, 2)
            windows.append((odd, min(total, odd + rng.randrange(1, 300))))
        for start, stop in windows:
            assert list(_connected_graphs(7, start, stop)) == mask_graphs(7, start, stop), (
                start,
                stop,
            )


def low_bits(mask: int) -> list[int]:
    """The plain low-bit loop that iter_bits must agree with."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class TestIterBits:
    def test_every_mask_below_4096(self):
        for mask in range(1 << 12):
            assert list(iter_bits(mask)) == low_bits(mask), mask

    def test_seeded_masks_up_to_300_bits(self):
        rng = random.Random(300)
        for width in range(1, 301):
            mask = rng.getrandbits(width) | 1 << (width - 1)
            assert list(iter_bits(mask)) == low_bits(mask), mask

    @pytest.mark.parametrize("width", [63, 64, 65, 72])
    def test_widths_at_the_table_edge(self, width):
        # 64 bits is the widest mask read by table, 65 the narrowest read
        # bit by bit
        rng = random.Random(width)
        masks = [(1 << width) - 1, 1 << (width - 1), (1 << (width - 1)) | 1]
        masks += [rng.getrandbits(width) | 1 << (width - 1) for _ in range(50)]
        for mask in masks:
            assert mask.bit_length() == width
            assert list(iter_bits(mask)) == low_bits(mask), mask

    @pytest.mark.parametrize("mask", [1 | 1 << 40, 1 << 63, (1 << 64) - 1, 1 << 64], ids=hex)
    def test_zero_bytes_and_the_edges_of_64_bits(self, mask):
        assert list(iter_bits(mask)) == low_bits(mask)

    def test_at_most_eight_tables_one_at_import(self):
        assert list(iter_bits((1 << 64) - 1)) == list(range(64))
        assert len(rowspace.graph._BYTE_TABLES) == 8
        assert list(iter_bits((1 << 300) - 1)) == list(range(300))
        assert len(rowspace.graph._BYTE_TABLES) == 8
        code = "import rowspace.graph as g; print(len(g._BYTE_TABLES))"
        src = str(Path(rowspace.graph.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "1"

    @pytest.mark.parametrize("mask", [-1, -2, -255, -256, -257, -(1 << 300)])
    def test_negative_mask_raises(self, mask):
        # a negative mask has infinitely many set bits: the low-bit loop
        # never ended on one, and a table would index it from the end
        with pytest.raises(ValueError, match="negative mask"):
            iter_bits(mask)


class TestDegree:
    def test_complete_graph(self):
        g = build("complete", 4)
        assert all(g.degree(v) == 3 for v in range(4))

    def test_star_center(self):
        assert build("star", 4).degree(0) == 4

    def test_petersen_cubic(self):
        g = petersen()
        assert all(g.degree(v) == 3 for v in range(10))
        # cross-check the named constructor against the Kneser construction
        k = kneser_petersen()
        assert sorted(k.degree(v) for v in range(10)) == [3] * 10
        assert k.size == g.size == 15
        assert diameter(k) == diameter(g) == 2
        assert is_reduced(k) and is_reduced(g)


class TestDiameter:
    def test_path(self):
        assert diameter(build("path", 5)) == 4

    def test_single_vertex(self):
        assert diameter(Graph(1, (0,))) == 0

    def test_complete_blowups_have_diameter_two(self):
        for n, m in [(2, (2, 1)), (3, (1, 2, 1)), (4, (2, 2, 2, 2))]:
            assert diameter(multiply_vertices(build("complete", n), m)) == 2

    def test_c5_with_twin_matches_bfs_oracle(self):
        g = build("c5-with-twin")
        assert diameter(g) == diameter_oracle(g)

    def test_disconnected_is_infinite(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert diameter(g) is None

    @settings(max_examples=150)
    @given(graphs(max_n=8))
    def test_matches_oracle(self, g):
        assert diameter(g) == diameter_oracle(g)

    @settings(max_examples=100)
    @given(graphs(min_n=2, max_n=7))
    def test_diameter_one_iff_complete(self, g):
        assert (diameter(g) == 1) == g.is_complete()


class TestDiametralGeodesic:
    def test_path_five(self):
        assert diametral_geodesic(build("path", 5)) == (0, 1, 2, 3, 4)

    def test_nine_cycle_tie_break(self):
        # lexicographically smallest
        assert diametral_geodesic(build("cycle", 9)) == (0, 1, 2, 3, 4)

    def test_complete_single_edge(self):
        assert diametral_geodesic(build("complete", 4)) == (0, 1)

    def test_single_vertex(self):
        assert diametral_geodesic(Graph(1, (0,))) == (0,)

    def test_disconnected_is_none(self):
        assert diametral_geodesic(Graph.from_edges(3, [(0, 1)])) is None
        assert diametral_geodesic(Graph(2, (0, 0))) is None

    @settings(max_examples=100)
    @given(connected_graphs(max_n=7))
    def test_geodesic_is_lex_smallest_shortest_path(self, g):
        assert diametral_geodesic(g) == oracle_geodesic(g)


class TestDistanceDifferential:
    """diameter and diametral_geodesic against the deque-BFS oracle on every
    small graph, not a sample."""

    def test_every_labeled_graph_up_to_five(self):
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
                expected = oracle_geodesic(g)
                assert diametral_geodesic(g) == expected, g
                assert diameter(g) == (None if expected is None else len(expected) - 1), g
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024

    def test_every_connected_graph_on_six(self):
        graphs6 = list(iter_connected_graphs(6))
        assert len(graphs6) == 26_704
        for g in graphs6:
            expected = oracle_geodesic(g)
            assert diametral_geodesic(g) == expected, g
            assert diameter(g) == len(expected) - 1, g


def fresh_component(g: Graph) -> int:
    """The first component with an edge, by deque BFS."""
    first = next(v for v in range(g.n) if g.adj[v])
    return sum(1 << v for v, d in enumerate(bfs_oracle(g, first)) if d != math.inf)


class TestGraphMemo:
    """The geodesic and the first component with an edge are kept on the
    graph; the kept values must be right and must not show anywhere else."""

    def check(self, g: Graph) -> None:
        bare = Graph(g.n, g.adj)
        diameter(g)
        assert diametral_geodesic(g) == oracle_geodesic(g), g
        if g.size:
            assert _component(g) == fresh_component(bare), g
            assert g.__dict__["_component"] == _component(g)
        else:
            with pytest.raises(ValueError, match="at least one edge"):
                _component(g)
        assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
        again = pickle.loads(pickle.dumps(g))
        assert again == bare and hash(again) == hash(bare)

    @pytest.mark.slow
    def test_every_labeled_graph_up_to_six(self):
        checked = 0
        for n in range(1, 7):
            for g in every_graph(n):
                self.check(g)
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024 + 32768

    def test_seeded_graphs_up_to_seventy(self):
        rng = random.Random(70)
        for _ in range(300):
            n = rng.randint(1, 70)
            p = rng.choice((0.02, 0.05, 0.1, 0.3, 0.6))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            self.check(Graph.from_edges(n, edges))

    def test_derived_graphs_compute_their_own(self):
        g = build("cycle", 12)
        assert diametral_geodesic(g) == oracle_geodesic(g) and _component(g)
        sub = induced_subgraph(g, [3, 4, 5, 6, 7])
        blown = multiply_vertices(build("path", 5), [2, 1, 1, 1, 3])
        for h in (sub, blown):
            assert "_geodesic" not in h.__dict__ and "_component" not in h.__dict__
            assert diametral_geodesic(h) == oracle_geodesic(h)
            assert _component(h) == fresh_component(h)
        assert diametral_geodesic(sub) == (0, 1, 2, 3, 4)


class TestDistanceMemory:
    def test_long_path_stays_small(self):
        # A table of balls per round would hold about 36 MB on P600.
        g = build("path", 600)
        tracemalloc.start()
        try:
            diam = diameter(g)
            path = diametral_geodesic(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diam == 599
        assert path == tuple(range(600))
        assert peak < 8 * 1024 * 1024


class TestMultiplyVertices:
    def test_edge_to_star(self):
        g = multiply_vertices(build("complete", 2), (2, 1))
        # clones 0,1 of the first endpoint both join clone 2 of the second
        assert g.adj == (0b100, 0b100, 0b011)

    def test_identity(self):
        g = build("complete", 3)
        assert multiply_vertices(g, (1, 1, 1)) == g

    def test_c5_blowup_keeps_diameter_and_rank(self):
        from rowspace.linalg import adjacency_matrix, rank

        g = multiply_vertices(build("cycle", 5), (2, 2, 2, 1, 1))
        assert g.n == 8
        assert diameter(g) == 2 == diameter(build("cycle", 5))
        assert rank(adjacency_matrix(g)) == 5

    def test_errors(self):
        g = build("cycle", 3)
        with pytest.raises(ValueError):
            multiply_vertices(g, (1, 1))
        with pytest.raises(ValueError):
            multiply_vertices(g, (1, 0, 1))

    @settings(max_examples=100)
    @given(graphs(max_n=5))
    def test_identity_blowup(self, g):
        assert multiply_vertices(g, (1,) * g.n) == g

    @settings(max_examples=100)
    @given(connected_graphs(max_n=5), st.data())
    def test_diameter_preserved_for_non_complete(self, g, data):
        m = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
        blown = multiply_vertices(g, m)
        if g.is_complete():
            expected = 1 if all(k == 1 for k in m) else 2
            assert diameter(blown) == expected
        else:
            assert diameter(blown) == diameter(g)

    @settings(max_examples=100)
    @given(graphs(max_n=5), st.data())
    def test_disjoint_pair_preserved(self, g, data):
        if find_adjacent_disjoint_pair(g) is None:
            return
        m = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
        assert find_adjacent_disjoint_pair(multiply_vertices(g, m)) is not None


class TestDuplicateVertex:
    def test_edge_becomes_path(self):
        g = duplicate_vertex(build("complete", 2), 0)
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_clone_appended_last(self):
        g = build("cycle", 5)
        d = duplicate_vertex(g, 2)
        assert d.n == 6
        assert d.adj[5] == g.adj[2]
        assert not d.has_edge(2, 5)

    def test_matches_blowup_up_to_clone_position(self):
        g = build("cycle", 5)
        v = 2
        d = duplicate_vertex(g, v)
        m = [1] * g.n
        m[v] = 2
        blown = multiply_vertices(g, m)
        # duplicate appends the clone; the blow-up inserts it at v+1
        perm = list(range(v + 1)) + [g.n] + list(range(v + 1, g.n))
        relabeled = induced_subgraph(d, perm)
        assert relabeled == blown

    def test_path_end_duplication_keeps_rank(self):
        from rowspace.linalg import adjacency_matrix, rank

        g = duplicate_vertex(build("path", 4), 3)
        assert rank(adjacency_matrix(g)) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            duplicate_vertex(build("cycle", 3), 3)


class TestAdjacentDisjointPair:
    def test_pendant_pair_first(self):
        assert find_adjacent_disjoint_pair(build("path", 5)) == (0, 1)

    def test_triangle_has_none(self):
        assert find_adjacent_disjoint_pair(build("complete", 3)) is None

    def test_five_cycle(self):
        assert find_adjacent_disjoint_pair(build("cycle", 5)) == (0, 1)

    def test_scan_order_is_lexicographic(self):
        # two disjoint pendant pairs; (0, 1) shares nothing and comes first
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert find_adjacent_disjoint_pair(g) == (0, 1)

    @settings(max_examples=100)
    @given(graphs(max_n=7))
    def test_returned_pair_is_valid(self, g):
        pair = find_adjacent_disjoint_pair(g)
        if pair is not None:
            i, j = pair
            assert g.has_edge(i, j)
            assert g.adj[i] & g.adj[j] == 0


class TestPredicates:
    def test_dominating(self):
        star, cycle, wheel = build("star", 4), build("cycle", 5), build("wheel", 9)
        assert star.degree(0) == star.n - 1
        assert not any(cycle.degree(v) == cycle.n - 1 for v in range(5))
        assert wheel.degree(0) == wheel.n - 1

    def test_reduced(self):
        assert is_reduced(build("cycle", 5))
        assert not is_reduced(multiply_vertices(build("complete", 2), (2, 1)))
        g = petersen()
        assert is_reduced(g)
        # oracle: explicit pairwise neighborhood comparison
        assert all(g.adj[u] != g.adj[v] for u in range(10) for v in range(u + 1, 10))


class TestComponents:
    def test_induced_subgraph(self):
        g = build("cycle", 5)
        sub = induced_subgraph(g, [1, 2, 3])
        assert sub == build("path", 3)

    def test_induced_subgraph_rejects_no_vertices(self):
        with pytest.raises(ValueError):
            induced_subgraph(build("path", 4), [])

    @pytest.mark.parametrize("vertices", [[-1, 3], [-1, 2], [0, 7]], ids=str)
    def test_induced_subgraph_rejects_out_of_range(self, vertices):
        # [-1, 3] named vertex 3 twice past the duplicate check, [-1, 2]
        # failed as an asymmetric edge and [0, 7] as an IndexError
        bad = next(v for v in vertices if not 0 <= v < 4)
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            induced_subgraph(build("path", 4), vertices)
