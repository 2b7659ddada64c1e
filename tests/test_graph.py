import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diameter_oracle, graphs, connected_graphs, oracle_geodesic
from rowspace.families import build, petersen
from rowspace.graph import (
    Graph,
    diameter,
    diametral_geodesic,
    duplicate_vertex,
    find_adjacent_disjoint_pair,
    induced_subgraph,
    is_reduced,
    multiply_vertices,
)
from rowspace.oracle import iter_connected_graphs


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

    @pytest.mark.parametrize("vertices", [[-1, 3], [-1, 2], [0, 7]], ids=str)
    def test_induced_subgraph_rejects_out_of_range(self, vertices):
        # [-1, 3] named vertex 3 twice past the duplicate check, [-1, 2]
        # failed as an asymmetric edge and [0, 7] as an IndexError
        bad = next(v for v in vertices if not 0 <= v < 4)
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            induced_subgraph(build("path", 4), vertices)
