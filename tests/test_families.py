import random

import pytest

from rowspace.families import (
    FAMILY_NAMES,
    build,
    h_family_generate,
    kotlov_lovasz_n,
    rank_formula_cycle,
    rank_formula_path,
    rank5_catalog_graph,
)
from rowspace.graph import diameter, duplicate_vertex, is_reduced
from rowspace.linalg import adjacency_matrix, rank


class TestBuild:
    def test_cycle(self):
        g = build("cycle", 5)
        assert g.n == 5 and g.size == 5 and diameter(g) == 2

    def test_every_family_builds(self):
        for name in FAMILY_NAMES:
            size = {"path": 4, "cycle": 5, "complete": 4, "star": 3,
                    "wheel": 6, "triangle-fan": 5}.get(name)
            g = build(name, size)
            assert g.n >= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="fixed graph, size not allowed"):
            build("petersen", 5)
        with pytest.raises(ValueError, match="needs a size parameter"):
            build("cycle")
        with pytest.raises(ValueError, match="unknown family 'moebius'"):
            build("moebius")
        with pytest.raises(ValueError):
            build("cycle", 2)

    def test_apexed_net_structure(self):
        g = build("apexed-net")
        assert g.n == 7 and g.size == 9
        assert rank(adjacency_matrix(g)) == 7
        # exactly one degree-3 vertex adjacent to all three former pendants
        holders = [
            v for v in range(7)
            if g.degree(v) == 3 and all(g.has_edge(v, p) for p in (3, 4, 5))
        ]
        assert holders == [6]

    def test_c5_with_twin_is_duplicated_cycle(self):
        assert build("c5-with-twin") == duplicate_vertex(build("cycle", 5), 3)
        assert not is_reduced(build("c5-with-twin"))


class TestRankFourAnchors:
    @pytest.mark.parametrize(
        "name", ["paw", "bull", "antenna", "house", "co-c6", "k4"]
    )
    def test_fixed_graphs_have_rank_four(self, name):
        assert rank(adjacency_matrix(build(name))) == 4

    def test_paths(self):
        assert rank(adjacency_matrix(build("path", 4))) == 4
        g = build("path", 5)
        assert rank(adjacency_matrix(g)) == 4
        assert diameter(g) == 4


class TestRank5Catalog:
    def test_pinned_matrix(self):
        M = adjacency_matrix(build("rank5-2"))
        expected = (
            (0, 1, 0, 0, 1, 1),
            (1, 0, 1, 0, 1, 0),
            (0, 1, 0, 1, 1, 1),
            (0, 0, 1, 0, 0, 1),
            (1, 1, 1, 0, 0, 1),
            (1, 0, 1, 1, 1, 0),
        )
        assert tuple(tuple(row) for row in M) == expected

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_all_have_rank_five(self, index):
        g = rank5_catalog_graph(index)
        M = adjacency_matrix(g)
        assert rank(M) == 5
        # symmetric with zero diagonal comes for free from Graph validation
        assert all(M[i][i] == 0 for i in range(g.n))

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            rank5_catalog_graph(0)
        with pytest.raises(ValueError):
            rank5_catalog_graph(5)


class TestRankFormulas:
    def test_examples(self):
        assert rank_formula_path(5) == 4
        assert rank_formula_cycle(8) == 6
        assert rank_formula_cycle(5) == 5

    def test_match_computed_ranks_small(self):
        for n in range(3, 13):
            assert rank(adjacency_matrix(build("path", n))) == rank_formula_path(n)
            assert rank(adjacency_matrix(build("cycle", n))) == rank_formula_cycle(n)

    def test_bounds(self):
        with pytest.raises(ValueError):
            rank_formula_path(0)
        with pytest.raises(ValueError):
            rank_formula_cycle(2)


class TestKotlovLovasz:
    @pytest.mark.parametrize("r,expected", [(2, 2), (3, 3), (4, 6), (5, 8), (6, 14)])
    def test_values(self, r, expected):
        assert kotlov_lovasz_n(r) == expected

    def test_bounds(self):
        with pytest.raises(ValueError):
            kotlov_lovasz_n(1)


class TestHFamily:
    def test_seeds_meet_bound_with_equality(self):
        for base, order, size in [("c5", 5, 5), ("apexed-net", 7, 9), ("petersen", 10, 15)]:
            g = h_family_generate(base, [])
            assert (g.n, g.size) == (order, size)
            assert g.size == 2 * g.n - 5

    def test_triple_duplication(self):
        g = h_family_generate("c5", [0, 0, 0])
        assert (g.n, g.size) == (8, 11)
        assert g.size == 2 * g.n - 5

    def test_degree_two_required(self):
        with pytest.raises(ValueError):
            h_family_generate("apexed-net", [0])  # degree 3 vertex

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            h_family_generate("c6", [])

    def test_random_chains_stay_extremal(self):
        rng = random.Random(7)
        for base in ("c5", "apexed-net", "petersen"):
            g = h_family_generate(base, [])
            for _ in range(6):
                choices = [v for v in range(g.n) if g.degree(v) == 2]
                if not choices:
                    break
                g = duplicate_vertex(g, rng.choice(choices))
                assert diameter(g) == 2
                assert not any(g.degree(v) == g.n - 1 for v in range(g.n))
                assert g.size == 2 * g.n - 5
