import random

import pytest

from conftest import cycle_rank, path_rank
from rowspace.families import FAMILY_NAMES, build
from rowspace.graph import diameter, duplicate_vertex, is_reduced
from rowspace.graph6 import write_graph6
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
    # The catalog witnesses' pinned coefficients refer to these exact labelings.
    @pytest.mark.parametrize("name, line", [
        ("rank5-1", "FhFro"), ("rank5-2", "Ehyw"), ("rank5-3", "Ehvw"), ("rank5-4", "Fhy~g"),
    ])
    def test_pinned_matrix(self, name, line):
        assert write_graph6(build(name)) == line

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_all_have_rank_five(self, index):
        g = build(f"rank5-{index}")
        M = adjacency_matrix(g)
        assert rank(M) == 5
        # symmetric with zero diagonal comes for free from Graph validation
        assert all(M[i][i] == 0 for i in range(g.n))


class TestRankFormulas:
    def test_examples(self):
        assert path_rank(5) == 4
        assert cycle_rank(8) == 6
        assert cycle_rank(5) == 5

    def test_match_computed_ranks_small(self):
        for n in range(3, 13):
            assert rank(adjacency_matrix(build("path", n))) == path_rank(n)
            assert rank(adjacency_matrix(build("cycle", n))) == cycle_rank(n)


SEEDS = [(("cycle", 5), 5, 5), (("apexed-net",), 7, 9), (("petersen",), 10, 15)]


class TestHFamily:
    """The H family: the seeds C5, the apexed net and the Petersen graph,
    closed under duplication of a degree-2 vertex, give exactly the
    diameter-2 graphs with no dominating vertex whose size meets the 2n-5
    bound with equality. ``duplicate_vertex`` appends each clone as a new
    last vertex, so earlier labels stay put along a chain."""

    def test_seeds_meet_bound_with_equality(self):
        for spec, order, size in SEEDS:
            g = build(*spec)
            assert (g.n, g.size) == (order, size)
            assert g.size == 2 * g.n - 5

    def test_triple_duplication(self):
        g = build("cycle", 5)
        for _ in range(3):
            assert g.degree(0) == 2
            g = duplicate_vertex(g, 0)
        assert (g.n, g.size) == (8, 11)
        assert g.size == 2 * g.n - 5

    def test_random_chains_stay_extremal(self):
        rng = random.Random(7)
        for spec, _, _ in SEEDS:
            g = build(*spec)
            for _ in range(6):
                choices = [v for v in range(g.n) if g.degree(v) == 2]
                if not choices:
                    break
                g = duplicate_vertex(g, rng.choice(choices))
                assert diameter(g) == 2
                assert not any(g.degree(v) == g.n - 1 for v in range(g.n))
                assert g.size == 2 * g.n - 5
