import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import echelon_reference
import fraction_reference as reference
from conftest import JOBS, connected_graphs, every_graph, graphs
from rowspace.families import build
from rowspace.graph import Graph, multiply_vertices
from rowspace.harness import parallel_map
from rowspace.linalg import (
    _bit_vector,
    adjacency_matrix,
    integer_row_echelon,
    rank,
    solve_membership,
)
from rowspace.oracle import iter_connected_graphs
from rowspace.witness import find_witness

HALF = Fraction(1, 2)


def sympy_rank(rows) -> int:
    return sympy.Matrix([[sympy.Rational(e) for e in row] for row in rows]).rank()


def scaled_rows(rows) -> list[list[int]]:
    """Rational rows scaled to integers by each row's denominator lcm,
    which preserves rank and row space."""
    out = []
    for row in rows:
        scale = lcm(*(Fraction(e).denominator for e in row))
        out.append([int(Fraction(e) * scale) for e in row])
    return out


def transpose(rows) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def augmented_system(rows, x) -> list[list[int]]:
    """The system solve_membership eliminates: column i of rows, then x[i]."""
    return [list(col) + [b] for col, b in zip(zip(*rows), x)]


class TestIntegerRows:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [3]])
        with pytest.raises(ValueError):
            solve_membership([[1, 2], [3]], (1, 1))

    @pytest.mark.parametrize("rows", [[[1], [3, 4]], [[1, 2], [3]]])
    def test_echelon_rejects_ragged_rows(self, rows):
        # a short second row was dropped silently, a short first row ran
        # into an IndexError
        with pytest.raises(ValueError, match="ragged rows"):
            integer_row_echelon(rows)

    def test_transpose_round_trip(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        assert transpose(transpose(rows)) == rows
        assert transpose(rows)[2][1] == 6
        assert rank(rows) == rank(transpose(rows)) == 2


class TestAdjacencyMatrix:
    def test_star_matches_pinned_matrix(self):
        M = adjacency_matrix(build("star", 4))
        expected = [
            [0, 1, 1, 1, 1],
            [1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ]
        assert M == expected
        assert all(type(e) is int for row in M for e in row)

    def test_c5_with_twin_matches_pinned_matrix(self):
        M = adjacency_matrix(build("c5-with-twin"))
        expected = [
            [0, 1, 0, 0, 1, 0],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 0],
            [1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 0],
        ]
        assert M == expected

    def test_edgeless_graph_is_zero_matrix(self):
        assert adjacency_matrix(Graph(3, (0, 0, 0))) == [[0, 0, 0]] * 3

    def test_matches_bitwise_reference(self):
        graphs = [g for n in range(1, 7) for g in every_graph(n)]
        graphs += [Graph(40, (0,) * 40)]
        graphs += [build(name, n) for name in ("path", "complete") for n in (64, 256)]
        for g in graphs:
            M = adjacency_matrix(g)
            assert M == echelon_reference.adjacency_matrix(g), g.adj
            assert all(type(e) is int for row in M for e in row)


class TestBitVector:
    def test_matches_shifts(self):
        rng = random.Random(70)
        for n in range(1, 71):
            masks = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(30)]
            for mask in masks:
                v = _bit_vector(mask, n)
                assert tuple(v) == tuple((mask >> k) & 1 for k in range(n)), (n, mask)
                assert all(type(e) is int for e in v)

    @pytest.mark.parametrize("mask, n", [(2, 1), (8, 3), (15, 3), (1 << 64, 64), (-1, 5)], ids=str)
    def test_refuses_a_bit_at_or_above_n(self, mask, n):
        # the bit string would hold more than n digits (or a minus sign)
        with pytest.raises(ValueError, match="does not fit"):
            _bit_vector(mask, n)


class TestRank:
    @pytest.mark.parametrize(
        "family,size,expected",
        [
            ("path", 5, 4),
            ("cycle", 8, 6),
            ("petersen", None, 10),
            ("cycle", 5, 5),
            ("apexed-net", None, 7),
            ("complete", 4, 4),
        ],
    )
    def test_known_ranks(self, family, size, expected):
        assert rank(adjacency_matrix(build(family, size))) == expected

    def test_zero_matrix(self):
        assert rank([[0] * 3] * 3) == 0
        assert rank([]) == 0

    def test_rational_entries(self):
        rows = [[HALF, 1], [Fraction(1, 3), Fraction(2, 3)]]
        assert scaled_rows(rows) == [[1, 2], [1, 2]]
        assert rank(scaled_rows(rows)) == sympy_rank(rows) == 1

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=8))
    def test_matches_sympy(self, g):
        assert rank(adjacency_matrix(g)) == sympy_rank(adjacency_matrix(g))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6))
    def test_rank_of_transpose(self, g):
        M = adjacency_matrix(g)
        assert rank(M) == rank(transpose(M))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6), st.data())
    def test_rank_permutation_invariant(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert rank(adjacency_matrix(relabeled)) == rank(adjacency_matrix(g))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=5), st.data())
    def test_rank_preserved_by_blowup(self, g, data):
        m = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
        blown = multiply_vertices(g, m)
        assert rank(adjacency_matrix(blown)) == rank(adjacency_matrix(g))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_sympy_on_rational_matrices(self, rows):
        assert rank(scaled_rows(rows)) == sympy_rank(rows)


class TestNullity:
    def test_examples(self):
        # nullity n - rank: C8 has 2, K4 none, P5 one
        assert rank(adjacency_matrix(build("cycle", 8))) == 8 - 2
        assert rank(adjacency_matrix(build("complete", 4))) == 4 - 0
        assert rank(adjacency_matrix(build("path", 5))) == 5 - 1


class TestSolveMembership:
    def test_star_all_ones(self):
        M = adjacency_matrix(build("star", 4))
        cert = solve_membership(M, (1, 1, 1, 1, 1))
        assert cert is not None
        assert reference.combine_rows(M, cert.coefficients) == (1, 1, 1, 1, 1)
        # the hand combination of the first two rows also certifies it
        assert reference.combine_rows(M, (1, 1, 0, 0, 0)) == (1, 1, 1, 1, 1)

    def test_pinned_half_integer_combination(self):
        M = adjacency_matrix(build("rank5-2"))
        cert = solve_membership(M, (1,) * 6)
        assert cert is not None
        assert reference.combine_rows(M, (HALF, -HALF, 0, 0, HALF, 1)) == (1,) * 6

    def test_zero_matrix_has_trivial_row_space(self):
        M = [[0] * 3] * 3
        assert solve_membership(M, (1, 0, 0)) is None
        assert solve_membership(M, (0, 0, 0)) is not None

    def test_coefficients_in_lowest_terms(self):
        # D is a Bareiss pivot, not the least denominator: the Fractions
        # handed out must still be normalized, with positive denominators.
        cert = solve_membership(adjacency_matrix(build("complete", 4)), (1, 1, 1, 1))
        assert cert is not None
        assert [(c.numerator, c.denominator) for c in cert.coefficients] == [(1, 3)] * 4
        cert = solve_membership(adjacency_matrix(build("rank5-2")), (1,) * 6)
        assert cert is not None
        assert cert.coefficients == (-HALF, HALF, 1, 0, HALF, 0)
        assert all(c.denominator in (1, 2) for c in cert.coefficients)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_membership(adjacency_matrix(build("cycle", 3)), (1, 0))

    def test_non_square_matrix(self):
        M = [[1, 0, 1], [0, 1, 1]]
        cert = solve_membership(M, (1, 1, 2))
        assert cert is not None
        assert reference.combine_rows(M, cert.coefficients) == (1, 1, 2)
        assert solve_membership(M, (1, 1, 0)) is None

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=7), st.data())
    def test_every_row_is_a_member(self, g, data):
        M = adjacency_matrix(g)
        i = data.draw(st.integers(0, g.n - 1))
        row = tuple(M[i])
        cert = solve_membership(M, row)
        assert cert is not None
        assert reference.combine_rows(M, cert.coefficients) == tuple(Fraction(e) for e in row)

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=6), st.data())
    def test_agrees_with_rank_augmentation(self, g, data):
        M = adjacency_matrix(g)
        x = tuple(data.draw(st.integers(0, 1)) for _ in range(g.n))
        member = solve_membership(M, x) is not None
        augmented_rank = len(integer_row_echelon(M + [list(x)])[1])
        assert member == (augmented_rank == rank(M))

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=10), st.data())
    def test_pivots_give_the_rank(self, g, data):
        # the solve's own pivots, handed out: below column n they count
        # rank(A), and a pivot at n is exactly a non-member
        M = adjacency_matrix(g)
        x = tuple(data.draw(st.integers(0, 1)) for _ in range(g.n))
        pivots = [-1]
        cert = solve_membership(M, x, pivots)
        assert cert == solve_membership(M, x)
        assert pivots[0] == -1 and pivots[1:] == sorted(pivots[1:])
        assert sum(pc < g.n for pc in pivots[1:]) == rank(M)
        assert (g.n in pivots) == (cert is None)


def _differential_chunk(items) -> tuple[int, int]:
    """Solve each graph's witness and its two random vectors with the
    integer solver and the Fraction reference; the solves and members."""
    solves = members = 0
    for g, random_vectors in items:
        M = adjacency_matrix(g)
        for x in [find_witness(g).vector, *random_vectors]:
            cert = solve_membership(M, x)
            assert cert == reference.solve_membership(M, x), (g.adj, x)
            solves += 1
            members += cert is not None
    return solves, members


class TestDifferentialAgainstFractionReference:
    """The integer solver must return the Fraction reference's certificate
    exactly, or None where the reference does."""

    @pytest.mark.slow
    def test_every_connected_graph_up_to_six(self):
        # the random vectors are drawn here, graph by graph in generator
        # order, so that they do not depend on how the work is split
        rng = random.Random(2204_02689)
        items = [
            (g, [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(2)])
            for n in range(2, 7)
            for g in iter_connected_graphs(n)
        ]
        chunks = [items[k * len(items) // 32 : (k + 1) * len(items) // 32] for k in range(32)]
        solves = members = 0
        for chunk_solves, chunk_members in parallel_map(_differential_chunk, chunks, JOBS):
            solves += chunk_solves
            members += chunk_members
        assert solves == 3 * 27475
        assert 27475 < members < solves

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12), st.data())
    def test_hypothesis_graphs_up_to_twelve(self, g, data):
        M = adjacency_matrix(g)
        x = tuple(data.draw(st.integers(0, 1)) for _ in range(g.n))
        i, j = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
        combo = tuple(a + b for a, b in zip(M[i], M[j]))
        for target in (x, combo):
            assert solve_membership(M, target) == reference.solve_membership(M, target)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(min_n=7, max_n=12))
    def test_connected_graphs_witness_vectors(self, g):
        M = adjacency_matrix(g)
        x = find_witness(g).vector
        assert solve_membership(M, x) == reference.solve_membership(M, x)


class TestEchelonAgainstLockstepReference:
    """Lazy rescaling must return the lockstep elimination's pivot rows and
    pivot columns exactly: the certificate's denominator and numerators are
    read off those rows."""

    @staticmethod
    def check(rows):
        assert integer_row_echelon(rows) == echelon_reference.integer_row_echelon(rows), rows

    @pytest.mark.slow
    def test_every_graph_up_to_six_and_its_witness_system(self):
        systems = 0
        for n in range(1, 7):
            for g in every_graph(n):
                M = adjacency_matrix(g)
                self.check(M)
                if any(g.adj):
                    self.check(augmented_system(M, find_witness(g).vector))
                    systems += 1
        assert systems == 33867 - 6

    def test_named_and_random_graphs_to_sixty_four(self):
        rng = random.Random(1968)
        graphs = [build(name, n) for name in ("path", "cycle", "wheel", "complete") for n in (17, 24, 33, 48, 64)]
        graphs += [random_graph(rng, n, p) for n in (17, 29, 41, 64) for p in (0.08, 0.3, 0.5, 0.9)]
        for g in graphs:
            M = adjacency_matrix(g)
            self.check(M)
            self.check(augmented_system(M, [rng.randint(0, 1) for _ in range(g.n)]))

    def test_random_integer_matrices(self):
        rng = random.Random(2204)
        for _ in range(2000):
            nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
            rows = [[rng.randint(-50, 50) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]
            if ncols and rng.random() < 0.3:
                j = rng.randrange(ncols)
                for row in rows:
                    row[j] = 0
            if nrows and rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [0] * ncols
            self.check(rows)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), max_size=8
            )
        )
    )
    def test_hypothesis_matrices(self, rows):
        self.check(rows)
