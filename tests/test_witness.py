import ast
import hashlib
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as reference
import rowspace.graph
import rowspace.oracle
import rowspace.witness
from conftest import (
    ScanRecorder,
    co_c7,
    disjoint_union,
    graphs,
    long_diameter_graphs,
    oracle_geodesic,
)
from rowspace.families import build
from rowspace.graph import (
    Graph,
    diameter,
    diametral_geodesic,
    duplicate_vertex,
    multiply_vertices,
)
from rowspace.linalg import MembershipCertificate, adjacency_matrix, solve_membership
from rowspace.oracle import OracleResult, iter_connected_graphs
from rowspace.witness import (
    MAX_ORACLE_LIMIT,
    Strategy,
    StrategyOutcome,
    Witness,
    find_witness,
    lift_witness,
    oracle_declines,
    verify_witness,
    witness_catalog_rank5,
    witness_complete,
    witness_diam_ge4,
    witness_disjoint_nbhd,
    witness_dominating_regular,
)

HALF = Fraction(1, 2)


def labeled_graphs(max_n: int):
    """Every labeled graph with at least one edge and 2 <= n <= max_n, edge
    masks ascending over the graph6 pair order (0,1), (0,2), (1,2), ..."""
    for n in range(2, max_n + 1):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for mask in range(1, 1 << len(pairs)):
            yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


class TestComplete:
    def test_triangle(self):
        w = witness_complete(build("complete", 3)).witness
        assert w.vector == (1, 1, 1)
        assert w.certificate.coefficients == (HALF, HALF, HALF)
        assert verify_witness(build("complete", 3), w)

    def test_single_edge(self):
        w = witness_complete(build("complete", 2)).witness
        assert w.vector == (1, 1)
        assert w.certificate.coefficients == (1, 1)

    def test_cycle_inapplicable(self):
        out = witness_complete(build("cycle", 5))
        assert out.witness is None and out.reason


class TestDisjointNeighborhood:
    def test_c5_with_twin(self):
        g = build("c5-with-twin")
        w = witness_disjoint_nbhd(g).witness
        assert w.vector == (1, 1, 1, 0, 1, 0)
        assert verify_witness(g, w)

    def test_star(self):
        g = build("star", 4)
        w = witness_disjoint_nbhd(g).witness
        assert w.vector == (1, 1, 1, 1, 1)
        assert w.certificate.coefficients[:2] == (1, 1)

    def test_survives_degree_two_duplication_chains(self):
        g = build("cycle", 6)
        for _ in range(4):
            out = witness_disjoint_nbhd(g)
            assert out.witness is not None
            assert verify_witness(g, out.witness)
            g = duplicate_vertex(g, 0)

    def test_triangle_inapplicable(self):
        assert witness_disjoint_nbhd(build("complete", 3)).witness is None


class TestDiamGe4:
    def test_path_five(self):
        g = build("path", 5)
        w = witness_diam_ge4(g).witness
        assert w.vector == (1, 0, 1, 1, 0)
        coeffs = [Fraction(0)] * 5
        coeffs[1] = coeffs[4] = Fraction(1)
        assert w.certificate.coefficients == tuple(coeffs)
        assert verify_witness(g, w)

    def test_nine_cycle(self):
        g = build("cycle", 9)
        w = witness_diam_ge4(g).witness
        # geodesic 0..4: rows of path positions 1 and 4
        assert w.vector == (1, 0, 1, 1, 0, 1, 0, 0, 0)
        assert verify_witness(g, w)

    def test_petersen_inapplicable(self):
        out = witness_diam_ge4(build("petersen"))
        assert out.witness is None
        assert out.reason == "diameter 2 < 4"

    def test_disconnected_inapplicable(self):
        out = witness_diam_ge4(Graph.from_edges(6, [(0, 1), (2, 3)]))
        assert out.witness is None
        assert out.reason == "graph is disconnected"

    def test_cycle_squares_match_oracle_geodesic(self):
        # C_k^2 has diameter ceil(floor(k/2) / 2), so the strategy fires
        # from k = 14 on; its rows come from positions 1 and l of the
        # oracle's geodesic.
        fired = 0
        for k in range(9, 65):
            g = Graph.from_edges(k, [(i, (i + s) % k) for i in range(k) for s in (1, 2)])
            path = oracle_geodesic(g)
            out = witness_diam_ge4(g)
            if len(path) < 5:
                assert out.witness is None
                assert out.reason == f"diameter {len(path) - 1} < 4"
                continue
            a, b = path[1], path[-1]
            coeffs = [Fraction(0)] * k
            coeffs[a] = coeffs[b] = Fraction(1)
            row_sum = tuple((g.adj[a] >> j & 1) + (g.adj[b] >> j & 1) for j in range(k))
            assert out.witness.vector == row_sum
            assert out.witness.certificate.coefficients == tuple(coeffs)
            assert verify_witness(g, out.witness)
            fired += 1
        assert fired == 64 - 13

    @settings(max_examples=60)
    @given(long_diameter_graphs())
    def test_pattern_on_path_positions(self, g):
        assume(diameter(g) >= 4)
        out = witness_diam_ge4(g)
        assert out.witness is not None
        w = out.witness
        assert verify_witness(g, w)
        # on the geodesic the vector is forced: row p1 hits p0 and p2, row
        # p_l hits p_{l-1}, and nothing else on the path survives
        path = diametral_geodesic(g)
        expected_on_path = {path[0], path[2], path[-2]}
        for pos, v in enumerate(path):
            assert w.vector[v] == (1 if v in expected_on_path else 0), (path, pos)


class TestDominatingRegular:
    def test_wheel_nine(self):
        g = build("wheel", 9)
        w = witness_dominating_regular(g).witness
        assert w.vector == (1,) * 9
        assert w.certificate.coefficients[0] == Fraction(6, 8)
        assert set(w.certificate.coefficients[1:]) == {Fraction(1, 8)}
        assert verify_witness(g, w)

    def test_triangle_fan_nine(self):
        g = build("triangle-fan", 9)
        w = witness_dominating_regular(g).witness
        assert w.vector == (1,) * 9
        assert verify_witness(g, w)

    def test_cycle_inapplicable(self):
        assert witness_dominating_regular(build("cycle", 5)).witness is None

    def test_complete_inapplicable(self):
        assert witness_dominating_regular(build("complete", 4)).witness is None

    def test_two_dominating_vertices_inapplicable(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert witness_dominating_regular(g).witness is None

    def test_irregular_rest_inapplicable(self):
        # star plus one rim edge: leaves have degrees 1 and 2
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        assert witness_dominating_regular(g).witness is None


class TestCatalog:
    def test_first_entry(self):
        g = build("rank5-1")
        w = witness_catalog_rank5(g).witness
        assert w.vector == (0, 1, 1, 1, 1, 1, 1)
        assert w.certificate.coefficients == (0, -HALF, HALF, 1, 0, HALF, 0)
        assert verify_witness(g, w)

    def test_third_entry(self):
        g = build("rank5-3")
        w = witness_catalog_rank5(g).witness
        assert w.vector == (1,) * 6
        assert w.certificate.coefficients == (0, 0, 0, HALF, HALF, HALF)
        assert verify_witness(g, w)

    def test_all_identities_reproduce_pinned_vectors(self):
        for index in (1, 2, 3, 4):
            g = build(f"rank5-{index}")
            w = witness_catalog_rank5(g).witness
            combo = reference.combine_rows(adjacency_matrix(g), w.certificate.coefficients)
            assert combo == tuple(Fraction(x) for x in w.vector)

    def test_miss(self):
        assert witness_catalog_rank5(build("cycle", 5)).witness is None


class TestLiftWitness:
    def test_edge_blowup(self):
        g = build("complete", 2)
        w = witness_complete(g).witness
        lifted = lift_witness(g, (2, 1), w)
        assert lifted.vector == (1, 1, 1)
        assert lifted.certificate.coefficients == (1, 0, 1)
        assert verify_witness(multiply_vertices(g, (2, 1)), lifted)

    def test_identity_blowup_keeps_vector(self):
        g = build("complete", 3)
        w = witness_complete(g).witness
        lifted = lift_witness(g, (1, 1, 1), w)
        assert lifted.vector == w.vector
        assert lifted.certificate.coefficients == w.certificate.coefficients

    def test_triangle_blowup_membership(self):
        g = build("complete", 3)
        w = witness_complete(g).witness
        lifted = lift_witness(g, (2, 1, 1), w)
        assert lifted.vector == (1, 1, 1, 1)
        blown = multiply_vertices(g, (2, 1, 1))
        assert solve_membership(adjacency_matrix(blown), lifted.vector) is not None
        assert verify_witness(blown, lifted)

    def test_dimension_mismatch(self):
        g = build("complete", 3)
        w = witness_complete(build("complete", 2)).witness
        with pytest.raises(ValueError):
            lift_witness(g, (1, 1, 1), w)

    def test_row_collision_is_signalled_not_verified(self):
        # A forged "witness" that IS a row of the base graph: its lift would
        # occur as a row of the blow-up, so the invalid input is refused.
        g = build("star", 2)  # rows include (1, 0, 0)
        forged = Witness(
            (1, 0, 0),
            MembershipCertificate((Fraction(0), Fraction(1), Fraction(0)), (1, 0, 0)),
            Strategy.LIFTED,
        )
        with pytest.raises(ValueError):
            lift_witness(g, (1, 2, 1), forged)

    @settings(max_examples=80, deadline=None)
    @given(graphs(min_n=2, max_n=6, min_edges=1), st.data())
    def test_lifts_of_valid_witnesses_verify(self, g, data):
        w = find_witness(g)
        assert w is not None
        m = tuple(data.draw(st.integers(1, 3)) for _ in range(g.n))
        lifted = lift_witness(g, m, w)
        assert verify_witness(multiply_vertices(g, m), lifted)


class TestFindWitness:
    def test_path_uses_pendant_pair(self):
        w = find_witness(build("path", 5))
        assert w.strategy == Strategy.DISJOINT_NBHD
        assert w.vector == (1, 1, 1, 0, 0)

    def test_complete_uses_all_ones(self):
        w = find_witness(build("complete", 4))
        assert w.strategy == Strategy.COMPLETE
        assert w.vector == (1, 1, 1, 1)

    def test_petersen_uses_disjoint_pair(self):
        w = find_witness(build("petersen"))
        assert w.strategy == Strategy.DISJOINT_NBHD

    def test_catalog_graphs_dispatch_to_catalog(self):
        for index in (1, 2, 3, 4):
            w = find_witness(build(f"rank5-{index}"))
            assert w.strategy == Strategy.CATALOG_RANK5

    def test_octahedron_lifts_through_twin_contraction(self):
        g = multiply_vertices(build("complete", 3), (2, 2, 2))
        w = find_witness(g)
        assert w.strategy == Strategy.LIFTED
        assert w.vector == (1,) * 6
        assert verify_witness(g, w)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            find_witness(Graph(3, (0, 0, 0)))

    def test_disconnected_padding(self):
        # isolated vertex 0; triangle on 1, 2, 3
        g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])
        w = find_witness(g)
        assert w.vector == (0, 1, 1, 1)
        assert w.certificate.coefficients[0] == 0
        assert verify_witness(g, w)

    def test_disconnected_picks_smallest_component_with_edge(self):
        # vertex 0 isolated, edge on (1, 4), triangle on (2, 3, 5)
        g = Graph.from_edges(6, [(1, 4), (2, 3), (2, 5), (3, 5)])
        w = find_witness(g)
        assert w.vector == (0, 1, 0, 0, 1, 0)
        assert w.strategy == Strategy.COMPLETE

    def test_oracle_limit_respected(self):
        # complement of the 7-cycle defeats every constructive strategy
        g = co_c7()
        assert find_witness(g, oracle_limit=3) is None
        w = find_witness(g)
        assert w is not None and w.strategy == Strategy.ORACLE

    @pytest.mark.parametrize("limit", [-1, MAX_ORACLE_LIMIT + 1])
    def test_oracle_limit_out_of_range(self, limit):
        # -1 used to turn the oracle off without a word, and oracle_declines
        # used to accept any bound (None for 99: a claim that it scans)
        with pytest.raises(ValueError, match=f"outside 0..{MAX_ORACLE_LIMIT}"):
            find_witness(build("path", 3), oracle_limit=limit)
        with pytest.raises(ValueError, match=f"outside 0..{MAX_ORACLE_LIMIT}"):
            oracle_declines(co_c7(), limit)

    def test_oracle_declines(self):
        # judged on the graph the search ends on (see TestSearchEnd)
        g = co_c7()
        assert oracle_declines(g, 7) is None
        assert oracle_declines(g, 6) == (
            "no constructive strategy applied and n=7 exceeds the oracle bound 6"
        )
        # disconnected: the first component with an edge, not the input
        padded = disjoint_union(Graph(1, (0,)), g, Graph(12, (0,) * 12))
        assert oracle_declines(padded, 7) is None
        assert "n=7 exceeds the oracle bound 6" in oracle_declines(padded, 6)
        # ... and not the largest component either
        edge_first = disjoint_union(Graph(1, (0,)), build("complete", 2), g)
        assert oracle_declines(edge_first, 2) is None
        assert "n=2 exceeds the oracle bound 1" in oracle_declines(edge_first, 1)
        # twins: the order of the contraction, one vertex per neighborhood
        blown = multiply_vertices(g, (2, 3, 1, 1, 2, 1, 4))
        assert oracle_declines(blown, 7) is None
        assert "n=7 exceeds the oracle bound 6" in oracle_declines(blown, 6)
        with pytest.raises(ValueError):
            oracle_declines(Graph(3, (0, 0, 0)), 16)

    @settings(max_examples=120, deadline=None)
    @given(graphs(min_n=2, max_n=7, min_edges=1))
    def test_every_witness_verifies(self, g):
        w = find_witness(g)
        assert w is not None
        assert verify_witness(g, w)


def test_search_reuses_the_generators_component(monkeypatch):
    # the sweep generator's connectivity test is the component the search
    # starts from, so the search runs no BFS of its own
    graphs5 = list(iter_connected_graphs(5))
    assert len(graphs5) == 728
    calls = []
    for module in (rowspace.graph, rowspace.witness, rowspace.oracle):
        if hasattr(module, "reachable"):
            real = module.reachable
            monkeypatch.setattr(module, "reachable", lambda *a, real=real: calls.append(a) or real(*a))
    for g in graphs5:
        assert find_witness(g) is not None
    assert calls == []


class TestSearchEnd:
    """The search ends on the twin contraction of the first component with
    an edge. The oracle scans that graph at most once, and
    ``oracle_declines`` judges the bound on that graph, not on the input."""

    def test_blowup_scans_only_its_contraction(self, monkeypatch):
        recorder = ScanRecorder()
        monkeypatch.setattr(rowspace.oracle, "brute_force_witness", recorder)
        assert find_witness(multiply_vertices(co_c7(), (2,) * 7)) is None
        assert recorder.scanned == [7]

    def test_declines_exactly_when_not_scanned(self, monkeypatch):
        # With every constructive strategy gone and an oracle that finds
        # nothing, each search runs to its end, so the scan (or its absence)
        # shows where find_witness ended and whether oracle_declines agrees.
        recorder = ScanRecorder()
        monkeypatch.setattr(rowspace.oracle, "brute_force_witness", recorder)
        monkeypatch.setattr(rowspace.witness, "_CONSTRUCTIVE", ())
        count = 0
        for g in labeled_graphs(5):
            count += 1
            for limit in range(6):
                recorder.scanned.clear()
                assert find_witness(g, limit) is None
                assert len(recorder.scanned) <= 1
                assert (oracle_declines(g, limit) is None) == bool(recorder.scanned)
        assert count == 1094


def _row_instead(w: Witness, g: Graph) -> Witness:
    """Row u of A(g), u the first vertex with an edge, with the certificate
    e_u: exact, but a row."""
    u = next(v for v in range(g.n) if g.adj[v])
    vector = tuple((g.adj[u] >> v) & 1 for v in range(g.n))
    coeffs = tuple(Fraction(int(v == u)) for v in range(g.n))
    return Witness(vector, MembershipCertificate(coeffs, vector), w.strategy)


def _off_by_one_over_d(w: Witness, g: Graph) -> Witness:
    """w with 1/D added to the coefficient of the first vertex with an edge,
    D the lcm of the denominators: A^t c misses the vector by row u / D."""
    coeffs = list(w.certificate.coefficients)
    u = next(v for v in range(g.n) if g.adj[v])
    coeffs[u] += Fraction(1, lcm(*(c.denominator for c in coeffs)))
    return Witness(w.vector, MembershipCertificate(tuple(coeffs), w.vector), w.strategy)


class TestReverification:
    """``find_witness`` checks the witness it returns on the input graph,
    whichever path built it. A strategy or an oracle that hands back a bad
    witness (on the component or the contraction alike) raises a
    RuntimeError that names it; the bad witness is never returned."""

    # path -> (graph, patched producer, the strategy the error names)
    PATHS = {
        "connected-reduced": (lambda: build("cycle", 5), "witness_disjoint_nbhd", "disjoint-neighborhood"),
        "component": (
            lambda: disjoint_union(Graph(1, (0,)), build("cycle", 5)),
            "witness_disjoint_nbhd",
            "disjoint-neighborhood",
        ),
        # the octahedron: only K3, its contraction, has a strategy that fires
        "contraction": (
            lambda: multiply_vertices(build("complete", 3), (2, 2, 2)),
            "witness_complete",
            "complete-all-ones",
        ),
        "oracle": (co_c7, "brute_force_witness", "oracle"),
        "oracle-on-contraction": (
            lambda: multiply_vertices(co_c7(), (2, 1, 3, 1, 1, 1, 1)),
            "brute_force_witness",
            "oracle",
        ),
    }

    @pytest.mark.parametrize("corrupt", [_row_instead, _off_by_one_over_d])
    @pytest.mark.parametrize("path", PATHS)
    def test_invalid_witness_raises(self, monkeypatch, path, corrupt):
        make, producer, name = self.PATHS[path]
        if producer == "brute_force_witness":
            real_scan = rowspace.oracle.brute_force_witness

            def bad_scan(g, limit):
                result = real_scan(g, limit=limit)
                return OracleResult(corrupt(result.witness, g), result.candidates_checked)

            monkeypatch.setattr(rowspace.oracle, "brute_force_witness", bad_scan)
        else:
            real = getattr(rowspace.witness, producer)

            def bad(g):
                w = real(g).witness
                return StrategyOutcome(None if w is None else corrupt(w, g), "declined")

            constructive = tuple(bad if s is real else s for s in rowspace.witness._CONSTRUCTIVE)
            assert bad in constructive
            monkeypatch.setattr(rowspace.witness, "_CONSTRUCTIVE", constructive)
        with pytest.raises(RuntimeError, match=f"strategy {name} produced an invalid witness"):
            find_witness(make())


class TestVerifyWitness:
    def test_star_all_ones(self):
        g = build("star", 4)
        w = find_witness(g)
        assert w.vector == (1, 1, 1, 1, 1)
        assert verify_witness(g, w)

    def test_rejects_zero_vector(self):
        g = build("complete", 3)
        cert = MembershipCertificate((Fraction(0),) * 3, (0, 0, 0))
        assert not verify_witness(g, Witness((0, 0, 0), cert, Strategy.ORACLE))

    def test_rejects_zero_certificate(self):
        # every coefficient is zero, so no term is summed and D is 1
        g = build("complete", 3)
        cert = MembershipCertificate((Fraction(0),) * 3, (1, 1, 1))
        assert not verify_witness(g, Witness((1, 1, 1), cert, Strategy.ORACLE))

    def test_rejects_actual_row(self):
        g = build("complete", 3)
        cert = MembershipCertificate((Fraction(1), Fraction(0), Fraction(0)), (0, 1, 1))
        assert not verify_witness(g, Witness((0, 1, 1), cert, Strategy.ORACLE))

    def test_rejects_wrong_certificate(self):
        g = build("complete", 3)
        cert = MembershipCertificate((Fraction(1), Fraction(1), Fraction(1)), (1, 1, 1))
        assert not verify_witness(g, Witness((1, 1, 1), cert, Strategy.COMPLETE))

    def test_rejects_non_binary_vector(self):
        g = build("complete", 3)
        cert = MembershipCertificate((Fraction(1),) * 3, (2, 2, 2))
        assert not verify_witness(g, Witness((2, 2, 2), cert, Strategy.ORACLE))

    def test_rejects_length_mismatch(self):
        g = build("complete", 3)
        cert = MembershipCertificate((Fraction(1), Fraction(1)), (1, 1))
        assert not verify_witness(g, Witness((1, 1), cert, Strategy.ORACLE))
        cert = MembershipCertificate((Fraction(1, 2),) * 2, (1, 1, 1))
        assert not verify_witness(g, Witness((1, 1, 1), cert, Strategy.ORACLE))
        cert = MembershipCertificate((Fraction(1, 2),) * 4, (1, 1, 1))
        assert not verify_witness(g, Witness((1, 1, 1), cert, Strategy.ORACLE))

    # On C4 the rows R_0 + R_1 give all-ones; adding the kernel vectors
    # (1, 0, -1, 0)/3 and (0, 1, 0, -1)/2 keeps the product and mixes the
    # denominators, so the common denominator D is their lcm, 6.
    C4_MIXED = (Fraction(4, 3), Fraction(3, 2), Fraction(-1, 3), Fraction(-1, 2))

    def test_accepts_mixed_denominators(self):
        cert = MembershipCertificate(self.C4_MIXED, (1, 1, 1, 1))
        assert verify_witness(build("cycle", 4), Witness((1, 1, 1, 1), cert, Strategy.ORACLE))

    def test_rejects_coefficient_off_by_one_over_d(self):
        g = build("cycle", 4)
        for k in range(4):
            for delta in (Fraction(1, 6), Fraction(-1, 6)):
                coeffs = list(self.C4_MIXED)
                coeffs[k] += delta
                cert = MembershipCertificate(tuple(coeffs), (1, 1, 1, 1))
                assert not verify_witness(g, Witness((1, 1, 1, 1), cert, Strategy.ORACLE))
        g = build("complete", 4)
        coeffs = (Fraction(2, 3),) + (Fraction(1, 3),) * 3
        cert = MembershipCertificate(coeffs, (1, 1, 1, 1))
        assert not verify_witness(g, Witness((1, 1, 1, 1), cert, Strategy.COMPLETE))

    def test_rejects_mixed_denominators_that_miss(self):
        g = build("cycle", 4)
        coeffs = (Fraction(4, 3), Fraction(3, 2), Fraction(-1, 3), Fraction(-3, 10))
        cert = MembershipCertificate(coeffs, (1, 1, 1, 1))
        assert not verify_witness(g, Witness((1, 1, 1, 1), cert, Strategy.ORACLE))

    def test_rejects_target_differing_from_vector(self):
        g = build("cycle", 4)
        w = find_witness(g)
        assert verify_witness(g, w)
        other = (1, 1, 1, 0) if w.vector != (1, 1, 1, 0) else (1, 1, 0, 1)
        cert = MembershipCertificate(w.certificate.coefficients, other)
        assert not verify_witness(g, Witness(w.vector, cert, w.strategy))


class TestWitnessIdentity:
    # sha256 over one "vector certificate strategy" line per labeled graph
    # with at least one edge and n <= 5 (1,094 graphs), edge masks ascending
    # over the graph6 pair order (0,1), (0,2), (1,2), ...; certificates as
    # "p/q". Pinned so that a change to the dispatch, to the witness
    # embedding (disconnected padding, twin contraction) or to the oracle
    # scan cannot alter any witness unnoticed.
    DIGEST = "6e3fad83cc0263b6a97fb8e663dd5a49b67718dca3f04e3fa3c1c129b8ccabef"

    def test_find_witness_output_is_pinned(self):
        digest = hashlib.sha256()
        count = 0
        by_kind: dict[str, int] = {}
        for g in labeled_graphs(5):
            w = find_witness(g)
            vector = "".join(map(str, w.vector))
            cert = ",".join(f"{c.numerator}/{c.denominator}" for c in w.certificate.coefficients)
            digest.update(f"{vector} {cert} {w.strategy.value}\n".encode())
            count += 1
            kind = w.strategy.value if g.is_connected() else "padded"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        assert count == 1094
        # every embedding caller and the oracle are exercised
        assert (by_kind["padded"], by_kind["lifted"], by_kind["oracle"]) == (323, 26, 90)
        assert digest.hexdigest() == self.DIGEST


def certificate_calls(node, scope: str):
    """The dotted scope of every ``MembershipCertificate(...)`` call under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            callee = child.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == "MembershipCertificate":
                yield scope
        yield from certificate_calls(child, inner)


def test_certificates_are_built_in_two_places():
    # the solver builds the certificates it solves and ``witness._witness``
    # every other one, pairing it with its vector, so no witness the package
    # builds can carry a target that is not its vector
    package = Path(rowspace.witness.__file__).parent
    sites = {
        scope
        for path in sorted(package.rglob("*.py"))
        for scope in certificate_calls(ast.parse(path.read_text()), path.stem)
    }
    assert sites == {"linalg.solve_membership", "witness._witness"}
