import os

import pytest
from hypothesis import given, settings

import oracle_reference
import rowspace.harness
import rowspace.oracle
from conftest import RecordingPool, every_graph, graphs
from rowspace.families import build
from rowspace.graph import Graph
from rowspace.oracle import (
    GENERATOR_LIMIT,
    CapacityError,
    brute_force_witness,
    enumerate_all_witnesses,
    exhaustive_verify,
    iter_connected_graphs,
)
from rowspace.witness import (
    DEFAULT_ORACLE_LIMIT,
    MAX_ORACLE_LIMIT,
    Strategy,
    find_witness,
    verify_witness,
)


class TestBruteForce:
    def test_star(self):
        g = build("star", 4)
        res = brute_force_witness(g)
        assert res.found
        assert res.witness.vector == (1, 1, 1, 1, 1)
        assert res.witness.strategy == Strategy.ORACLE
        assert verify_witness(g, res.witness)
        # scan order: of the 31 non-zero vectors, the two rows (masks 1 and
        # 30) are skipped and every candidate below 31 fails membership
        assert res.candidates_checked == 29

    def test_single_edge(self):
        g = build("complete", 2)
        res = brute_force_witness(g)
        assert res.found
        assert res.witness.vector == (1, 1)
        assert res.candidates_checked == 1  # masks 1 and 2 are rows

    def test_petersen(self):
        res = brute_force_witness(build("petersen"))
        assert res.found
        assert verify_witness(build("petersen"), res.witness)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_witness(build("cycle", 5), limit=4)

    def test_edgeless_scans_everything(self):
        res = brute_force_witness(Graph(3, (0, 0, 0)))
        assert not res.found
        assert res.witness is None
        assert res.candidates_checked == 7  # 2^3 - 1, no row masks to skip

    def test_search_builds_no_echelon(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("the search built an echelon form")

        monkeypatch.setattr(rowspace.oracle, "integer_row_echelon", refuse)
        res = brute_force_witness(build("star", 4))
        assert res.witness.vector == (1, 1, 1, 1, 1)
        assert res.candidates_checked == 29

    def test_deterministic(self):
        g = build("cycle", 6)
        a = brute_force_witness(g)
        b = brute_force_witness(g)
        assert (a.found, a.witness, a.candidates_checked) == (
            b.found,
            b.witness,
            b.candidates_checked,
        )


class TestFirstCandidateSolve:
    """brute_force_witness, a certificate solve per candidate, against the
    scan-then-solve search (tests/oracle_reference.py): the same vector,
    candidate count and certificate, whether the first candidate settles
    the graph or later ones are solved for."""

    @pytest.mark.slow
    def test_every_labeled_graph_up_to_six(self):
        settled = fallbacks = 0
        for n in range(1, 7):
            for g in every_graph(n):
                result = brute_force_witness(g)
                assert result == oracle_reference.brute_force_witness(g), g
                if result.found and result.candidates_checked == 1:
                    settled += 1
                else:
                    fallbacks += 1
        # 2^0 + 2^1 + 2^3 + 2^6 + 2^10 + 2^15 graphs, both paths well used
        assert (settled, fallbacks) == (22_831, 11_036)

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1, max_n=12))
    def test_random_graphs_up_to_twelve(self, g):
        result = brute_force_witness(g)
        assert result == oracle_reference.brute_force_witness(g)
        # the search (solve per candidate) and the proof (echelon reduction)
        # share no membership code, yet agree on the first witness and on
        # how many non-row masks lead up to it
        witnesses = enumerate_all_witnesses(g)
        if witnesses:
            assert result.witness.vector == witnesses[0]
            last = sum(b << i for i, b in enumerate(witnesses[0]))
        else:
            assert not result.found
            last = (1 << g.n) - 1
        assert result.candidates_checked == sum(1 for m in range(1, last + 1) if m not in g.adj)


class TestEnumerate:
    def test_single_edge(self):
        assert enumerate_all_witnesses(build("complete", 2)) == [(1, 1)]

    def test_edgeless(self):
        assert enumerate_all_witnesses(Graph(2, (0, 0))) == []

    def test_four_cycle(self):
        # rank 2: the row space is {(b, a, b, a)}; the only 0/1 members are
        # the two rows and the all-ones vector
        assert enumerate_all_witnesses(build("cycle", 4)) == [(1, 1, 1, 1)]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_all_witnesses(build("cycle", 5), limit=4)

    def test_ascending_binary_order(self):
        out = enumerate_all_witnesses(build("path", 4))
        keys = [sum(b << i for i, b in enumerate(v)) for v in out]
        assert keys == sorted(keys)

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=2, max_n=10, min_edges=1))
    def test_contains_every_strategy_witness(self, g):
        found = enumerate_all_witnesses(g)
        w = find_witness(g, oracle_limit=0)
        if w is not None:
            assert w.vector in found


class TestExhaustive:
    def test_tiny_sizes(self):
        assert exhaustive_verify(1).graphs_checked == 0
        r2 = exhaustive_verify(2)
        assert (r2.graphs_checked, r2.failures) == (1, [])
        r3 = exhaustive_verify(3)
        assert (r3.graphs_checked, r3.failures) == (4, [])
        assert sum(r3.strategy_histogram.values()) == 4

    def test_counts_connected_labeled_graphs(self):
        # 38 connected labeled graphs on 4 vertices
        report = exhaustive_verify(4)
        assert report.graphs_checked == 38
        assert report.failures == []
        assert report.graphs_checked == sum(1 for _ in iter_connected_graphs(4))

    def test_parallel_matches_serial(self):
        serial = exhaustive_verify(4, jobs=1)
        parallel = exhaustive_verify(4, jobs=2)
        assert serial.graphs_checked == parallel.graphs_checked
        assert serial.failures == parallel.failures
        # the key order the JSON report prints survives the chunk merge
        assert list(serial.strategy_histogram.items()) == list(parallel.strategy_histogram.items())

    def test_default_oracle_bound_covers_the_generator(self):
        # the sweep runs the oracle at its default bound, so every graph
        # the generator yields is decided
        assert GENERATOR_LIMIT <= DEFAULT_ORACLE_LIMIT

    def test_one_worker_scans_sixteen_chunks_in_process(self, monkeypatch):
        # one chunking rule for every worker count: 16 chunks per worker
        pool = RecordingPool()
        monkeypatch.setattr(rowspace.harness, "Pool", pool)
        chunks = []
        real = rowspace.oracle._scan_chunk

        def recording(args):
            chunks.append(args)
            return real(args)

        monkeypatch.setattr(rowspace.oracle, "_scan_chunk", recording)
        assert exhaustive_verify(4, jobs=1).graphs_checked == 38
        assert (chunks, pool.requested) == ([(4, 4 * k, 4 * k + 4) for k in range(16)], [])

    def test_generator_bound(self):
        with pytest.raises(CapacityError):
            exhaustive_verify(8)
        with pytest.raises(CapacityError):
            next(iter_connected_graphs(8))
        with pytest.raises(ValueError):
            exhaustive_verify(0)
        for n in (0, -2):
            with pytest.raises(ValueError, match="n must be >= 1"):
                iter_connected_graphs(n)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        pool = RecordingPool()
        monkeypatch.setattr(rowspace.harness, "Pool", pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = exhaustive_verify(4, jobs=10_000)
        assert pool.requested == [2]
        assert (report.graphs_checked, report.failures) == (38, [])
        # cpu_count() unknown: one worker, so the sweep runs in-process
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert exhaustive_verify(4, jobs=10_000).graphs_checked == 38
        assert pool.requested == [2]


class TestOracleLimitRange:
    """Every entry point that takes an oracle limit rejects one outside
    0..MAX_ORACLE_LIMIT before the first candidate is scanned."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the candidate scan started")

        monkeypatch.setattr(rowspace.oracle, "integer_row_echelon", refuse)
        monkeypatch.setattr(rowspace.oracle, "solve_membership", refuse)

    def test_enumerate_rejects_before_scanning(self, no_scan):
        # a 2^24 scan used to start here
        with pytest.raises(ValueError, match=f"outside 0..{MAX_ORACLE_LIMIT}"):
            enumerate_all_witnesses(build("cycle", 24), limit=40)

    @pytest.mark.parametrize("limit", [-1, MAX_ORACLE_LIMIT + 1])
    def test_brute_force_rejects_before_scanning(self, no_scan, limit):
        with pytest.raises(ValueError, match=f"outside 0..{MAX_ORACLE_LIMIT}"):
            brute_force_witness(build("cycle", 5), limit=limit)


class TestConsistency:
    @settings(max_examples=80, deadline=None)
    @given(graphs(min_n=2, max_n=10, min_edges=1))
    def test_strategy_success_implies_oracle_success(self, g):
        w = find_witness(g, oracle_limit=0)
        if w is not None:
            assert verify_witness(g, w)
            assert brute_force_witness(g).found
