import json
import math
import os
from fractions import Fraction

import pytest

import rowspace.graph
import rowspace.harness
from conftest import RecordingPool, co_c7, disjoint_union
from rowspace.cli import main
from rowspace.families import build
from rowspace.graph import Graph, multiply_vertices
from rowspace.graph6 import parse_graph6, write_graph6
from rowspace.harness import (
    SizeBoundRecord,
    check_size_bound,
    effective_lines,
    run_verification,
)
from rowspace.linalg import MembershipCertificate
from rowspace.witness import MAX_ORACLE_LIMIT, Strategy, Witness, verify_witness


def record_witness(record) -> Witness:
    """Reconstruct the witness of an ok record from its wire strings."""
    vector = tuple(int(ch) for ch in record.witness)
    coeffs = tuple(Fraction(s) for s in record.certificate)
    return Witness(vector, MembershipCertificate(coeffs, vector), Strategy(record.strategy))


class TestEffectiveLines:
    def test_header_and_blanks_dropped(self):
        lines = [">>graph6<<", "", "C~\n", "  ", ">>graph6<<@"]
        assert list(effective_lines(lines)) == ["C~", "@"]


class TestRunVerification:
    def test_single_edge(self):
        [record] = run_verification([write_graph6(build("complete", 2))])
        assert record.status == "ok"
        assert record.witness == "11"
        assert record.strategy == "complete-all-ones"
        assert (record.n, record.edges, record.diameter, record.rank) == (2, 1, 1, 2)

    def test_c5_with_twin(self):
        [record] = run_verification([write_graph6(build("c5-with-twin"))])
        assert record.status == "ok"
        assert record.strategy == "disjoint-neighborhood"
        assert record.witness == "111010"

    def test_malformed_line_among_valid(self):
        lines = [write_graph6(build("cycle", 5)), "!!!", write_graph6(build("path", 3))]
        records = list(run_verification(lines))
        assert len(records) == 3
        assert [r.status for r in records] == ["ok", "error", "ok"]
        assert records[1].reason

    def test_huge_header_is_an_error_record(self):
        # declares n = 2,000,000 and carries no edge bytes
        [record] = run_verification(["~~??FgQ?"])
        assert record.status == "error"
        assert "truncated" in record.reason

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        pool = RecordingPool()
        monkeypatch.setattr(rowspace.harness, "Pool", pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        lines = [write_graph6(build("cycle", n)) for n in range(3, 6)]
        records = list(run_verification(lines, jobs=10_000))
        assert pool.requested == [3]
        assert [r.status for r in records] == ["ok"] * 3

    def test_edgeless_skipped(self):
        [record] = run_verification([write_graph6(Graph(2, (0, 0)))])
        assert record.status == "skipped"
        assert record.edges == 0

    def test_disconnected_diameter_serializes_null(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        [record] = run_verification([write_graph6(g)])
        assert record.status == "ok"
        assert record.diameter is None
        assert json.loads(json.dumps(record.to_json()))["diameter"] is None

    def test_too_large_for_oracle(self):
        [record] = run_verification([write_graph6(co_c7())], oracle_limit=3)
        assert record.status == "skipped-too-large"
        assert record.reason

    def test_no_witness_status_requires_oracle(self):
        # constructive-only run on a graph only the oracle can handle
        [record] = run_verification([write_graph6(co_c7())], oracle_limit=0)
        assert record.status == "skipped-too-large"
        [record] = run_verification([write_graph6(co_c7())])
        assert record.status == "ok"
        assert record.strategy == "oracle"

    def test_records_are_self_verifying(self):
        lines = [
            write_graph6(build("star", 4)),
            write_graph6(build("petersen")),
            write_graph6(build("rank5-3")),
            write_graph6(build("wheel", 9)),
            write_graph6(co_c7()),
        ]
        for record in run_verification(lines):
            assert record.status == "ok"
            g = parse_graph6(record.graph6)
            assert verify_witness(g, record_witness(record))

    def test_parallel_preserves_order_and_content(self):
        lines = [write_graph6(build("cycle", n)) for n in range(3, 11)]
        serial = [r.to_json() for r in run_verification(lines)]
        parallel = [r.to_json() for r in run_verification(lines, jobs=2)]
        for a, b in zip(serial, parallel):
            a.pop("elapsed_us"), b.pop("elapsed_us")
            assert a == b

    def test_record_json_shape(self):
        [record] = run_verification([write_graph6(build("complete", 3))])
        payload = record.to_json()
        assert payload["certificate"] == ["1/2", "1/2", "1/2"]
        assert set(payload) == {
            "graph6", "status", "n", "edges", "diameter", "rank",
            "strategy", "witness", "certificate", "elapsed_us",
        }

    def test_rank_omitted_above_rank_limit(self):
        assert rowspace.harness.RANK_LIMIT == 256
        at, above = run_verification([write_graph6(build("path", n)) for n in (256, 257)])
        assert at.to_json()["rank"] == 256
        assert above.status == "ok" and above.reason is None
        assert "rank" not in above.to_json()

    def test_family_reads_rank_through_the_harness(self, monkeypatch, capsys):
        # one owner of the rank rule, calling the names a tracer swaps
        calls = []
        monkeypatch.setattr(rowspace.harness, "rank", lambda rows: calls.append(len(rows)) or -1)
        [record] = run_verification([write_graph6(build("cycle", 5))])
        assert main(["family", "--name", "cycle", "--size", "5"]) == 0
        assert "rank:     -1" in capsys.readouterr().out
        assert record.rank == -1 and calls == [5, 5]

    def test_oracle_scan_of_the_input_gives_its_rank(self, monkeypatch):
        # FUzro is the complement of C7: only the oracle answers, on g itself
        assert write_graph6(co_c7()) == "FUzro"

        def refuse(rows):
            raise AssertionError("the record eliminated A(g) a second time")

        monkeypatch.setattr(rowspace.harness, "rank", refuse)
        [record] = run_verification(["FUzro"])
        assert (record.status, record.strategy, record.rank) == ("ok", "oracle", 7)

    def test_oracle_scan_of_the_contraction_gives_its_rank(self, monkeypatch):
        # a co-C7 vertex doubled: the oracle scans the contraction, co-C7,
        # whose rank is g's, since twins have equal rows and columns
        def refuse(rows):
            raise AssertionError("the record eliminated A(g) a second time")

        monkeypatch.setattr(rowspace.harness, "rank", refuse)
        g = multiply_vertices(co_c7(), (2, 1, 1, 1, 1, 1, 1))
        [record] = run_verification([write_graph6(g)])
        assert (record.status, record.strategy, record.rank) == ("ok", "lifted", 7)

    def test_rank_of_a_graph_the_oracle_did_not_scan(self, monkeypatch):
        # a constructive answer, the oracle off, the oracle on the first
        # component only (co-C7 beside K2: 7 of rank 9), and on the twin
        # contraction of the first component only (doubled co-C7 beside
        # K2): each record eliminates A(g) itself
        real = rowspace.harness.rank
        calls = []
        monkeypatch.setattr(rowspace.harness, "rank", lambda rows: calls.append(len(rows)) or real(rows))
        doubled = multiply_vertices(co_c7(), (2, 1, 1, 1, 1, 1, 1))
        lines = [
            write_graph6(build("cycle", 5)),
            write_graph6(disjoint_union(co_c7(), build("complete", 2))),
            write_graph6(disjoint_union(doubled, build("complete", 2))),
        ]
        records = list(run_verification(lines))
        assert [(r.strategy, r.rank) for r in records] == [
            ("disjoint-neighborhood", 5), ("oracle", 9), ("lifted", 9),
        ]
        assert calls == [5, 9, 10]
        calls.clear()
        records = list(run_verification(["FUzro", write_graph6(doubled), *lines], oracle_limit=0))
        assert [r.rank for r in records] == [7, 7, 5, 9, 9]
        assert calls == [7, 8, 5, 9, 10]

    def test_one_ball_expansion_per_record(self, monkeypatch):
        # the record's diameter and diam-ge4, which declines on the wheel
        # before dominating-regular fires, read one expansion
        real = rowspace.graph._geodesic
        calls = []
        monkeypatch.setattr(rowspace.graph, "_geodesic", lambda g: calls.append(g) or real(g))
        [record] = run_verification([write_graph6(build("wheel", 7))])
        assert (record.diameter, record.strategy) == (2, "dominating-regular")
        assert len(calls) == 1

    def test_unresolved_reasons_are_pinned(self, monkeypatch):
        line = write_graph6(co_c7())
        [record] = run_verification([line], oracle_limit=3)
        assert (record.status, record.reason) == (
            "skipped-too-large",
            "no constructive strategy applied and n=7 exceeds the oracle bound 3",
        )
        monkeypatch.setattr(rowspace.harness, "find_witness", lambda g, limit: None)
        [record] = run_verification([line])
        assert (record.status, record.reason) == (
            "no-witness-found",
            "exhaustive candidate scan found no witness",
        )

    def test_oracle_limit_env_ignored(self, tmp_path, monkeypatch):
        # the bound is set by --oracle-limit alone, never by the environment
        source = tmp_path / "graphs.g6"
        source.write_text(write_graph6(co_c7()) + "\n")
        out = tmp_path / "report.jsonl"
        for value in ("3", "40", "many"):
            monkeypatch.setenv("ROWSPACE_ORACLE_LIMIT", value)
            assert main(["verify", "--input", str(source), "--out", str(out)]) == 0
            [record] = [json.loads(line) for line in out.read_text().splitlines()]
            assert (record["status"], record["strategy"]) == ("ok", "oracle")

    @pytest.mark.parametrize("limit", [-1, MAX_ORACLE_LIMIT + 1])
    def test_oracle_limit_rejected_when_called(self, limit):
        # raised by the call itself, before any record is asked for
        with pytest.raises(ValueError, match=f"outside 0..{MAX_ORACLE_LIMIT}"):
            run_verification(["C~"], oracle_limit=limit)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected_when_called(self, jobs):
        with pytest.raises(ValueError, match=f"--jobs {jobs} is below 1"):
            run_verification(["C~"], jobs=jobs)

    def test_internal_error_keeps_streaming(self, monkeypatch):
        real = rowspace.harness.find_witness
        calls = []

        def fails_on_second(g, limit):
            calls.append(g)
            if len(calls) == 2:
                raise RuntimeError("strategy produced an invalid witness")
            return real(g, limit)

        monkeypatch.setattr(rowspace.harness, "find_witness", fails_on_second)
        lines = [write_graph6(build("cycle", n)) for n in (4, 5, 6)]
        records = list(run_verification(lines))
        assert [r.status for r in records] == ["ok", "internal-error", "ok"]
        assert records[1].reason == "RuntimeError: strategy produced an invalid witness"
        assert set(records[1].to_json()) == {
            "graph6", "status", "reason", "elapsed_us",
        }


class TestCheckSizeBound:
    def test_c5_equality(self):
        [record] = check_size_bound([write_graph6(build("cycle", 5))])
        assert (record.order, record.size) == (5, 5)
        assert record.bound_2n_minus_5 == 5
        assert record.meets_bound and record.equality
        assert not record.has_dominating
        assert not record.is_violation()

    def test_petersen_equality(self):
        [record] = check_size_bound([write_graph6(build("petersen"))])
        assert (record.order, record.size, record.equality) == (10, 15, True)

    def test_wheel_has_dominating(self):
        [record] = check_size_bound([write_graph6(build("wheel", 9))])
        assert record.has_dominating
        assert not record.is_violation()  # bound not applicable

    def test_parse_error_record(self):
        [record] = check_size_bound(["!!!"])
        assert record.error
        assert record.to_json() == {"graph6": "!!!", "error": record.error}

    def test_violation_predicate(self):
        fabricated = SizeBoundRecord(
            graph6="x", order=9, size=12, has_dominating=False,
            diameter=2, bound_2n_minus_5=13, meets_bound=False, equality=False,
        )
        assert fabricated.is_violation()
        fabricated.diameter = 3
        assert not fabricated.is_violation()
