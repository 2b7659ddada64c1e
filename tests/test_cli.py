import json

import rowspace.harness
import rowspace.oracle
from conftest import ScanRecorder, co_c7, disjoint_union
from rowspace.cli import main
from rowspace.families import build
from rowspace.graph import Graph, multiply_vertices
from rowspace.graph6 import parse_graph6, write_graph6


class TestFamily:
    def test_emit_graph6(self, capsys):
        assert main(["family", "--name", "cycle", "--size", "5", "--emit-graph6"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_graph6(out) == build("cycle", 5)

    def test_summary(self, capsys):
        assert main(["family", "--name", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "order:    10" in out
        assert "rank:     10" in out

    def test_missing_size_is_an_error(self, capsys):
        assert main(["family", "--name", "cycle"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(
            "\n".join(write_graph6(build("cycle", n)) for n in (4, 5, 6)) + "\n"
        )
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--input", str(source), "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert all(r["status"] == "ok" for r in records)

    def test_oracle_limit_out_of_range(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "graphs.g6"
        source.write_text("C~\n")
        out = tmp_path / "report.jsonl"
        args = ["verify", "--input", str(source), "--out", str(out)]
        assert main(args + ["--oracle-limit", "-1"]) == 2
        assert "outside 0..20" in capsys.readouterr().err
        assert main(args + ["--oracle-limit", "21"]) == 2
        monkeypatch.setenv("ROWSPACE_ORACLE_LIMIT", "40")
        assert main(args) == 2
        assert main(["exhaustive", "--n", "3"]) == 2
        assert "ROWSPACE_ORACLE_LIMIT" in capsys.readouterr().err
        assert main(args + ["--oracle-limit", "20"]) == 0

    def test_error_exit_code(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text("C~\nnot-a-graph6-line!!!\n")
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--input", str(source), "--out", str(out)]) == 1
        statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
        assert statuses == ["ok", "error"]

    def test_oracle_limit_zero_is_constructive_only(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text(write_graph6(co_c7()) + "\n")
        out = tmp_path / "report.jsonl"
        args = ["verify", "--input", str(source), "--out", str(out), "--oracle-limit", "0"]
        assert main(args) == 0
        [record] = [json.loads(line) for line in out.read_text().splitlines()]
        assert (record["status"], record["reason"]) == (
            "skipped-too-large",
            "no constructive strategy applied and n=7 exceeds the oracle bound 0",
        )

    def test_counterexample_on_a_core_within_the_bound(self, tmp_path, monkeypatch):
        # Both inputs have 20 vertices, above the bound 16, but the search
        # ends on their 7-vertex core and the oracle scans it: a scan that
        # finds nothing there is a counterexample, not a skip.
        recorder = ScanRecorder()
        monkeypatch.setattr(rowspace.oracle, "brute_force_witness", recorder)
        core = co_c7()
        source = tmp_path / "graphs.g6"
        source.write_text(
            write_graph6(disjoint_union(core, Graph(13, (0,) * 13))) + "\n"
            + write_graph6(multiply_vertices(core, (3, 3, 3, 3, 3, 3, 2))) + "\n"
        )
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--input", str(source), "--out", str(out)]) == 3
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["n"], r["status"]) for r in records] == [(20, "no-witness-found")] * 2
        assert recorder.scanned == [7, 7]

    def test_counterexample_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rowspace.harness, "find_witness", lambda g, limit: None)
        source = tmp_path / "graphs.g6"
        out = tmp_path / "report.jsonl"
        args = ["verify", "--input", str(source), "--out", str(out)]
        source.write_text("C~\n")
        assert main(args) == 3
        # a counterexample outranks a parse error
        source.write_text("C~\nnot-a-graph6-line!!!\n")
        assert main(args) == 3
        statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
        assert statuses == ["no-witness-found", "error"]

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        real = rowspace.harness.find_witness

        def fails_on_k4(g, limit):
            if g == build("complete", 4):
                raise RuntimeError("boom")
            return real(g, limit)

        monkeypatch.setattr(rowspace.harness, "find_witness", fails_on_k4)
        source = tmp_path / "graphs.g6"
        out = tmp_path / "report.jsonl"
        args = ["verify", "--input", str(source), "--out", str(out)]
        source.write_text("Bw\nC~\nDhc\n")
        assert main(args) == 4
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["status"] for r in records] == ["ok", "internal-error", "ok"]
        assert records[1]["reason"] == "RuntimeError: boom"
        # an internal error outranks a parse error
        source.write_text("C~\nnot-a-graph6-line!!!\n")
        assert main(args) == 4


class TestExhaustive:
    def test_small_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["exhaustive", "--n", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["graphs_checked"] == 4
        assert report["failures"] == []

    def test_oracle_limit_below_n(self, tmp_path, capsys, monkeypatch):
        # the oracle never runs on the 5-vertex graphs, so the sweep used to
        # report the 90 graphs only the oracle decides as failures
        out = tmp_path / "report.json"
        assert main(["exhaustive", "--n", "5", "--oracle-limit", "3", "--out", str(out)]) == 2
        assert "oracle limit 3 < n=5" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setenv("ROWSPACE_ORACLE_LIMIT", "3")
        assert main(["exhaustive", "--n", "5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_bound_error(self, capsys):
        assert main(["exhaustive", "--n", "9"]) == 2
        assert "error" in capsys.readouterr().err


class TestSizeBound:
    def test_extremal_inputs(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text(
            "\n".join(
                [
                    write_graph6(build("cycle", 5)),
                    write_graph6(build("apexed-net")),
                    write_graph6(build("petersen")),
                    write_graph6(build("wheel", 9)),
                ]
            )
            + "\n"
        )
        out = tmp_path / "bounds.jsonl"
        assert main(["size-bound", "--input", str(source), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["equality"] for r in records] == [True, True, True, False]

    def test_parse_error_exit_code(self, tmp_path):
        source = tmp_path / "bad.g6"
        source.write_text("!!!\n")
        assert main(["size-bound", "--input", str(source), "--out", "-"]) == 1
