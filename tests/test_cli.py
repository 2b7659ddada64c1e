import io
import json
import re
import sys
from pathlib import Path

import pytest

import rowspace
import rowspace.harness
import rowspace.oracle
from conftest import ScanRecorder, co_c7, disjoint_union
from rowspace.cli import main
from rowspace.families import build
from rowspace.graph import Graph, multiply_vertices
from rowspace.graph6 import parse_graph6, write_graph6

#: A line of one non-ASCII character (UTF-8 e-acute) and one ending in a
#: latin-1 no-break space, between two valid lines.
NON_ASCII_LINES = b"Dhc\n\xc3\xa9\nDhc\xa0\nDhc\n"


def _no_witness(g, limit):
    return None


def _fails(g, limit):
    raise RuntimeError("boom")


#: One ``verify`` record per status: (input line, options, stand-in for
#: ``find_witness``, the record as written with its timing key dropped).
VERIFY_RECORDS = [
    pytest.param(
        "Bw", [], None,
        '{"graph6": "Bw", "status": "ok", "n": 3, "edges": 3, "diameter": 1, "rank": 3, '
        '"strategy": "complete-all-ones", "witness": "111", "certificate": ["1/2", "1/2", "1/2"]}',
        id="ok",
    ),
    pytest.param(
        "C`", [], None,
        '{"graph6": "C`", "status": "ok", "n": 4, "edges": 2, "diameter": null, "rank": 4, '
        '"strategy": "complete-all-ones", "witness": "1100", '
        '"certificate": ["1/1", "1/1", "0/1", "0/1"]}',
        id="ok-disconnected",
    ),
    pytest.param(
        "A?", [], None,
        '{"graph6": "A?", "status": "skipped", "n": 2, "edges": 0, "diameter": null, "rank": 0, '
        '"reason": "graph has no edge; the searched property assumes one"}',
        id="skipped",
    ),
    pytest.param(
        "FUzro", ["--oracle-limit", "3"], None,
        '{"graph6": "FUzro", "status": "skipped-too-large", "n": 7, "edges": 14, "diameter": 2, '
        '"rank": 7, "reason": "no constructive strategy applied and n=7 exceeds the oracle bound 3"}',
        id="skipped-too-large",
    ),
    pytest.param(
        "!!!", [], None,
        '{"graph6": "!!!", "status": "error", '
        '"reason": "byte \'!\' outside graph6 range (byte offset 0)"}',
        id="error",
    ),
    pytest.param(
        "Bw", [], _fails,
        '{"graph6": "Bw", "status": "internal-error", "reason": "RuntimeError: boom"}',
        id="internal-error",
    ),
    pytest.param(
        "Bw", [], _no_witness,
        '{"graph6": "Bw", "status": "no-witness-found", "n": 3, "edges": 3, "diameter": 1, '
        '"rank": 3, "reason": "exhaustive candidate scan found no witness"}',
        id="no-witness-found",
    ),
]


def _from_file_and_stdin(tmp_path, monkeypatch, command: str, data: bytes):
    """(exit code, JSON records) of ``command`` reading ``data`` from a file,
    then from a UTF-8 stdin."""
    source = tmp_path / "input.g6"
    source.write_bytes(data)
    runs = []
    for k, path in enumerate([str(source), "-"]):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        out = tmp_path / f"out{k}.jsonl"
        code = main([command, "--input", path, "--out", str(out)])
        runs.append((code, [json.loads(line) for line in out.read_text().splitlines()]))
    return runs


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

    def test_rank_skipped_above_the_rank_limit(self, capsys):
        # the cubic rank at n = 3000 took about 20 minutes
        assert main(["family", "--name", "path", "--size", "300"]) == 0
        out = capsys.readouterr().out
        assert "order:    300" in out
        assert "diameter: 299" in out
        assert "rank:     skipped: n=300 exceeds the rank limit 256" in out

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
        assert "outside 0..20" in capsys.readouterr().err
        assert main(args + ["--oracle-limit", "20"]) == 0

    def test_bad_oracle_limit_leaves_out_unchanged(self, tmp_path, capsys):
        # the limit is refused before --out is opened
        source = tmp_path / "graphs.g6"
        source.write_text("C~\n")
        out = tmp_path / "report.jsonl"
        out.write_bytes(b"earlier report\n")
        assert main(["verify", "--input", str(source), "--out", str(out), "--oracle-limit", "21"]) == 2
        assert out.read_bytes() == b"earlier report\n"

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_refused(self, tmp_path, capsys, jobs):
        source = tmp_path / "graphs.g6"
        source.write_text("C~\n")
        out = tmp_path / "report.jsonl"
        out.write_bytes(b"earlier report\n")
        for argv in (
            ["verify", "--input", str(source), "--out", str(out), "--jobs", jobs],
            ["exhaustive", "--n", "3", "--out", str(out), "--jobs", jobs],
        ):
            assert main(argv) == 2
            assert f"--jobs {jobs} is below 1" in capsys.readouterr().err
            assert out.read_bytes() == b"earlier report\n"

    @pytest.mark.parametrize("line, options, find, expected", VERIFY_RECORDS)
    def test_record_line_is_pinned(self, tmp_path, monkeypatch, line, options, find, expected):
        # whole strings, so the key order counts
        if find is not None:
            monkeypatch.setattr(rowspace.harness, "find_witness", find)
        source = tmp_path / "graphs.g6"
        source.write_text(line + "\n")
        out = tmp_path / "report.jsonl"
        main(["verify", "--input", str(source), "--out", str(out), *options])
        [record] = [json.loads(text) for text in out.read_text().splitlines()]
        record.pop("elapsed_ms", None), record.pop("elapsed_us", None)
        assert json.dumps(record) == expected

    def test_error_exit_code(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text("C~\nnot-a-graph6-line!!!\n")
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--input", str(source), "--out", str(out)]) == 1
        statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
        assert statuses == ["ok", "error"]

    def test_non_ascii_bytes_are_error_records(self, tmp_path, monkeypatch):
        runs = _from_file_and_stdin(tmp_path, monkeypatch, "verify", NON_ASCII_LINES)
        for code, records in runs:
            assert code == 1
            assert [r["status"] for r in records] == ["ok", "error", "error", "ok"]
            assert [r["graph6"] for r in records[1:3]] == ["\xc3\xa9", "Dhc\xa0"]
            assert records[1]["reason"] == "byte '\xc3' outside graph6 range (byte offset 0)"
            assert records[2]["reason"] == "trailing garbage after graph6 data (byte offset 3)"
            for r in records:
                del r["elapsed_us"]
        assert runs[0] == runs[1]

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
        # the sweep takes no oracle limit: the default bound covers every n
        # the generator accepts, so no limit can leave a graph undecided
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["exhaustive", "--n", "5", "--oracle-limit", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle-limit 3" in capsys.readouterr().err
        assert not out.exists()
        for value in ("3", "many"):
            monkeypatch.setenv("ROWSPACE_ORACLE_LIMIT", value)
            assert main(["exhaustive", "--n", "5", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert (report["graphs_checked"], report["failures"]) == (728, [])

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def fails(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(rowspace.oracle, "find_witness", fails)
        out = tmp_path / "report.json"
        assert main(["exhaustive", "--n", "3", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "rowspace: internal error: RuntimeError: boom\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "out, message",
        [
            (".", "--out {path} is a directory"),
            ("missing/report.json", "--out {path} is in a missing directory"),
            ("", "--out is empty"),
        ],
        ids=["directory", "missing-parent", "empty"],
    )
    def test_unwritable_out_is_refused_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, out, message
    ):
        def sweep(*args, **kwargs):
            pytest.fail("the sweep ran before --out was checked")

        monkeypatch.setattr(rowspace.cli, "exhaustive_verify", sweep)
        path = str(tmp_path / out) if out else out
        assert main(["exhaustive", "--n", "6", "--out", path]) == 2
        assert capsys.readouterr().err == f"rowspace: error: {message.format(path=path)}\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_non_ascii_bytes_are_error_records(self, tmp_path, monkeypatch):
        runs = _from_file_and_stdin(tmp_path, monkeypatch, "size-bound", NON_ASCII_LINES)
        for code, records in runs:
            assert code == 1
            assert [r.get("error") is None for r in records] == [True, False, False, True]
            assert records[1] == {
                "graph6": "\xc3\xa9",
                "error": "byte '\xc3' outside graph6 range (byte offset 0)",
            }
        assert runs[0] == runs[1]

    def test_lines_are_pinned(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text("Dhc\nC`\n!!!\n")
        out = tmp_path / "bounds.jsonl"
        assert main(["size-bound", "--input", str(source), "--out", str(out)]) == 1
        assert out.read_text() == (
            '{"graph6": "Dhc", "order": 5, "size": 5, "has_dominating": false, "diameter": 2, '
            '"bound_2n_minus_5": 5, "meets_bound": true, "equality": true}\n'
            '{"graph6": "C`", "order": 4, "size": 2, "has_dominating": false, "diameter": null, '
            '"bound_2n_minus_5": 3, "meets_bound": false, "equality": false}\n'
            '{"graph6": "!!!", "error": "byte \'!\' outside graph6 range (byte offset 0)"}\n'
        )

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def fails(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(rowspace.harness, "diameter", fails)
        source = tmp_path / "graphs.g6"
        source.write_text("C~\n")
        assert main(["size-bound", "--input", str(source), "--out", "-"]) == 4
        assert capsys.readouterr().err == "rowspace: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("command", ["verify", "size-bound"])
def test_out_naming_the_input_is_refused(tmp_path, capsys, command):
    source = tmp_path / "graphs.g6"
    data = b"Dhc\nC~\n"
    source.write_bytes(data)
    # the same file reached by two spellings of its path
    same = f"{tmp_path}/./graphs.g6"
    assert main([command, "--input", str(source), "--out", same]) == 2
    assert "is the --input file" in capsys.readouterr().err
    assert source.read_bytes() == data


@pytest.mark.parametrize(
    "stream, argv",
    [
        ("stdin", ["verify"]),
        ("stdout", ["verify", "--input", "{source}"]),
        ("stdout", ["exhaustive", "--n", "3"]),
    ],
    ids=["verify-stdin", "verify-stdout", "exhaustive-stdout"],
)
def test_closed_standard_stream_is_a_file_error(tmp_path, capsys, monkeypatch, stream, argv):
    # a process started with the stream closed sees None in its place
    source = tmp_path / "graphs.g6"
    source.write_text("C~\n")
    monkeypatch.setattr(sys, stream, None)
    assert main([arg.format(source=source) for arg in argv]) == 2
    assert capsys.readouterr().err == f"rowspace: error: {stream} is closed\n"


def test_no_module_reads_the_environment():
    # every setting is a command-line option or a keyword argument
    package = Path(rowspace.__file__).parent
    readers = [
        f"{path.name}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(environ|getenv|getenvb)\b", line)
    ]
    assert readers == []
