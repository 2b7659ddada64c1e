"""Tests of the benchmark itself: seeded inputs, the independent references,
and one short run of every workload in both modes.

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rs():
    return run._import_rowspace()


def test_inputs_are_deterministic_per_seed(rs):
    assert run.build_verify(rs, 3) == run.build_verify(rs, 3)
    assert run.build_verify(rs, 3) != run.build_verify(rs, 4)
    proof3 = [(label, g.adj) for label, g in run.build_proof(rs, 3)]
    assert proof3 == [(label, g.adj) for label, g in run.build_proof(rs, 3)]
    assert proof3 != [(label, g.adj) for label, g in run.build_proof(rs, 4)]


def test_seed_changes_graphs_but_not_composition(rs):
    def shape(corpus):
        return sorted((line.group, line.n, line.unresolved) for line in corpus)

    assert shape(run.build_verify(rs, 3)) == shape(run.build_verify(rs, 4))
    assert [(label, g.n) for label, g in run.build_proof(rs, 3)] == [
        (label, g.n) for label, g in run.build_proof(rs, 4)
    ]


def test_encoder_agrees_with_the_program(rs):
    for line in run.build_verify(rs, 5):
        assert rs.graph6.write_graph6(rs.graph.Graph(line.n, line.adj)) == line.graph6


@pytest.mark.parametrize("family", [("cycle", 8), ("path", 7), ("petersen", None), ("complete", 5)])
def test_reference_count_agrees_with_enumeration(rs, family):
    g = rs.families.build(*family)
    assert inputs.reference_witness_count(g.adj) == len(rs.oracle.enumerate_all_witnesses(g))


def test_reference_count_on_a_singular_blow_up(rs):
    g = rs.graph.multiply_vertices(rs.families.cycle(5), [2, 1, 3, 1, 1])
    assert inputs.kernel_basis(g.adj)
    assert inputs.reference_witness_count(g.adj) == len(rs.oracle.enumerate_all_witnesses(g))


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    done = _run(tmp_path, "verify-corpus", 0)
    assert done.returncode != 0
    assert "{" not in done.stdout
