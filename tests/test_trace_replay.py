"""The benchmark's traced run must still fit the package.

``benchmarks/tracing.py`` rebuilds ``find_witness``'s dispatch from public
calls (``DispatchReplay``) and swaps the names the harness and the oracle
imported for span-recording wrappers (``interposed``). A change under
``src/`` that renames one of those names, or that makes the real dispatch
part from the replayed one, breaks traced benchmark runs; this test loads
the tracer by path, as the benchmark does, and fails first.

The package is looked up when the test runs, not when this file is
imported: the benchmark's runner imports ``rowspace`` afresh, and names
taken before that would mix the old modules' classes with the new ones.
"""

import importlib
import importlib.util
from itertools import combinations
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def octahedron(rowspace):
    """K_{2,2,2}: three twin pairs, so only twin contraction (to K3) fires."""
    missing = {(0, 1), (2, 3), (4, 5)}
    edges = [p for p in combinations(range(6), 2) if p not in missing]
    return rowspace.Graph.from_edges(6, edges)


def co_c7(rowspace):
    """Complement of the 7-cycle: reduced, and only the oracle fires."""
    c7 = rowspace.build("cycle", 7)
    full = (1 << 7) - 1
    return rowspace.Graph(7, tuple(full ^ nb ^ (1 << v) for v, nb in enumerate(c7.adj)))


def test_replay_matches_find_witness():
    rowspace = importlib.import_module("rowspace")
    build, write_graph6 = rowspace.build, rowspace.write_graph6
    run_verification = rowspace.run_verification
    tracing = load_tracing()
    graphs = [
        build("complete", 4),
        build("cycle", 5),
        build("path", 6),
        build("wheel", 7),
        build("rank5-3"),
        octahedron(rowspace),
        co_c7(rowspace),
    ]
    tracer = tracing.Tracer()
    replay = tracing.DispatchReplay(rowspace, tracer)
    with tracing.interposed(tracer, rowspace, replay):
        records = list(run_verification([write_graph6(g) for g in graphs]))
    assert [r.status for r in records] == ["ok"] * len(graphs)
    assert [r.strategy for r in records] == [
        "complete-all-ones",
        "disjoint-neighborhood",
        "disjoint-neighborhood",
        "dominating-regular",
        "catalog-rank5",
        "lifted",
        "oracle",
    ]
    assert len(replay.log) == len(graphs)
    assert replay.mismatches() == []
    # the interposed names were really called through the wrappers
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"graph6.parse_graph6", "linalg.rank", "witness.lifted",
            "oracle.brute_force_witness", "linalg.solve_membership"} <= names
