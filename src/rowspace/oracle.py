"""Brute-force ground truth for the witness engine.

``brute_force_witness`` scans every non-zero (0,1)-vector in ascending
binary order (the vector read as a little-endian integer), skips actual
rows, and decides row-space membership by reducing the candidate against a
row-echelon form of the adjacency matrix computed once per graph. This is
the definitional search: whatever the constructive strategies claim must
agree with it.

``exhaustive_verify`` runs the full engine (constructive strategies with
oracle fallback at the default bound) over every labeled connected graph
with at least one edge on n vertices, recording any graph for which no
witness exists. The labeled generator does not deduplicate isomorphs;
redundancy only costs time at the supported sizes (n <= 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .graph import Graph, reachable
from .graph6 import write_graph6
from .harness import parallel_map, worker_count
from .linalg import adjacency_matrix, integer_row_echelon, solve_membership
from .witness import DEFAULT_ORACLE_LIMIT, Strategy, Witness, check_oracle_limit, find_witness

GENERATOR_LIMIT = 7


class CapacityError(ValueError):
    """Input exceeds a configured exhaustive-search bound."""


@dataclass(frozen=True)
class OracleResult:
    witness: Witness | None
    candidates_checked: int

    @property
    def found(self) -> bool:
        return self.witness is not None


@dataclass
class ExhaustiveReport:
    n: int
    graphs_checked: int
    failures: list[str] = field(default_factory=list)
    strategy_histogram: dict[str, int] = field(default_factory=dict)


def _reduces_to_zero(echelon: list[list[int]], pivots: list[int], x: list[int]) -> bool:
    # x is in the row space iff appending it adds no pivot, i.e. iff the
    # echelon rows eliminate it completely. Scaling by the pivot keeps the
    # arithmetic integral; only zero-ness of the result matters.
    y = x
    for row, pc in zip(echelon, pivots):
        yp = y[pc]
        if yp:
            p = row[pc]
            y = [p * a - yp * b for a, b in zip(y, row)]
    return not any(y)


def _adjacency_rows(g: Graph, limit: int) -> list[list[int]]:
    """A(g) for a scan, once the bound allows it: ValueError for a limit
    outside 0..MAX_ORACLE_LIMIT, CapacityError for n above the limit."""
    check_oracle_limit(limit)
    if g.n > limit:
        raise CapacityError(f"n={g.n} exceeds the oracle bound {limit}")
    return adjacency_matrix(g)


def _scan(g: Graph, rows: list[list[int]]) -> Iterator[tuple[int, tuple[int, ...] | None]]:
    """Every witness in ascending binary order, each with the number of
    non-row candidates checked so far; a final ``(checked, None)`` carries
    the total. ``rows`` is A(g) from ``_adjacency_rows``."""
    echelon, pivots = integer_row_echelon(rows)
    row_masks = set(g.adj)
    checked = 0
    for mask in range(1, 1 << g.n):
        if mask in row_masks:
            continue
        checked += 1
        x = [(mask >> j) & 1 for j in range(g.n)]
        if _reduces_to_zero(echelon, pivots, x):
            yield checked, tuple(x)
    yield checked, None


def brute_force_witness(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> OracleResult:
    """First witness in candidate scan order, with a solved certificate."""
    rows = _adjacency_rows(g, limit)
    checked, vector = next(_scan(g, rows))
    if vector is None:
        return OracleResult(None, checked)
    cert = solve_membership(rows, vector)
    if cert is None:
        raise RuntimeError("echelon reduction and exact solve disagree")
    witness = Witness(vector, cert, Strategy.ORACLE)
    return OracleResult(witness, checked)


def enumerate_all_witnesses(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> list[tuple[int, ...]]:
    """Every qualifying (0,1)-vector, in ascending binary order."""
    return [x for _, x in _scan(g, _adjacency_rows(g, limit)) if x is not None]


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    if n > GENERATOR_LIMIT:
        raise CapacityError(
            f"built-in generator covers n <= {GENERATOR_LIMIT}; feed graph6 input instead"
        )
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _mask_graph(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph | None:
    """Graph for an edge-subset mask, or None if disconnected."""
    adj = [0] * n
    m = mask
    while m:
        low = m & -m
        m ^= low
        i, j = pairs[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if reachable(adj, 1) != (1 << n) - 1:
        return None
    return Graph(n, tuple(adj))


def _connected_graphs(n: int, start: int, stop: int) -> Iterator[Graph]:
    """Connected graphs of the edge-subset masks in [max(start, 1), stop)."""
    pairs = _edge_pairs(n)
    for mask in range(max(start, 1), stop):
        g = _mask_graph(n, mask, pairs)
        if g is not None:
            yield g


def iter_connected_graphs(n: int) -> Iterator[Graph]:
    """All labeled connected graphs with >= 1 edge on n vertices."""
    return _connected_graphs(n, 1, 1 << len(_edge_pairs(n)))


def _scan_chunk(args: tuple[int, int, int]) -> tuple[int, list[str], dict[str, int]]:
    n, start, stop = args
    checked = 0
    failures: list[str] = []
    histogram: dict[str, int] = {}
    for g in _connected_graphs(n, start, stop):
        checked += 1
        w = find_witness(g)
        if w is None:
            failures.append(write_graph6(g))
        else:
            key = w.strategy.value
            histogram[key] = histogram.get(key, 0) + 1
    return checked, failures, histogram


def exhaustive_verify(n: int, jobs: int = 1) -> ExhaustiveReport:
    """Check the witness engine on every labeled connected n-vertex graph.

    ``failures`` lists (as graph6) every graph for which no witness exists;
    an empty list means the searched property held throughout. The oracle
    runs at its default bound, which covers every n the generator accepts,
    so every graph is decided. The edge-mask index range is cut into 16
    chunks per worker (at most one mask each), which ``parallel_map`` runs
    on up to ``jobs`` processes, or in this process when one worker is
    left; the partial reports are merged in chunk order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1 << len(_edge_pairs(n))
    jobs = worker_count(jobs)
    nchunks = min(total, jobs * 16)
    bounds = [total * k // nchunks for k in range(nchunks + 1)]
    chunks = [(n, bounds[k], bounds[k + 1]) for k in range(nchunks)]
    report = ExhaustiveReport(n=n, graphs_checked=0)
    for checked, failures, histogram in parallel_map(_scan_chunk, chunks, jobs):
        report.graphs_checked += checked
        report.failures.extend(failures)
        for key, count in histogram.items():
            report.strategy_histogram[key] = report.strategy_histogram.get(key, 0) + count
    report.failures.sort()
    return report
