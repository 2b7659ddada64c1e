"""Brute-force ground truth for the witness engine.

``brute_force_witness`` walks the candidates, every non-zero (0,1)-vector
that is not a row, in ascending binary order (the vector read as a
little-endian integer), and decides each with the certificate solve; the
first certificate is the witness, and each solve's pivots give the rank
of the adjacency matrix, which it keeps on the graph. This is the
definitional search: whatever the constructive strategies claim must agree
with it.
``enumerate_all_witnesses`` lists every witness. It scans the twin
contraction, whose witnesses block-repeat to the graph's, and lists every
non-row of a nonsingular contraction unreduced; a singular one's non-rows
are reduced against one echelon form.

``exhaustive_verify`` runs the full engine (constructive strategies with
oracle fallback at the default bound) over every labeled connected graph
with at least one edge on n vertices, recording any graph for which no
witness exists. The labeled generator does not deduplicate isomorphs;
redundancy only costs time at the supported sizes (n <= 7). It walks the
edge masks in ascending order as a binary counter, flipping the edges of
the bits that change in one adjacency list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .graph import Graph, _keep_component, _keep_rank, induced_subgraph, reachable
from .graph6 import write_graph6
from .harness import parallel_map, worker_count
from .linalg import _bit_vector, adjacency_matrix, integer_row_echelon, solve_membership
from .witness import (
    DEFAULT_ORACLE_LIMIT,
    Strategy,
    Witness,
    _repeat,
    _twin_classes,
    check_oracle_limit,
    find_witness,
)

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


def _check_order(g: Graph, limit: int) -> None:
    """The bound on a scan of g: ValueError for a limit outside
    0..MAX_ORACLE_LIMIT, CapacityError for n above the limit."""
    check_oracle_limit(limit)
    if g.n > limit:
        raise CapacityError(f"n={g.n} exceeds the oracle bound {limit}")


def brute_force_witness(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> OracleResult:
    """First witness in ascending candidate order, each candidate decided
    by ``solve_membership``; ``candidates_checked`` counts the candidates up
    to and including the witness, or all of them when none is a member.
    Each solve eliminates [A(g)^T | x], and its pivots below column n count
    rank(A(g)^T) = rank(A(g)), which g keeps (``graph._keep_rank``). A first
    candidate always exists: a lone vertex's row is 0, and from n = 2 on n
    rows are fewer than the 2^n - 1 non-zero masks.
    """
    _check_order(g, limit)
    rows = adjacency_matrix(g)
    row_masks = set(g.adj)
    checked = 0
    for mask in range(1, 1 << g.n):
        if mask in row_masks:
            continue
        checked += 1
        vector = tuple(_bit_vector(mask, g.n))
        pivots: list[int] = []
        cert = solve_membership(rows, vector, pivots)
        _keep_rank(g, sum(pc < g.n for pc in pivots))
        if cert is not None:
            return OracleResult(Witness(vector, cert, Strategy.ORACLE), checked)
    return OracleResult(None, checked)


def enumerate_all_witnesses(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> list[tuple[int, ...]]:
    """Every qualifying (0,1)-vector of g, in g's ascending binary order;
    CapacityError when g.n > limit, whatever the contraction's order.

    The scan runs on the twin contraction h, one vertex per class of
    ``witness._twin_classes`` over all of g (the isolated vertices form
    one class). Twins have equal rows, so g's witnesses are the block
    repeats (``witness._repeat``) of h's, sorted into g's order. When A(h)
    is nonsingular every non-row of h is a member; otherwise each is
    reduced against the echelon form of A(h).
    """
    _check_order(g, limit)
    classes = _twin_classes(g, (1 << g.n) - 1)
    h = g if len(classes) == g.n else induced_subgraph(g, [c[0] for c in classes])
    echelon, pivots = integer_row_echelon(adjacency_matrix(h))
    row_masks = set(h.adj)
    candidates = (_bit_vector(mask, h.n) for mask in range(1, 1 << h.n) if mask not in row_masks)
    if len(pivots) < h.n:
        candidates = (x for x in candidates if _reduces_to_zero(echelon, pivots, x))
    if h is g:
        return list(map(tuple, candidates))
    return sorted((tuple(_repeat(x, classes, g.n)) for x in candidates), key=lambda v: v[::-1])


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > GENERATOR_LIMIT:
        raise CapacityError(
            f"built-in generator covers n <= {GENERATOR_LIMIT}; feed graph6 input instead"
        )
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _connected_graphs(n: int, start: int, stop: int) -> Iterator[Graph]:
    """Connected graphs of the edge-subset masks in [max(start, 1), stop).

    A binary counter: going from mask - 1 to mask flips the bits of
    mask ^ (mask - 1), two on average, so one adjacency list, built for the
    mask before the first, follows the walk by flipping their pairs' edges.
    Only a mask whose adjacency list reaches every vertex from vertex 0
    becomes a graph, and it keeps that bitset as its ``_component`` for
    ``find_witness``.
    """
    pairs = _edge_pairs(n)
    start = max(start, 1)
    adj = [0] * n
    for k, (i, j) in enumerate(pairs):
        if (start - 1) >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    full = (1 << n) - 1
    for mask in range(start, stop):
        for i, j in pairs[: (mask & -mask).bit_length()]:
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
        if reachable(adj, 1) == full:
            g = Graph._trusted(n, tuple(adj))
            _keep_component(g, full)
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
