"""Reference oracle for differential tests of rowspace.oracle.

``brute_force_witness`` is the scan-then-solve search the library used
before it decided every candidate by the certificate solve: the echelon
form of A(g), the ascending scan that skips rows and reduces every other
candidate against it, then one solve for the first member. The library's
version, a solve per candidate, must return the same vector, candidate
count and certificate.
"""

from __future__ import annotations

from typing import Iterator

from rowspace.graph import Graph
from rowspace.linalg import adjacency_matrix, integer_row_echelon, solve_membership
from rowspace.oracle import OracleResult
from rowspace.witness import Strategy, Witness


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


def _scan(g: Graph, rows: list[list[int]]) -> Iterator[tuple[int, tuple[int, ...] | None]]:
    """Every witness in ascending binary order, each with the number of
    non-row candidates checked so far; a final ``(checked, None)`` carries
    the total. ``rows`` is A(g)."""
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


def brute_force_witness(g: Graph) -> OracleResult:
    """First witness in candidate scan order, with a solved certificate."""
    rows = adjacency_matrix(g)
    checked, vector = next(_scan(g, rows))
    if vector is None:
        return OracleResult(None, checked)
    cert = solve_membership(rows, vector)
    if cert is None:
        raise RuntimeError("echelon reduction and exact solve disagree")
    witness = Witness(vector, cert, Strategy.ORACLE)
    return OracleResult(witness, checked)
