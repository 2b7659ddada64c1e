"""Exact integer linear algebra for adjacency-matrix work.

Everything here is exact and fraction-free: matrices are lists of integer
rows, rank is the pivot count of a fraction-free (Bareiss) row echelon
form, and row-space membership answers come with a certificate of integer
numerators over one common denominator D, re-verified in integers
(sum of num_u * row_u equals D * x) before it is returned. ``Fraction``
appears only where the certificate is handed out.

Membership is decided over the rationals. That loses nothing against the
reals: a linear system with rational coefficients and rational right-hand
side that is solvable over R is solvable over Q, because Gaussian
elimination never leaves the ground field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import Graph


@dataclass(frozen=True)
class MembershipCertificate:
    """Coefficients c proving that A^t c equals ``target`` exactly."""

    coefficients: tuple[Fraction, ...]
    target: tuple[int, ...]


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """Symmetric 0/1 integer rows with zero diagonal, in the graph's vertex order."""
    return [[(nb >> j) & 1 for j in range(g.n)] for nb in g.adj]


def _width(rows: Sequence[Sequence[int]]) -> int:
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return ncols


def integer_row_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    One-step Bareiss elimination: all intermediate entries are minors of the
    input, so they stay integral and growth is polynomial. The pivot is the
    first nonzero entry in column scan order, which makes the result
    deterministic. Returns the nonzero echelon rows and their pivot columns;
    the row space is preserved exactly.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    piv_r = 0
    prev = 1
    pivot_cols: list[int] = []
    for piv_c in range(ncols):
        pr = next((i for i in range(piv_r, nrows) if work[i][piv_c]), None)
        if pr is None:
            continue
        work[piv_r], work[pr] = work[pr], work[piv_r]
        pivot_row = work[piv_r]
        pivot = pivot_row[piv_c]
        tail = pivot_row[piv_c + 1 :]
        # The update is applied to every row below the pivot, including rows
        # with a zero in the pivot column: the exactness of the division by
        # the previous pivot needs all rows advanced in lockstep.
        for i in range(piv_r + 1, nrows):
            ri = work[i]
            fi = ri[piv_c]
            head = ri[:piv_c]  # already zero left of the pivot column
            if fi:
                if prev == 1:
                    body = [pivot * a - fi * b for a, b in zip(ri[piv_c + 1 :], tail)]
                else:
                    body = [
                        (pivot * a - fi * b) // prev
                        for a, b in zip(ri[piv_c + 1 :], tail)
                    ]
            elif pivot == prev:
                continue
            else:
                body = [pivot * a // prev for a in ri[piv_c + 1 :]]
            work[i] = head + [0] + body
        prev = pivot
        pivot_cols.append(piv_c)
        piv_r += 1
        if piv_r == nrows:
            break
    return work[:piv_r], pivot_cols


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the pivot count of the integer echelon form."""
    _width(rows)
    return len(integer_row_echelon(rows)[1])


def solve_membership(rows: Sequence[Sequence[int]], x: Sequence[int]) -> MembershipCertificate | None:
    """Certificate c with sum(c_u * rows[u]) = x if x lies in the row space, else None.

    One Bareiss pass over the augmented system (equation i: column i of the
    rows dotted with c equals x[i]) picks the same pivots as Gaussian
    elimination, and all free variables are set to zero, so identical inputs
    give identical certificates. Back-substitution yields integer numerators
    over the common denominator D, the last pivot: by Cramer's rule D times
    the solution is integral. The identity sum(num_u * rows[u]) = D * x is
    re-verified in integers before return.
    """
    ncols = _width(rows)
    if len(x) != ncols:
        raise ValueError(f"vector has length {len(x)}, matrix has {ncols} columns")
    ncoef = len(rows)
    target = tuple(int(e) for e in x)
    aug = [list(col) + [b] for col, b in zip(zip(*rows), target)]
    echelon, pivots = integer_row_echelon(aug)
    if pivots and pivots[-1] == ncoef:
        return None
    denom = echelon[-1][pivots[-1]] if pivots else 1
    nums = [0] * ncoef
    for r in range(len(pivots) - 1, -1, -1):
        row = echelon[r]
        s = denom * row[ncoef] - sum(row[pc] * nums[pc] for pc in pivots[r + 1 :])
        nums[pivots[r]] = s // row[pivots[r]]
    acc = [0] * ncols
    for num, row in zip(nums, rows):
        if num:
            for j, a in enumerate(row):
                if a:
                    acc[j] += num * a
    if acc != [denom * b for b in target]:
        raise RuntimeError("certificate failed exact re-verification")
    return MembershipCertificate(tuple(Fraction(num, denom) for num in nums), target)

