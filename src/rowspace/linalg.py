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
from operator import mul
from typing import Sequence

from .graph import Graph


@dataclass(frozen=True)
class MembershipCertificate:
    """Coefficients c proving that A^t c equals ``target`` exactly."""

    coefficients: tuple[Fraction, ...]
    target: tuple[int, ...]


_ZERO = Fraction(0)
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_vector(mask: int, n: int) -> list[int]:
    """The n-entry 0/1 vector whose entry v is bit v of ``mask``, n >= 1.

    ``bin`` of the mask with a sentinel bit n set is "0b1" and the mask's n
    binary digits; reversed and cut before the sentinel, bit 0 comes first.
    The digits translate to the bytes 0 and 1, and listing the bytes gives
    the ints. ValueError for a bit at or above n (the string would hold
    more than n digits) or a negative mask.
    """
    if mask >> n:
        raise ValueError(f"mask {mask} does not fit in {n} bits")
    return list(bin(mask | 1 << n)[:2:-1].encode().translate(_BITS))


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """Symmetric 0/1 integer rows with zero diagonal, in the graph's vertex
    order: row v is the bit vector of v's neighbour mask."""
    return [_bit_vector(nb, g.n) for nb in g.adj]


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
    the row space is preserved exactly. Ragged rows raise ValueError.

    A row with a zero in the pivot column is not rescaled by pivot/prev at
    that step. ``since[i]`` is the pivot of the step that last rewrote row
    i (1 at the start); the skipped factors telescope, so the row's Bareiss
    value is ``row * prev // since[i]``, exactly, being a row of minors. The
    factor is applied when the row is next used: as the pivot row, or folded
    into the division of its next update. The returned rows, all pivot rows,
    are the lockstep elimination's rows entry for entry.
    """
    ncols = _width(rows)
    work = [list(r) for r in rows]
    nrows = len(work)
    since = [1] * nrows
    piv_r = 0
    prev = 1
    pivot_cols: list[int] = []
    for piv_c in range(ncols):
        for pr in range(piv_r, nrows):
            if work[pr][piv_c]:
                break
        else:
            continue
        work[piv_r], work[pr] = work[pr], work[piv_r]
        since[piv_r], since[pr] = since[pr], since[piv_r]
        pivot_row = work[piv_r]
        d = since[piv_r]
        if d != prev:
            pivot_row[piv_c:] = [a * prev // d for a in pivot_row[piv_c:]]
        pivot = pivot_row[piv_c]
        tail = pivot_row[piv_c + 1 :]
        for i in range(piv_r + 1, nrows):
            ri = work[i]
            fi = ri[piv_c]
            if not fi:
                continue
            d = since[i]
            # d == 1 (an untouched row, or one last rewritten by a pivot of 1): no division.
            if d == 1:
                ri[piv_c + 1 :] = [pivot * a - fi * b for a, b in zip(ri[piv_c + 1 :], tail)]
            else:
                ri[piv_c + 1 :] = [(pivot * a - fi * b) // d for a, b in zip(ri[piv_c + 1 :], tail)]
            ri[piv_c] = 0
            since[i] = pivot
        prev = pivot
        pivot_cols.append(piv_c)
        piv_r += 1
        if piv_r == nrows:
            break
    return work[:piv_r], pivot_cols


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the pivot count of the integer echelon form."""
    return len(integer_row_echelon(rows)[1])


def solve_membership(
    rows: Sequence[Sequence[int]], x: Sequence[int], pivots_out: list[int] | None = None
) -> MembershipCertificate | None:
    """Certificate c with sum(c_u * rows[u]) = x if x lies in the row space, else None.

    One Bareiss pass over the augmented system (equation i: column i of the
    rows dotted with c equals x[i]) picks the same pivots as Gaussian
    elimination, and all free variables are set to zero, so identical inputs
    give identical certificates. Back-substitution yields integer numerators
    over the common denominator D, the last pivot: by Cramer's rule D times
    the solution is integral. The identity sum(num_u * rows[u]) = D * x is
    re-verified in integers before return. The pass's pivot columns are
    appended to ``pivots_out`` when given: those below ``len(rows)`` count
    the rank of the system's matrix, the transpose of ``rows``, which is the
    rank of ``rows``; one at ``len(rows)`` means x is no member.
    """
    ncols = _width(rows)
    if len(x) != ncols:
        raise ValueError(f"vector has length {len(x)}, matrix has {ncols} columns")
    ncoef = len(rows)
    target = tuple(map(int, x))
    aug = [list(col) + [b] for col, b in zip(zip(*rows), target)]
    echelon, pivots = integer_row_echelon(aug)
    if pivots_out is not None:
        pivots_out.extend(pivots)
    if pivots and pivots[-1] == ncoef:
        return None
    denom = echelon[-1][pivots[-1]] if pivots else 1
    nums = [0] * ncoef
    # Back-substitution from the last pivot: nums is still 0 at this pivot
    # and at every free column, so the dot product from the pivot on sums
    # exactly over the later pivots, which are solved.
    for row, pc in zip(reversed(echelon), reversed(pivots)):
        s = denom * row[ncoef] - sum(map(mul, row[pc:ncoef], nums[pc:]))
        nums[pc] = s // row[pc]
    acc = [0] * ncols
    for num, row in zip(nums, rows):
        if num:
            acc = [a + num * b for a, b in zip(acc, row)]
    if acc != [denom * b for b in target]:
        raise RuntimeError("certificate failed exact re-verification")
    return MembershipCertificate(tuple(Fraction(num, denom) if num else _ZERO for num in nums), target)

