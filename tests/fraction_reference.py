"""Reference ``Fraction`` kernel for differential tests of rowspace.linalg.

Plain rational Gaussian elimination with the library's pivot rule (first
nonzero entry in column scan order, free variables set to zero), sharing
no arithmetic with the integer Bareiss kernel under test. Both kernels
therefore have one solution to agree on, and certificates must compare
equal value for value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from rowspace.linalg import MembershipCertificate


def combine_rows(rows: Sequence[Sequence[int]], coefficients: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """The row-space element sum(coefficients[i] * rows[i]), in Fractions."""
    if len(coefficients) != len(rows):
        raise ValueError("one coefficient per row required")
    ncols = len(rows[0]) if rows else 0
    out = [Fraction(0)] * ncols
    for c, row in zip(coefficients, rows):
        if c:
            for j in range(ncols):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


def solve_membership(rows: Sequence[Sequence[int]], x: Sequence[int]) -> MembershipCertificate | None:
    """Certificate c with sum(c_i * rows[i]) = x, by Fraction elimination."""
    ncoef = len(rows)
    ncols = len(rows[0]) if rows else 0
    if len(x) != ncols:
        raise ValueError(f"vector has length {len(x)}, matrix has {ncols} columns")
    aug = [
        [Fraction(rows[k][i]) for k in range(ncoef)] + [Fraction(x[i])]
        for i in range(ncols)
    ]
    piv_r = 0
    pivots: list[int] = []
    for piv_c in range(ncoef):
        pr = next((r for r in range(piv_r, len(aug)) if aug[r][piv_c]), None)
        if pr is None:
            continue
        aug[piv_r], aug[pr] = aug[pr], aug[piv_r]
        pivot_row = aug[piv_r]
        pivot = pivot_row[piv_c]
        for r in range(piv_r + 1, len(aug)):
            f = aug[r][piv_c]
            if f:
                aug[r] = [a - f / pivot * b for a, b in zip(aug[r], pivot_row)]
        pivots.append(piv_c)
        piv_r += 1
    for r in range(piv_r, len(aug)):
        if aug[r][ncoef] != 0:
            return None
    coeffs = [Fraction(0)] * ncoef
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = aug[r][ncoef]
        for j in range(pc + 1, ncoef):
            s -= aug[r][j] * coeffs[j]
        coeffs[pc] = s / aug[r][pc]
    if combine_rows(rows, coeffs) != tuple(Fraction(e) for e in x):
        raise RuntimeError("certificate failed exact re-verification")
    return MembershipCertificate(tuple(coeffs), tuple(int(e) for e in x))
