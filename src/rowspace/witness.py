"""Constructive strategies producing certified (0,1)-vector witnesses.

A witness for a graph G is a non-zero (0,1)-vector that lies in the row
space of the adjacency matrix A(G) but does not occur as a row of A(G).
Each strategy here covers a structural class of graphs and produces the
witness together with an explicit rational coefficient vector c satisfying
A^t c = witness, so every answer can be checked by exact multiplication.

Strategies:

* complete-all-ones     -- complete graphs: all-ones = sum of rows / (n-1).
* disjoint-neighborhood -- an edge uv with nbd(u) and nbd(v) disjoint: the
  row sum R_u + R_v is 0/1-valued, and a row equal to it would belong to a
  common neighbor of u and v. Covers pendant edges and hence all trees.
* diam-ge4-path         -- diameter >= 4: along a diametral geodesic
  p_0..p_l the rows of p_1 and p_l sum to a 0/1 vector (a vertex adjacent
  to both would shortcut the geodesic to length <= 3), and a row equal to
  the sum would be adjacent to p_0 and p_{l-1}, again a length-3 shortcut.
* dominating-regular    -- a unique dominating vertex with all other
  degrees equal to d: all-ones = (n-d)/(n-1) R_dom + 1/(n-1) sum(others).
* catalog-rank5         -- four hard-coded singular rank-5 graphs with
  pinned half-integer row combinations.
* lifted                -- blow-ups: a witness of the twin-contracted graph
  block-repeats to a witness of the original.
* oracle                -- exhaustive scan fallback (see rowspace.oracle).

``find_witness`` dispatches in the fixed order above (cheapest structural
tests first) and verifies every witness before returning it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import families
from .graph import (
    Graph,
    connected_components,
    diametral_geodesic,
    find_adjacent_disjoint_pair,
    induced_subgraph,
    iter_bits,
    multiply_vertices,
)
from .linalg import MembershipCertificate

DEFAULT_ORACLE_LIMIT = 16

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class Strategy(str, enum.Enum):
    COMPLETE = "complete-all-ones"
    DIAM_GE4 = "diam-ge4-path"
    DISJOINT_NBHD = "disjoint-neighborhood"
    DOMINATING_REGULAR = "dominating-regular"
    LIFTED = "lifted"
    CATALOG_RANK5 = "catalog-rank5"
    ORACLE = "oracle"


@dataclass(frozen=True)
class Witness:
    """A certified witness: ``vector`` = A^t ``certificate.coefficients``."""

    vector: tuple[int, ...]
    certificate: MembershipCertificate
    strategy: Strategy


@dataclass(frozen=True)
class StrategyOutcome:
    applicable: bool
    witness: Witness | None = None
    reason: str | None = None


class LiftedVectorIsRowError(Exception):
    """A lifted vector turned out to occur as a row of the blown-up graph.

    Membership lifting alone does not rule this out, so it is reported as a
    recoverable strategy failure rather than an internal error. It cannot
    happen when the input witness is valid: rows of the blow-up are exactly
    the block-repeats of original rows, and block-repetition is injective.
    """


def _vector_mask(vector: tuple[int, ...]) -> int:
    mask = 0
    for v, x in enumerate(vector):
        if x:
            mask |= 1 << v
    return mask


def _mask_vector(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> v) & 1 for v in range(n))


def verify_witness(g: Graph, w: Witness) -> bool:
    """Exact check of every witness invariant, in integers.

    True iff the vector is non-zero and 0/1-valued, the certificate targets
    it and reproduces it exactly under A^t c, and it equals no row of A(g).
    With D the lcm of the coefficient denominators and p_u = D c_u, the
    product is checked as sum(p_u * A[u]) = D x by direct summation over the
    adjacency bitsets, sharing no code with the solver.
    """
    x = w.vector
    c = w.certificate.coefficients
    if len(x) != g.n or len(c) != g.n:
        return False
    if any(e not in (0, 1) for e in x) or not any(x):
        return False
    if tuple(w.certificate.target) != x:
        return False
    denom = lcm(*(cu.denominator for cu in c))
    acc = [0] * g.n
    for u, cu in enumerate(c):
        if cu:
            p = cu.numerator * (denom // cu.denominator)
            for v in iter_bits(g.adj[u]):
                acc[v] += p
    if any(acc[v] != denom * x[v] for v in range(g.n)):
        return False
    return _vector_mask(x) not in g.adj


def witness_complete(g: Graph) -> StrategyOutcome:
    """All-ones witness for complete graphs: every column sums to n-1."""
    if g.n < 2 or not g.is_complete():
        return StrategyOutcome(False, reason="not a complete graph on >= 2 vertices")
    vector = (1,) * g.n
    cert = MembershipCertificate((Fraction(1, g.n - 1),) * g.n, vector)
    return StrategyOutcome(True, Witness(vector, cert, Strategy.COMPLETE))


def witness_disjoint_nbhd(g: Graph) -> StrategyOutcome:
    """Row sum over the first adjacent pair with disjoint neighborhoods."""
    pair = find_adjacent_disjoint_pair(g)
    if pair is None:
        return StrategyOutcome(False, reason="every edge's endpoints share a neighbor")
    i, j = pair
    vector = _mask_vector(g.adj[i] | g.adj[j], g.n)
    coeffs = [_ZERO] * g.n
    coeffs[i] = coeffs[j] = _ONE
    cert = MembershipCertificate(tuple(coeffs), vector)
    return StrategyOutcome(True, Witness(vector, cert, Strategy.DISJOINT_NBHD))


def witness_diam_ge4(g: Graph) -> StrategyOutcome:
    """Row sum over positions 1 and l of a diametral geodesic p_0..p_l."""
    if not g.is_connected():
        return StrategyOutcome(False, reason="graph is disconnected")
    geo = diametral_geodesic(g)
    if geo.ell < 4:
        return StrategyOutcome(False, reason=f"diameter {geo.ell} < 4")
    second, last = geo.path[1], geo.path[-1]
    vector = _mask_vector(g.adj[second] | g.adj[last], g.n)
    coeffs = [_ZERO] * g.n
    coeffs[second] = coeffs[last] = _ONE
    cert = MembershipCertificate(tuple(coeffs), vector)
    return StrategyOutcome(True, Witness(vector, cert, Strategy.DIAM_GE4))


def witness_dominating_regular(g: Graph) -> StrategyOutcome:
    """All-ones witness for a unique dominating vertex plus d-regular rest.

    With the dominating vertex first, every other column holds one 1 from
    the dominating row and d-1 ones from the rest, so the combination
    (n-d)/(n-1) on the dominating row and 1/(n-1) elsewhere is all-ones.
    """
    if g.is_complete():
        return StrategyOutcome(False, reason="complete graph")
    doms = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(doms) != 1:
        return StrategyOutcome(False, reason=f"{len(doms)} dominating vertices, need exactly 1")
    rest_degrees = {g.degree(v) for v in range(g.n) if v != doms[0]}
    if len(rest_degrees) != 1:
        return StrategyOutcome(False, reason="non-dominating vertices have unequal degrees")
    d = rest_degrees.pop()
    vector = (1,) * g.n
    coeffs = [Fraction(1, g.n - 1)] * g.n
    coeffs[doms[0]] = Fraction(g.n - d, g.n - 1)
    cert = MembershipCertificate(tuple(coeffs), vector)
    return StrategyOutcome(True, Witness(vector, cert, Strategy.DOMINATING_REGULAR))


# (graph, pinned 0/1 vector, pinned row coefficients) per catalog entry.
_CATALOG = (
    (
        families.rank5_catalog_graph(1),
        (0, 1, 1, 1, 1, 1, 1),
        (_ZERO, -_HALF, _HALF, _ONE, _ZERO, _HALF, _ZERO),
    ),
    (
        families.rank5_catalog_graph(2),
        (1, 1, 1, 1, 1, 1),
        (_HALF, -_HALF, _ZERO, _ZERO, _HALF, _ONE),
    ),
    (
        families.rank5_catalog_graph(3),
        (1, 1, 1, 1, 1, 1),
        (_ZERO, _ZERO, _ZERO, _HALF, _HALF, _HALF),
    ),
    (
        families.rank5_catalog_graph(4),
        (1, 1, 1, 1, 1, 1, 1),
        (-_HALF, _HALF, _ONE, _ZERO, _HALF, _ZERO, _ZERO),
    ),
)


def witness_catalog_rank5(g: Graph) -> StrategyOutcome:
    """Pinned witness when g equals a catalog graph label-for-label."""
    for cg, vector, coeffs in _CATALOG:
        if g.n == cg.n and g.adj == cg.adj:
            cert = MembershipCertificate(coeffs, vector)
            return StrategyOutcome(True, Witness(vector, cert, Strategy.CATALOG_RANK5))
    return StrategyOutcome(False, reason="adjacency matrix not in the rank-5 catalog")


def lift_witness(g: Graph, m, w: Witness) -> Witness:
    """Transport a witness of g to the blow-up of g by multiplicities m.

    The witness vector block-repeats (entry i appears m[i] times) and each
    coefficient rides on the first clone of its vertex, the remaining clones
    getting 0; columns of the blow-up restrict to original columns on the
    support, so the certificate identity carries over verbatim. Raises
    LiftedVectorIsRowError if the lifted vector occurs as a row of the
    blow-up (impossible for a valid input witness, checked anyway).
    """
    if len(w.vector) != g.n:
        raise ValueError(f"witness has length {len(w.vector)}, graph has {g.n} vertices")
    blown = multiply_vertices(g, m)  # validates m
    mult = tuple(m)
    vector = tuple(x for x, k in zip(w.vector, mult) for _ in range(k))
    coeffs: list[Fraction] = []
    for c, k in zip(w.certificate.coefficients, mult):
        coeffs.append(c)
        coeffs.extend([_ZERO] * (k - 1))
    if _vector_mask(vector) in blown.adj:
        raise LiftedVectorIsRowError("lifted vector occurs as a row of the blow-up")
    cert = MembershipCertificate(tuple(coeffs), vector)
    return Witness(vector, cert, Strategy.LIFTED)


def _twin_classes(g: Graph) -> list[list[int]] | None:
    """Twin classes (equal neighborhoods) sorted by smallest member, or None
    if g is reduced. Twins are never adjacent, so classes are independent."""
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(g.adj[v], []).append(v)
    if len(classes) == g.n:
        return None
    return sorted(classes.values())


def _witness_by_twin_contraction(g: Graph, oracle_limit: int, enabled) -> StrategyOutcome:
    """Contract twin classes, find a witness on the reduced graph, lift it.

    The contraction is the blow-up pre-image of g, so the search runs on a
    strictly smaller graph where the remaining strategies (and the oracle
    bound) have another chance.
    """
    groups = _twin_classes(g)
    if groups is None:
        return StrategyOutcome(False, reason="graph is reduced (no twin vertices)")
    reps = [grp[0] for grp in groups]
    contracted = induced_subgraph(g, reps)
    inner = find_witness(contracted, oracle_limit, enabled=enabled)
    if inner is None:
        return StrategyOutcome(False, reason="no witness on the twin-contracted graph")
    vector = [0] * g.n
    coeffs = [_ZERO] * g.n
    for k, grp in enumerate(groups):
        for v in grp:
            vector[v] = inner.vector[k]
        coeffs[grp[0]] = inner.certificate.coefficients[k]
    vector = tuple(vector)
    if _vector_mask(vector) in g.adj:
        return StrategyOutcome(False, reason="lifted vector occurs as a row")
    cert = MembershipCertificate(tuple(coeffs), vector)
    return StrategyOutcome(True, Witness(vector, cert, Strategy.LIFTED))


_CONSTRUCTIVE = (
    (Strategy.COMPLETE, witness_complete),
    (Strategy.DISJOINT_NBHD, witness_disjoint_nbhd),
    (Strategy.DIAM_GE4, witness_diam_ge4),
    (Strategy.DOMINATING_REGULAR, witness_dominating_regular),
    (Strategy.CATALOG_RANK5, witness_catalog_rank5),
)


def _checked(g: Graph, w: Witness) -> Witness:
    if not verify_witness(g, w):
        raise RuntimeError(
            f"internal error: strategy {w.strategy.value} produced an invalid witness"
        )
    return w


def find_witness(
    g: Graph,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    *,
    enabled=None,
) -> Witness | None:
    """First verified witness under the fixed strategy order, else None.

    Requires at least one edge. On a disconnected graph the search runs on
    the smallest-index component containing an edge and the result is padded
    with zeros: the padding cannot collide with any row, because rows of
    that component are excluded by the component-level check and every other
    row is zero on the component's columns. ``enabled`` restricts the
    strategy set (default: all). A None return is conclusive only when the
    oracle ran, i.e. ``g.n <= oracle_limit`` and the oracle was enabled.
    """
    if g.size == 0:
        raise ValueError("witness search requires a graph with at least one edge")
    allowed = (
        frozenset(Strategy(s) for s in enabled) if enabled is not None else frozenset(Strategy)
    )
    if not g.is_connected():
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)
            if sub.size:
                break
        inner = find_witness(sub, oracle_limit, enabled=enabled)
        if inner is None:
            return None
        vector = [0] * g.n
        coeffs = [_ZERO] * g.n
        for local, v in enumerate(comp):
            vector[v] = inner.vector[local]
            coeffs[v] = inner.certificate.coefficients[local]
        vector = tuple(vector)
        cert = MembershipCertificate(tuple(coeffs), vector)
        return _checked(g, Witness(vector, cert, inner.strategy))
    for name, strategy in _CONSTRUCTIVE:
        if name in allowed:
            outcome = strategy(g)
            if outcome.witness is not None:
                return _checked(g, outcome.witness)
    if Strategy.LIFTED in allowed:
        outcome = _witness_by_twin_contraction(g, oracle_limit, enabled)
        if outcome.witness is not None:
            return _checked(g, outcome.witness)
    if Strategy.ORACLE in allowed and g.n <= oracle_limit:
        from .oracle import brute_force_witness

        result = brute_force_witness(g, limit=oracle_limit)
        if result.found:
            return _checked(g, result.witness)
    return None
