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
* lifted                -- graphs with twins: the strategies above, or the
  oracle, on the twin contraction; the witness block-repeats to the input.
* oracle                -- exhaustive scan fallback (see rowspace.oracle).

``find_witness`` descends once, from the first component with an edge to
its twin contraction, tries the strategies in the fixed order above
(cheapest structural tests first) on each, and verifies the witness it
returns on the input graph. The component and the diametral geodesic are
kept on the graph (see ``rowspace.graph``), so a caller that asked for
either first, such as the sweep generator or the harness's diameter, pays
for it once. A decline with a fixed reason is a shared module constant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import families
from .graph import (
    Graph,
    _clone_blocks,
    _component,
    diametral_geodesic,
    find_adjacent_disjoint_pair,
    induced_subgraph,
    iter_bits,
)
from .linalg import _ZERO, MembershipCertificate, _bit_vector

DEFAULT_ORACLE_LIMIT = 16
#: Largest accepted oracle bound: the oracle scans 2^n candidates.
MAX_ORACLE_LIMIT = 20

_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_BINARY = frozenset((0, 1))
#: Maps the bytes of a 0/1 vector to the ASCII digits "0" and "1".
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


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


def _witness(vector, coefficients, strategy: Strategy) -> Witness:
    """The one constructor: ``vector`` with the certificate that A^t
    ``coefficients`` equals it, so its target is the vector itself."""
    vector = tuple(vector)
    return Witness(vector, MembershipCertificate(tuple(coefficients), vector), strategy)


@dataclass(frozen=True)
class StrategyOutcome:
    """The witness a strategy produced, or None and the reason it declined."""

    witness: Witness | None = None
    reason: str | None = None


# Declines with a fixed reason; outcomes are frozen, so one serves every graph.
_NOT_COMPLETE = StrategyOutcome(reason="not a complete graph on >= 2 vertices")
_NO_DISJOINT_EDGE = StrategyOutcome(reason="every edge's endpoints share a neighbor")
_DISCONNECTED = StrategyOutcome(reason="graph is disconnected")
_SHORT_DIAMETER = tuple(StrategyOutcome(reason=f"diameter {d} < 4") for d in range(4))
_COMPLETE_GRAPH = StrategyOutcome(reason="complete graph")
_UNEQUAL_DEGREES = StrategyOutcome(reason="non-dominating vertices have unequal degrees")
_NOT_IN_CATALOG = StrategyOutcome(reason="adjacency matrix not in the rank-5 catalog")


def check_oracle_limit(limit: int) -> None:
    """ValueError unless ``limit`` lies in 0..MAX_ORACLE_LIMIT."""
    if not 0 <= limit <= MAX_ORACLE_LIMIT:
        raise ValueError(f"oracle limit {limit} is outside 0..{MAX_ORACLE_LIMIT}")


def oracle_declines(g: Graph, limit: int) -> str | None:
    """None if the oracle scans the graph ``find_witness`` ends its search
    on, else why it does not. That graph is the twin contraction of the
    first component of g with an edge; its order, the number of twin
    classes of that component, comes from the helpers the search descends
    through. Only when the oracle scans is a None from ``find_witness`` a
    proof that no witness exists. ValueError if g has no edge or if
    ``limit`` lies outside 0..MAX_ORACLE_LIMIT.
    """
    check_oracle_limit(limit)
    n = len(_twin_classes(g, _component(g)))
    if n > limit:
        return f"no constructive strategy applied and n={n} exceeds the oracle bound {limit}"
    return None


def verify_witness(g: Graph, w: Witness) -> bool:
    """Exact check of every witness invariant, in integers.

    True iff the vector is non-zero and 0/1-valued, the certificate targets
    it and reproduces it exactly under A^t c, and it equals no row of A(g).
    With D the lcm of the coefficient denominators and p_u = D c_u, the
    product is checked as sum(p_u * A[u]) = D x by direct summation over the
    adjacency bitsets, sharing no code with the solver. Each coefficient is
    read once; a zero one adds nothing and has denominator 1.
    """
    x = w.vector
    c = w.certificate.coefficients
    if len(x) != g.n or len(c) != g.n:
        return False
    if not _BINARY.issuperset(x) or 1 not in x:
        return False
    if tuple(w.certificate.target) != x:
        return False
    terms = []
    for nb, cu in zip(g.adj, c):
        num = cu.numerator
        if num:
            terms.append((nb, num, cu.denominator))
    denom = lcm(*(den for _, _, den in terms))
    acc = [0] * g.n
    for nb, num, den in terms:
        p = num * (denom // den)
        for v in iter_bits(nb):
            acc[v] += p
    if acc != [denom * e for e in x]:
        return False
    return int(bytes(x[::-1]).translate(_BIT_CHARS), 2) not in g.adj


def witness_complete(g: Graph) -> StrategyOutcome:
    """All-ones witness for complete graphs: every column sums to n-1."""
    if g.n < 2 or not g.is_complete():
        return _NOT_COMPLETE
    return StrategyOutcome(_witness((1,) * g.n, (Fraction(1, g.n - 1),) * g.n, Strategy.COMPLETE))


def _row_pair_sum(g: Graph, i: int, j: int, strategy: Strategy) -> StrategyOutcome:
    """Witness R_i + R_j with coefficient 1 on rows i and j; the caller has
    shown that the sum is 0/1-valued and equals no row."""
    coeffs = [_ZERO] * g.n
    coeffs[i] = coeffs[j] = _ONE
    return StrategyOutcome(_witness(_bit_vector(g.adj[i] | g.adj[j], g.n), coeffs, strategy))


def witness_disjoint_nbhd(g: Graph) -> StrategyOutcome:
    """Row sum over the first adjacent pair with disjoint neighborhoods."""
    pair = find_adjacent_disjoint_pair(g)
    if pair is None:
        return _NO_DISJOINT_EDGE
    return _row_pair_sum(g, *pair, Strategy.DISJOINT_NBHD)


def witness_diam_ge4(g: Graph) -> StrategyOutcome:
    """Row sum over positions 1 and l of a diametral geodesic p_0..p_l."""
    path = diametral_geodesic(g)
    if path is None:
        return _DISCONNECTED
    if len(path) < 5:
        return _SHORT_DIAMETER[len(path) - 1]
    return _row_pair_sum(g, path[1], path[-1], Strategy.DIAM_GE4)


def witness_dominating_regular(g: Graph) -> StrategyOutcome:
    """All-ones witness for a unique dominating vertex plus d-regular rest.

    With the dominating vertex first, every other column holds one 1 from
    the dominating row and d-1 ones from the rest, so the combination
    (n-d)/(n-1) on the dominating row and 1/(n-1) elsewhere is all-ones.
    """
    if g.is_complete():
        return _COMPLETE_GRAPH
    doms = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(doms) != 1:
        return StrategyOutcome(reason=f"{len(doms)} dominating vertices, need exactly 1")
    rest_degrees = {g.degree(v) for v in range(g.n) if v != doms[0]}
    if len(rest_degrees) != 1:
        return _UNEQUAL_DEGREES
    d = rest_degrees.pop()
    coeffs = [Fraction(1, g.n - 1)] * g.n
    coeffs[doms[0]] = Fraction(g.n - d, g.n - 1)
    return StrategyOutcome(_witness((1,) * g.n, coeffs, Strategy.DOMINATING_REGULAR))


# Adjacency of each catalog graph -> (pinned 0/1 vector, pinned row coefficients).
_CATALOG = {
    families.build("rank5-1").adj: (
        (0, 1, 1, 1, 1, 1, 1),
        (_ZERO, -_HALF, _HALF, _ONE, _ZERO, _HALF, _ZERO),
    ),
    families.build("rank5-2").adj: (
        (1, 1, 1, 1, 1, 1),
        (_HALF, -_HALF, _ZERO, _ZERO, _HALF, _ONE),
    ),
    families.build("rank5-3").adj: (
        (1, 1, 1, 1, 1, 1),
        (_ZERO, _ZERO, _ZERO, _HALF, _HALF, _HALF),
    ),
    families.build("rank5-4").adj: (
        (1, 1, 1, 1, 1, 1, 1),
        (-_HALF, _HALF, _ONE, _ZERO, _HALF, _ZERO, _ZERO),
    ),
}


def witness_catalog_rank5(g: Graph) -> StrategyOutcome:
    """Pinned witness when g equals a catalog graph label-for-label."""
    pinned = _CATALOG.get(g.adj)
    if pinned is None:
        return _NOT_IN_CATALOG
    return StrategyOutcome(_witness(*pinned, Strategy.CATALOG_RANK5))


def _embed(w: Witness, classes, n: int, strategy: Strategy) -> Witness:
    """Carry a witness to an n-vertex graph. Entry k of the vector repeats on
    every vertex of ``classes[k]``; its coefficient rides on the first vertex
    of the class, and every other vertex gets 0."""
    vector = [0] * n
    coeffs = [_ZERO] * n
    for x, c, members in zip(w.vector, w.certificate.coefficients, classes, strict=True):
        for v in members:
            vector[v] = x
        coeffs[members[0]] = c
    return _witness(vector, coeffs, strategy)


def lift_witness(g: Graph, m, w: Witness) -> Witness:
    """Transport a witness of g to the blow-up of g by multiplicities m.

    The witness vector block-repeats (entry i appears m[i] times) and each
    coefficient rides on the first clone of its vertex, the remaining clones
    getting 0; columns of the blow-up restrict to original columns on the
    support, so the certificate identity carries over verbatim. Rows of the
    blow-up are the block-repeats of rows of g and block repetition is
    injective, so a valid witness lifts to a valid witness. Raises
    ValueError if ``w`` is not a valid witness of g.
    """
    if not verify_witness(g, w):
        raise ValueError("not a valid witness of the base graph")
    blocks = _clone_blocks(g, m)
    return _embed(w, blocks, blocks[-1].stop, Strategy.LIFTED)


_CONSTRUCTIVE = (
    witness_complete,
    witness_disjoint_nbhd,
    witness_diam_ge4,
    witness_dominating_regular,
    witness_catalog_rank5,
)


def _constructive(g: Graph) -> Witness | None:
    """The first constructive strategy's witness, or None if all decline."""
    for strategy in _CONSTRUCTIVE:
        w = strategy(g).witness
        if w is not None:
            return w
    return None


def _twin_classes(g: Graph, component: int) -> list[list[int]]:
    """Twin classes (equal neighborhoods) of a component, in g's labels and
    in order of smallest member. Twins are never adjacent, so one vertex per
    class induces the component's twin contraction, which is reduced."""
    classes: dict[int, list[int]] = {}
    for v in iter_bits(component):
        classes.setdefault(g.adj[v], []).append(v)
    return list(classes.values())


def find_witness(g: Graph, oracle_limit: int = DEFAULT_ORACLE_LIMIT) -> Witness | None:
    """First verified witness under the fixed strategy order, else None.

    Requires at least one edge. One descent: the constructive strategies run
    on the first component of g with an edge (g itself when connected), then,
    if that component has twins, on its twin contraction, and the oracle
    scans the last of these graphs if its order is within the limit. A
    blow-up's witnesses are exactly the block repeats of its contraction's,
    and zero padding never hits a row, so that graph's answer is final: None
    is conclusive exactly when the oracle scanned (see ``oracle_declines``).
    The witness is embedded into g in one step (``lifted`` when it came from
    the contraction) and checked once, on g. ValueError for an oracle limit
    outside 0..MAX_ORACLE_LIMIT.
    """
    check_oracle_limit(oracle_limit)
    component = _component(g)
    h = g if component == (1 << g.n) - 1 else induced_subgraph(g, list(iter_bits(component)))
    classes = None
    w = _constructive(h)
    if w is None:
        twins = _twin_classes(g, component)
        if len(twins) < component.bit_count():
            classes = twins
            h = induced_subgraph(g, [c[0] for c in classes])
            w = _constructive(h)
    if w is None:
        if h.n > oracle_limit:
            return None
        from .oracle import brute_force_witness

        w = brute_force_witness(h, limit=oracle_limit).witness
        if w is None:
            return None
    found = w
    if h is not g:
        strategy = Strategy.LIFTED if classes else w.strategy
        w = _embed(w, classes or [[v] for v in iter_bits(component)], g.n, strategy)
    if not verify_witness(g, w):
        raise RuntimeError(
            f"internal error: strategy {found.strategy.value} produced an invalid witness"
        )
    return w
