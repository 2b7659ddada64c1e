"""Seeded inputs for the benchmark workloads and the exact references their
outputs are checked against.

Nothing here imports rowspace. Graphs are plain tuples of neighbourhood
bitmasks (bit j of ``adj[i]`` set iff i ~ j), and the graph6 encoder, the
rank and the kernel used by the checks are written out again, so that a
check never relies on the code it checks. Named graphs that rowspace's
``families`` module builds are passed in by the caller.

The same seed always gives the same inputs (``random.Random`` seeded with a
string is stable across processes and Python versions). Sizes and group
composition are fixed; the seed only draws the random graphs, the blow-up
multiplicities and the vertex labelings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Adj = tuple[int, ...]

#: Named graphs the verify corpus takes from rowspace.families, relabeled.
#: The eight with n >= 56 are the slowest records of a pass, so the 99th
#: percentile record latency falls inside that tier of fixed structures
#: instead of on the edge between it and the seeded random graphs.
LARGE_FAMILIES = (
    ("path", 24), ("path", 60), ("path", 64), ("cycle", 20), ("cycle", 58), ("cycle", 62),
    ("star", 33), ("wheel", 17), ("wheel", 56), ("wheel", 60), ("triangle-fan", 25),
    ("triangle-fan", 57), ("triangle-fan", 63), ("complete", 18), ("complete", 32),
)
#: Small named graphs, one or more per witness strategy; kept as labeled
#: (the rank-5 catalog matches label-for-label).
COVERAGE_FAMILIES = (
    ("petersen", None), ("apexed-net", None), ("c5-with-twin", None), ("k4", None),
    ("rank5-1", None), ("rank5-2", None), ("rank5-3", None), ("rank5-4", None),
    ("wheel", 7), ("complete", 5),
)
#: Named graphs of the oracle-proof set.
PROOF_FAMILIES = (("path", 15), ("cycle", 16), ("petersen", None))

#: Random graphs per order n = 8..16, by the strategy their structure
#: leaves: the oracle (every edge in a triangle, reduced, diameter 2, no
#: dominating vertex), twin contraction (every edge in a triangle, a twin
#: pair), or a disjoint-neighbourhood edge. Fixed quotas keep the cost of a
#: pass from moving with the seed; each class has its own densities.
_RANDOM_QUOTAS = (("oracle", 12, (0.6, 0.75)), ("twins", 2, (0.7,)), ("disjoint", 26, (0.25, 0.4, 0.55)))
_TWIN_RICH = 60
_SINGULAR = 40
_CYCLE_SQUARES = (17, 30, 45)
_SPARSE_SIZES = (20, 28, 36, 44, 52)
_TOO_LARGE_SIZES = (17, 18, 19, 20)


@dataclass(frozen=True)
class CorpusLine:
    """One graph6 line of the verify corpus with what the check needs."""

    graph6: str
    adj: Adj
    edges: int
    group: str
    #: True iff no constructive strategy applies and n exceeds the oracle
    #: bound, so the expected status is ``skipped-too-large``.
    unresolved: bool

    @property
    def n(self) -> int:
        return len(self.adj)


# ---------------------------------------------------------------- graphs


def _from_edges(n: int, edges) -> Adj:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _random_graph(rng: random.Random, n: int, p: float) -> Adj:
    return _from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def _connected(adj: Adj) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def _random_connected(rng: random.Random, n: int, p: float) -> Adj:
    while True:
        adj = _random_graph(rng, n, p)
        if _connected(adj):
            return adj


def _edge_count(adj: Adj) -> int:
    return sum(a.bit_count() for a in adj) // 2


def _every_edge_in_triangle(adj: Adj) -> bool:
    n = len(adj)
    return all(
        adj[i] & adj[j] for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1
    )


def _random_of_class(rng: random.Random, n: int, cls: str, p: float) -> Adj:
    if cls == "twins":
        while True:
            mult = [1] * (n - 1)
            mult[rng.randrange(n - 1)] = 2
            adj = _blow_up(_random_connected(rng, n - 1, p), mult)
            if _every_edge_in_triangle(adj):
                return adj
    while True:
        adj = _random_connected(rng, n, p)
        if cls == "disjoint":
            if not _every_edge_in_triangle(adj):
                return adj
        elif _only_the_oracle_applies(adj):
            return adj


def _only_the_oracle_applies(adj: Adj) -> bool:
    """Every edge in a triangle, reduced, diameter 2, no dominating vertex."""
    full = (1 << len(adj)) - 1
    return (
        _every_edge_in_triangle(adj)
        and _reduced(adj)
        and _diameter_at_most_2(adj)
        and all(a | 1 << v != full for v, a in enumerate(adj))
    )


def _reduced(adj: Adj) -> bool:
    return len(set(adj)) == len(adj)


def _diameter_at_most_2(adj: Adj) -> bool:
    n = len(adj)
    return all(
        (adj[i] >> j & 1) or adj[i] & adj[j] for i in range(n) for j in range(i + 1, n)
    )


def _relabel(adj: Adj, perm: list[int]) -> Adj:
    """Vertex v becomes perm[v]."""
    out = [0] * len(adj)
    for v, nb in enumerate(adj):
        mask = 0
        for w in range(len(adj)):
            if nb >> w & 1:
                mask |= 1 << perm[w]
        out[perm[v]] = mask
    return tuple(out)


def _shuffled(rng: random.Random, adj: Adj) -> Adj:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return _relabel(adj, perm)


def _blow_up(adj: Adj, mult: list[int]) -> Adj:
    starts = [0]
    for k in mult:
        starts.append(starts[-1] + k)
    blocks = [((1 << k) - 1) << s for k, s in zip(mult, starts)]
    out: list[int] = []
    for i, nb in enumerate(adj):
        mask = 0
        for j in range(len(adj)):
            if nb >> j & 1:
                mask |= blocks[j]
        out.extend([mask] * mult[i])
    return tuple(out)


def _cycle_square(n: int) -> Adj:
    """C_n with chords to distance 2: every edge lies in a triangle, and the
    diameter is at least 4 for n >= 17."""
    return _from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


def _rook(a: int, b: int) -> Adj:
    """Rook's graph K_a x K_b: cells sharing a row or a column."""
    n = a * b
    return _from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if u // b == v // b or u % b == v % b],
    )


def _sparse_connected(rng: random.Random, n: int) -> Adj:
    """Random labeled tree plus n/4 random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return _from_edges(n, edges)


# --------------------------------------------------------- exact references

_PRIME = (1 << 61) - 1


def _rank_mod_prime(adj: Adj) -> int:
    """Rank over GF(2^61 - 1); a lower bound on the rank over Q that is
    equal to it except with negligible probability. Used only to pick
    singular graphs, never to check an output."""
    n = len(adj)
    rows = [[a >> j & 1 for j in range(n)] for a in adj]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], _PRIME - 2, _PRIME)
        for i in range(r + 1, n):
            f = rows[i][c] * inv % _PRIME
            if f:
                rows[i] = [(x - f * y) % _PRIME for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: nonzero rows and pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def kernel_basis(adj: Adj) -> list[list[Fraction]]:
    """Basis of ker A(g) over Q, one vector per free column of the RREF."""
    n = len(adj)
    rows, pivots = _rref([[Fraction(a >> j & 1) for j in range(n)] for a in adj], n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    return basis


def reference_witness_count(adj: Adj) -> int:
    """Number of non-zero (0,1)-vectors in the row space that are not rows.

    A is symmetric, so its row space is the orthogonal complement of its
    kernel: x qualifies iff K x = 0 for a kernel basis K. At full rank every
    vector qualifies. Otherwise the RREF of K expresses its pivot
    coordinates through the free ones, and the 2^rank free assignments are
    walked in Gray-code order, keeping those whose pivot coordinates come
    out 0 or 1.
    """
    n = len(adj)
    rows_in_space = len({a for a in adj if a})
    basis = kernel_basis(adj)
    if not basis:
        return (1 << n) - 1 - rows_in_space
    krows, kpivots = _rref(basis, n)
    free = [c for c in range(n) if c not in kpivots]
    # Pivot coordinate i equals -(sum_f num[i][f] x_f) / den[i].
    den = [lcm(*(x.denominator for x in row)) for row in krows]
    num = [[int(row[f] * d) for f in free] for row, d in zip(krows, den)]
    sums = [0] * len(krows)
    state = 0
    count = 0
    for step in range(1, 1 << len(free)):
        bit = (step & -step).bit_length() - 1
        state ^= 1 << bit
        sign = 1 if state >> bit & 1 else -1
        for i in range(len(krows)):
            sums[i] += sign * num[i][bit]
        if all(s == 0 or s == -d for s, d in zip(sums, den)):
            count += 1
    return count - rows_in_space


# ---------------------------------------------------------------- graph6


def encode_graph6(adj: Adj) -> str:
    """graph6 line: upper triangle column by column, 6 bits per byte + 63."""
    n = len(adj)
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return head + body


# ------------------------------------------------------------- workloads


def _line(adj: Adj, group: str, unresolved: bool = False) -> CorpusLine:
    return CorpusLine(encode_graph6(adj), adj, _edge_count(adj), group, unresolved)


def verify_corpus(
    seed: int,
    large_named: list[Adj],
    coverage_named: list[Adj],
) -> list[CorpusLine]:
    """The verify-corpus workload's graph6 lines, in a seeded order.

    ``large_named`` and ``coverage_named`` are the adjacency tuples of
    LARGE_FAMILIES and COVERAGE_FAMILIES, in that order.
    """
    rng = random.Random(f"verify-corpus:{seed}")
    lines: list[CorpusLine] = []
    # Random G(n, p), n = 8..16, over a spread of densities.
    for n in range(8, 17):
        for cls, quota, densities in _RANDOM_QUOTAS:
            for k in range(quota):
                adj = _random_of_class(rng, n, cls, densities[k % len(densities)])
                lines.append(_line(_shuffled(rng, adj), "random"))
    # Twin-rich blow-ups of bases whose every edge lies in a triangle, so
    # that the constructive strategies decline and twin contraction fires.
    for k in range(_TWIN_RICH):
        size = 4 + k % 4
        while True:
            base = _random_connected(rng, size, 0.7)
            if _every_edge_in_triangle(base):
                break
        mult = [1] * size
        while sum(mult) < size + 2 + k % 5:
            mult[rng.randrange(size)] += 1
        lines.append(_line(_shuffled(rng, _blow_up(base, mult)), "twin-rich"))
    # Reduced singular graphs with every edge in a triangle: neither the
    # disjoint-neighbourhood edge nor twin contraction applies, so the
    # oracle is nearly always left, and its scan passes over non-member
    # candidates.
    for k in range(_SINGULAR):
        n = 8 + k % 5
        while True:
            adj = _random_connected(rng, n, 0.6)
            if _reduced(adj) and _every_edge_in_triangle(adj) and _rank_mod_prime(adj) < n:
                break
        lines.append(_line(adj, "rank-deficient"))
    # n = 17..64, where the constructive strategies fire.
    for adj in large_named:
        lines.append(_line(_shuffled(rng, adj), "large"))
    for n in _CYCLE_SQUARES:
        lines.append(_line(_shuffled(rng, _cycle_square(n)), "large"))
    for n in _SPARSE_SIZES:
        lines.append(_line(_sparse_connected(rng, n), "large"))
    # Beyond the oracle bound with nothing constructive: reduced, diameter
    # 2, no dominating vertex and every edge in a triangle.
    for n in _TOO_LARGE_SIZES:
        while True:
            adj = _random_graph(rng, n, 0.5)
            if _only_the_oracle_applies(adj):
                break
        lines.append(_line(adj, "too-large", unresolved=True))
    for adj in coverage_named:
        lines.append(_line(adj, "coverage"))
    lines.append(_line(_shuffled(rng, _rook(3, 3)), "coverage"))
    lines.append(_line(_shuffled(rng, _blow_up(_from_edges(3, [(0, 1), (0, 2), (1, 2)]), [2, 2, 2])), "coverage"))
    rng.shuffle(lines)
    return lines


def proof_graphs(seed: int, named: list[Adj]) -> list[tuple[str, Adj]]:
    """The oracle-proof set, 13 to 16 vertices, from full rank to nullity 6.

    ``named`` holds the adjacency tuples of PROOF_FAMILIES, in that order.
    The set has an odd size and one graph per cost tier, so the median
    proof time is always the same graph's.
    """
    rng = random.Random(f"oracle-proof:{seed}")
    path15, cycle16, petersen = named
    doubled = rng.sample(range(10), 6)
    mult = [2 if v in doubled else 1 for v in range(10)]
    graphs = [
        ("random-13", _random_connected(rng, 13, 0.5)),
        ("path-15", path15),
        ("petersen-blowup-16", _blow_up(petersen, mult)),
        ("cycle-16", cycle16),
        ("rook-4x4", _rook(4, 4)),
    ]
    return [(label, _shuffled(rng, adj)) for label, adj in graphs]


def probe_lines(corpus: list[CorpusLine]) -> list[CorpusLine]:
    """The corpus lines a traced run replays for layers its own workload
    does not reach: one or more graphs per witness strategy and status."""
    return [line for line in corpus if line.group in ("large", "too-large", "coverage")]
