"""Immutable simple-graph representation with bitset neighborhoods.

Vertices are labelled 0..n-1. Each neighborhood is stored as a Python int
used as a bitset: bit j of ``adj[i]`` is set iff i and j are adjacent.
Graphs are immutable after construction and every operation here is a pure
function, so instances can be shared freely between worker processes.

Bit positions come from ``iter_bits``: a mask below 2^64 (every
neighbourhood of a graph on at most 64 vertices) is read byte by byte from
tables of 256 tuples, one per byte position; the first is built at import,
the other seven on first use. A larger mask is read bit by bit.

Distances come from one routine, ``diametral_geodesic``: an all-sources
expansion of bitset balls that yields the diameter and a diametral
geodesic together. ``None`` is the only way a distance routine says that a
graph is disconnected.

Three facts that several layers ask of one graph are computed once per
instance and kept in its ``__dict__``, whose keys only this module names:
the diametral geodesic, ``_component`` (the first component with an edge,
which the sweep generator ``oracle._connected_graphs`` hands over from its
own connectivity test through ``_keep_component``) and the rank of A(g),
which ``harness.bounded_rank`` reads through ``_kept_rank``.
``oracle.brute_force_witness`` keeps it from its certificate solve through
``_keep_rank``, and ``witness.find_witness`` gives a connected g the rank
its scanned twin contraction kept (twins have equal rows and columns). A
graph never changes and ``==``, ``hash`` and ``repr`` read only
``n`` and ``adj``, so a kept value cannot go stale or make two equal
graphs differ; a graph built from another (``induced_subgraph``,
``multiply_vertices``) starts empty, so a component or a twin contraction
keeps its own rank, never that of the graph it came from.

``Graph(n, adj)`` and ``Graph.from_edges`` validate their input. Builders
whose output is valid by construction skip that check through the private
``Graph._trusted``: ``induced_subgraph`` and ``multiply_vertices`` here
(they read a graph that is already valid), ``graph6.parse_graph6`` (it
sets the bit pairs i < j < n of the upper triangle) and
``oracle._connected_graphs`` (likewise, flipping the edges of the
generator's pairs i < j < n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import getitem
from typing import Iterable, Iterator, Sequence


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """The set bit positions of every byte value, in increasing order. The
    values with bit b set are those below 2^b, each with b appended."""
    table: tuple[tuple[int, ...], ...] = ((),)
    for b in range(8):
        table += tuple(bits + (b,) for bits in table)
    return table


_BYTE_BITS = _byte_bits()
# Table k holds each byte value's bit positions plus 8k; at most 8 tables.
_BYTE_TABLES = [_BYTE_BITS]


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask`` in increasing order; ValueError
    for a negative mask, which has infinitely many. A mask below 2^64 is
    read one byte per table, a larger one bit by bit: on a sparse wide mask
    the tables would walk every zero byte."""
    if mask < 256:
        if mask < 0:
            raise ValueError(f"negative mask {mask} has infinitely many set bits")
        return iter(_BYTE_BITS[mask])
    width = mask.bit_length()
    if width > 64:
        return _low_bits(mask)
    data = mask.to_bytes((width + 7) >> 3, "little")
    while len(_BYTE_TABLES) < len(data):
        shift = 8 * len(_BYTE_TABLES)
        _BYTE_TABLES.append(tuple(tuple(b + shift for b in bits) for bits in _BYTE_BITS))
    return iter(sum(map(getitem, _BYTE_TABLES, data), ()))


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops, no multi-edges)."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} neighborhoods, got {len(self.adj)}")
        full = (1 << self.n) - 1
        for i, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"neighborhood of {i} mentions a vertex >= {self.n}")
            if (nb >> i) & 1:
                raise ValueError(f"loop at vertex {i}")
            for j in iter_bits(nb):
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"asymmetric edge ({i}, {j})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> Graph:
        """The graph (n, adj) without validation. Only for builders that
        make it valid: n >= 1 and n symmetric, loop-free neighborhoods
        inside 0..n-1 (see the module docstring)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(nb.bit_count() for nb in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in iter_bits(self.adj[i] >> (i + 1)):
                yield i, i + 1 + j

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[i] == full ^ (1 << i) for i in range(self.n))

    def is_connected(self) -> bool:
        return reachable(self.adj, 1) == (1 << self.n) - 1


def reachable(adj: Sequence[int], seen: int) -> int:
    """Bitset of the vertices reachable in ``adj`` from the vertex set ``seen``."""
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_reduced(g: Graph) -> bool:
    """True iff no two vertices share the same neighborhood (no twins)."""
    return len(set(g.adj)) == g.n


def _component(g: Graph) -> int:
    """Bitset of the first component of g with an edge, kept on g;
    ValueError if g has no edge."""
    memo = g.__dict__
    if "_component" not in memo:
        for first, nb in enumerate(g.adj):
            if nb:
                break
        else:
            raise ValueError("witness search requires a graph with at least one edge")
        memo["_component"] = reachable(g.adj, 1 << first)
    return memo["_component"]


def _keep_component(g: Graph, component: int) -> None:
    """Keep on g the bitset ``_component`` would compute, found by the caller."""
    g.__dict__["_component"] = component


def _keep_rank(g: Graph, r: int) -> None:
    """Keep on g the rank of A(g), found by the caller."""
    g.__dict__["_rank"] = r


def _kept_rank(g: Graph) -> int | None:
    """The rank ``_keep_rank`` kept on g, or None."""
    return g.__dict__.get("_rank")


def diameter(g: Graph) -> int | None:
    """Largest pairwise distance; None iff the graph is disconnected."""
    path = diametral_geodesic(g)
    return None if path is None else len(path) - 1


def diametral_geodesic(g: Graph) -> tuple[int, ...] | None:
    """Deterministic shortest path between a pair at maximum distance, or
    None iff the graph is disconnected; its length is the diameter.

    Ties are broken by the lexicographically smallest endpoint pair (u, v)
    with u < v, then by the lexicographically smallest vertex sequence among
    shortest u-v paths. Computed once per graph and kept on it.
    """
    memo = g.__dict__
    if "_geodesic" not in memo:
        memo["_geodesic"] = _geodesic(g)
    return memo["_geodesic"]


def _geodesic(g: Graph) -> tuple[int, ...] | None:
    """``diametral_geodesic`` without the memo.

    All balls grow together: round k sets ball[v] |= ball[w] for every
    neighbour w of v, so ball[v] holds the vertices within distance k of v.
    A ball that does not grow in a round is its component and never grows
    again, so each round visits only the balls that grew in the last one,
    and the expansion stops at the first round where none grows. The
    diameter is the number of rounds that grew. u is the first vertex whose
    ball grew in the last of them, and v the lowest vertex outside u's ball
    before that round. Only two rounds of balls are alive at a time.
    """
    full = (1 << g.n) - 1
    nbrs = [tuple(iter_bits(nb)) for nb in g.adj]
    balls = [1 << v for v in range(g.n)]
    active: Iterable[int] = range(g.n)
    ell = u = inner = 0
    while True:
        grown = balls[:]
        moved = []
        for v in active:
            ball = balls[v]
            for w in nbrs[v]:
                ball |= balls[w]
            if ball != balls[v]:
                grown[v] = ball
                moved.append(v)
        if not moved:
            break
        ell, u, inner = ell + 1, moved[0], balls[moved[0]]
        balls, active = grown, moved
    if balls[0] != full:
        return None
    outside = full & ~inner
    # rings[k] is the ball of radius k around v, for k < ell; a greedy walk
    # from u that steps to its lowest neighbour in the next smaller ring is
    # the lexicographically smallest shortest u-v path.
    rings: list[int] = []
    ring = frontier = outside & -outside
    for _ in range(ell):
        rings.append(ring)
        for w in iter_bits(frontier):
            ring |= g.adj[w]
        frontier = ring & ~rings[-1]
    path = [u]
    for ring in reversed(rings):
        step = g.adj[path[-1]] & ring
        path.append((step & -step).bit_length() - 1)
    return tuple(path)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in the given order."""
    if not vertices:
        raise ValueError("induced subgraph needs at least one vertex")
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex in induced subgraph")
    adj = [0] * len(vertices)
    for i, v in enumerate(vertices):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        for w in iter_bits(g.adj[v]):
            j = index.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph._trusted(len(vertices), tuple(adj))


def _clone_blocks(g: Graph, m: Sequence[int]) -> list[range]:
    """The positions of each vertex's clones in the blow-up by m: blocks of
    m[i] positions, laid out contiguously in vertex order. ValueError unless
    m holds one positive multiplicity per vertex."""
    m = tuple(m)
    if len(m) != g.n:
        raise ValueError(f"multiplicity vector has length {len(m)}, graph has {g.n} vertices")
    if any(k < 1 for k in m):
        raise ValueError("every multiplicity must be >= 1")
    ends = list(accumulate(m, initial=0))
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def multiply_vertices(g: Graph, m: Sequence[int]) -> Graph:
    """Blow-up: replace vertex i by an independent set of m[i] clones.

    Clones of i and clones of j are fully joined iff i ~ j in ``g``. Clone
    blocks are laid out contiguously in input vertex order, so vertex i's
    clones occupy positions sum(m[:i]) .. sum(m[:i+1])-1 (``_clone_blocks``).
    """
    blocks = _clone_blocks(g, m)
    masks = [(1 << b.stop) - (1 << b.start) for b in blocks]
    # the blocks are disjoint, so a sum of their masks is their union
    rows = [sum(masks[j] for j in iter_bits(nb)) for nb in g.adj]
    return Graph._trusted(blocks[-1].stop, tuple(row for row, b in zip(rows, blocks) for _ in b))


def duplicate_vertex(g: Graph, v: int) -> Graph:
    """Add a new last vertex joined to exactly the neighbors of ``v``.

    Same graph as the blow-up with multiplicity 2 at v and 1 elsewhere, up to
    moving the clone from position v+1 to the end; appending keeps original
    vertex labels stable across chained duplications.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    clone_bit = 1 << g.n
    adj = [nb | clone_bit if (g.adj[v] >> i) & 1 else nb for i, nb in enumerate(g.adj)]
    adj.append(g.adj[v])
    return Graph(g.n + 1, tuple(adj))


def find_adjacent_disjoint_pair(g: Graph) -> tuple[int, int] | None:
    """First edge (i, j), i < j in lexicographic order, whose endpoints have
    disjoint neighborhoods; None if every edge's endpoints share a neighbor."""
    for i in range(g.n):
        for j in iter_bits(g.adj[i] >> (i + 1)):
            j += i + 1
            if g.adj[i] & g.adj[j] == 0:
                return i, j
    return None
