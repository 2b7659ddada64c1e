"""Shared fixtures: independent little oracles and hypothesis strategies.

The oracles here deliberately avoid the library's bitmask machinery (deque
BFS over neighbor lists, sympy for exact rank) so that agreement tests pit
two independent implementations against each other.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import strategies as st

from rowspace.graph import Graph
from rowspace.oracle import OracleResult


def bfs_oracle(g: Graph, source: int, nbrs: list[list[int]] | None = None) -> list[float]:
    """Plain queue BFS over adjacency lists; math.inf for unreachable."""
    if nbrs is None:
        nbrs = neighbor_lists(g)
    dist: list[float] = [math.inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if dist[u] == math.inf:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def neighbor_lists(g: Graph) -> list[list[int]]:
    return [[u for u in range(g.n) if (g.adj[v] >> u) & 1] for v in range(g.n)]


def distance_table(g: Graph) -> list[list[float]]:
    nbrs = neighbor_lists(g)
    return [bfs_oracle(g, v, nbrs) for v in range(g.n)]


def diameter_oracle(g: Graph) -> int | None:
    """Largest pairwise distance; None when g is disconnected."""
    diam = max(d for row in distance_table(g) for d in row)
    return None if diam == math.inf else diam


def oracle_geodesic(g: Graph) -> tuple[int, ...] | None:
    """Lexicographically smallest shortest path between the lexicographically
    smallest pair u < v at maximum distance; None when g is disconnected."""
    dist = distance_table(g)
    diam = max(d for row in dist for d in row)
    if diam == math.inf:
        return None
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if dist[u][v] == diam]
    return min(all_shortest_paths(g, *min(pairs, default=(0, 0))))


def all_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u-v path, by BFS-layer DFS."""
    to_v = bfs_oracle(g, v)
    out: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        cur = path[-1]
        if cur == v:
            out.append(tuple(path))
            return
        for w in range(g.n):
            if (g.adj[cur] >> w) & 1 and to_v[w] == to_v[cur] - 1:
                extend(path + [w])

    if to_v[u] != math.inf:
        extend([u])
    return out


def path_rank(n: int) -> int:
    """Closed-form adjacency rank of the n-vertex path: n if even, n-1 if odd."""
    return n if n % 2 == 0 else n - 1


def cycle_rank(n: int) -> int:
    """Closed-form adjacency rank of the n-cycle: n-2 if 4 | n, else n."""
    return n - 2 if n % 4 == 0 else n


def co_c7() -> Graph:
    """Complement of the 7-cycle: reduced and connected, and no constructive
    strategy applies, so only the oracle finds its witness."""
    full = (1 << 7) - 1
    return Graph(7, tuple(full ^ 1 << v ^ 1 << (v + 1) % 7 ^ 1 << (v - 1) % 7 for v in range(7)))


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, relabelled in order: part k's vertex v
    becomes v plus the orders of the parts before it."""
    adj: list[int] = []
    for part in parts:
        offset = len(adj)
        adj.extend(nb << offset for nb in part.adj)
    return Graph(len(adj), tuple(adj))


class ScanRecorder:
    """Stand-in for ``rowspace.oracle.brute_force_witness`` that finds no
    witness and records the order of every graph it is asked to scan."""

    def __init__(self) -> None:
        self.scanned: list[int] = []

    def __call__(self, g: Graph, limit: int) -> OracleResult:
        assert g.n <= limit
        self.scanned.append(g.n)
        return OracleResult(None, 0)


def every_graph(n: int):
    """Every labeled graph on n vertices, edgeless and disconnected ones too,
    through the validating constructor."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph(n, tuple(adj))


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8, min_edges: int = 0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    adj = [0] * n
    edges = 0
    for b, (i, j) in enumerate(pairs):
        if (mask >> b) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            edges += 1
    if edges < min_edges:
        extra = draw(
            st.lists(
                st.sampled_from(pairs) if pairs else st.nothing(),
                min_size=min_edges - edges,
                max_size=min_edges,
            )
        )
        for i, j in extra:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8):
    """Random graph plus a random spanning tree to force connectivity."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    g = draw(graphs(min_n=n, max_n=n))
    adj = list(g.adj)
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@st.composite
def long_diameter_graphs(draw, max_n: int = 10):
    """Connected graphs built around a 4-edge spine; in the chordless case
    the spine keeps the diameter at >= 4 (tree distances never shrink when
    leaves attach), and a drawn chord may or may not preserve that."""
    n = draw(st.integers(min_value=5, max_value=max_n))
    edges = [(i, i + 1) for i in range(4)]
    for v in range(5, n):
        edges.append((draw(st.integers(0, v - 1)), v))
    nchords = draw(st.integers(0, 1))
    for _ in range(nchords):
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        edges.append((u, v))
    return Graph.from_edges(n, edges)


@st.composite
def multiplicities(draw, n: int, cap: int = 3):
    return tuple(
        draw(st.lists(st.integers(1, cap), min_size=n, max_size=n))
    )


class RecordingPool:
    """In-process stand-in for ``multiprocessing.Pool``: records the worker
    count asked for and runs the work in this process, so no worker process
    is ever started."""

    def __init__(self) -> None:
        self.requested: list[int] = []

    def __call__(self, processes: int) -> RecordingPool:
        self.requested.append(processes)
        return self

    def __enter__(self) -> RecordingPool:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]

    def imap(self, fn, items, chunksize: int = 1):
        return map(fn, items)
