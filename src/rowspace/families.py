"""Constructors for the named graphs and parametric families used in tests
and witness strategies, plus the closed-form rank formulas they obey.

Labeling conventions are fixed so that witnesses and certificates are
reproducible: cycles and paths are numbered consecutively, star and wheel
hubs are vertex 0, and blow-up clones are appended after the original
vertices (see ``duplicate_vertex``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graph import Graph, duplicate_vertex


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    """K_{1,leaves}: hub is vertex 0, leaves are 1..leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel(n: int) -> Graph:
    """Hub 0 joined to every vertex of the cycle 1..n-1; n vertices total."""
    if n < 4:
        raise ValueError("wheel needs n >= 4 vertices")
    rim = n - 1
    edges = [(0, i) for i in range(1, n)]
    edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
    return Graph.from_edges(n, edges)


def triangle_fan(n: int) -> Graph:
    """(n-1)/2 triangles sharing hub 0; n vertices total, n odd >= 5."""
    if n < 5 or n % 2 == 0:
        raise ValueError("triangle fan needs odd n >= 5 vertices")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n, 2)]
    return Graph.from_edges(n, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i ~ i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def apexed_net() -> Graph:
    """Triangle 0,1,2 with pendants 3,4,5 and apex 6 joined to the pendants.

    7 vertices and 9 edges; diameter 2 with no dominating vertex, and the
    size meets the 2n-5 lower bound with equality. Full adjacency rank (7).
    """
    return Graph.from_edges(
        7,
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
    )


def paw() -> Graph:
    """Triangle 0,1,2 with a pendant vertex 3 attached to 0."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def bull() -> Graph:
    """Triangle 0,1,2 with horns 3 ~ 0 and 4 ~ 1."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def house() -> Graph:
    """4-cycle 1,2,4,3 with roof apex 0 over the 1-2 edge."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


def antenna() -> Graph:
    """House with an extra pendant (the antenna) on the roof apex."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
    )


def co_c6() -> Graph:
    """Complement of the 6-cycle (the triangular prism)."""
    c6 = cycle(6)
    full = (1 << 6) - 1
    return Graph(6, tuple(full ^ nb ^ (1 << i) for i, nb in enumerate(c6.adj)))


def c5_with_twin() -> Graph:
    """5-cycle with one degree-2 vertex duplicated: 6 vertices, 7 edges."""
    return duplicate_vertex(cycle(5), 3)


# Hard-coded singular rank-5 graphs used by the catalog witness strategy.
# Stored as literal adjacency matrices: the classification they come from
# pins them only up to blow-up, and these exact labelings are what the
# pinned coefficient identities in the witness engine refer to.
_RANK5_1 = (
    (0, 1, 0, 0, 0, 1, 0),
    (1, 0, 1, 0, 0, 1, 1),
    (0, 1, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1, 1, 1),
    (0, 0, 0, 1, 0, 0, 1),
    (1, 1, 1, 1, 0, 0, 0),
    (0, 1, 1, 1, 1, 0, 0),
)
_RANK5_2 = (
    (0, 1, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 1, 1),
    (0, 0, 1, 0, 0, 1),
    (1, 1, 1, 0, 0, 1),
    (1, 0, 1, 1, 1, 0),
)
_RANK5_3 = (
    (0, 1, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 1),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 1),
    (1, 1, 1, 1, 1, 0),
)
_RANK5_4 = (
    (0, 1, 0, 0, 1, 1, 1),
    (1, 0, 1, 0, 1, 0, 1),
    (0, 1, 0, 1, 1, 1, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (1, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 1, 0, 1),
    (1, 1, 1, 1, 0, 1, 0),
)

def rank5_catalog_graph(index: int) -> Graph:
    """The index-th (1-based) hard-coded rank-5 catalog graph."""
    matrices = (_RANK5_1, _RANK5_2, _RANK5_3, _RANK5_4)
    if not 1 <= index <= len(matrices):
        raise ValueError(f"catalog index {index} out of range")
    return Graph.from_adjacency(matrices[index - 1])


_FIXED: dict[str, Callable[[], Graph]] = {
    "petersen": petersen,
    "apexed-net": apexed_net,
    "paw": paw,
    "bull": bull,
    "antenna": antenna,
    "house": house,
    "co-c6": co_c6,
    "k4": lambda: complete(4),
    "c5-with-twin": c5_with_twin,
    "rank5-1": lambda: rank5_catalog_graph(1),
    "rank5-2": lambda: rank5_catalog_graph(2),
    "rank5-3": lambda: rank5_catalog_graph(3),
    "rank5-4": lambda: rank5_catalog_graph(4),
}

_PARAMETRIC: dict[str, Callable[[int], Graph]] = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "wheel": wheel,
    "triangle-fan": triangle_fan,
}

FAMILY_NAMES = tuple(sorted(_FIXED) + sorted(_PARAMETRIC))


def build(family: str, size: int | None = None) -> Graph:
    """Build a named graph; see FAMILY_NAMES for the accepted names. A fixed
    graph takes no size and a parametric family needs one."""
    if family in _FIXED:
        if size is not None:
            raise ValueError(f"{family} is a fixed graph, size not allowed")
        return _FIXED[family]()
    if family not in _PARAMETRIC:
        raise ValueError(f"unknown family {family!r}")
    if size is None:
        raise ValueError(f"{family} needs a size parameter")
    return _PARAMETRIC[family](size)


def rank_formula_path(n: int) -> int:
    """Closed-form adjacency rank of the n-vertex path: n if even, n-1 if odd."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return n if n % 2 == 0 else n - 1


def rank_formula_cycle(n: int) -> int:
    """Closed-form adjacency rank of the n-cycle: n-2 if 4 | n, else n."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return n - 2 if n % 4 == 0 else n


def kotlov_lovasz_n(r: int) -> int:
    """Kotlov-Lovasz largest known order of a reduced graph of rank r."""
    if r < 2:
        raise ValueError("rank must be >= 2")
    if r % 2 == 0:
        return 2 ** ((r + 2) // 2) - 2
    return 5 * 2 ** ((r - 3) // 2) - 2


_H_FAMILY_BASES: dict[str, Callable[[], Graph]] = {
    "c5": lambda: cycle(5),
    "apexed-net": apexed_net,
    "petersen": petersen,
}


def h_family_generate(base: str, duplications: Sequence[int]) -> Graph:
    """Chain degree-2 vertex duplications starting from an extremal seed.

    The seeds (5-cycle, apexed net, Petersen graph) together with closure
    under degree-2 duplication generate exactly the diameter-2 graphs with
    no dominating vertex whose size meets the 2n-5 bound with equality.
    Each duplication appends the clone as a new last vertex, so indices in
    ``duplications`` refer to the graph as built so far.
    """
    try:
        g = _H_FAMILY_BASES[base]()
    except KeyError:
        raise ValueError(f"unknown base {base!r}; expected one of {sorted(_H_FAMILY_BASES)}")
    for v in duplications:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if g.degree(v) != 2:
            raise ValueError(f"vertex {v} has degree {g.degree(v)}, need degree 2")
        g = duplicate_vertex(g, v)
    return g
