"""Constructors for the named graphs and parametric families used in tests
and witness strategies.

Labeling conventions are fixed so that witnesses and certificates are
reproducible: cycles and paths are numbered consecutively, star and wheel
hubs are vertex 0, and blow-up clones are appended after the original
vertices (see ``duplicate_vertex``).
"""

from __future__ import annotations

from typing import Callable

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
    # Hard-coded singular rank-5 graphs used by the catalog witness strategy.
    # The classification they come from pins them only up to blow-up, and
    # these exact labelings are what the pinned coefficient identities in the
    # witness engine refer to.
    "rank5-1": lambda: Graph.from_edges(7, [
        (0, 1), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3),
        (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6),
    ]),
    "rank5-2": lambda: Graph.from_edges(6, [
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5),
    ]),
    "rank5-3": lambda: Graph.from_edges(6, [
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5),
        (2, 3), (2, 5), (3, 4), (3, 5), (4, 5),
    ]),
    "rank5-4": lambda: Graph.from_edges(7, [
        (0, 1), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 6), (2, 3),
        (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (5, 6),
    ]),
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
