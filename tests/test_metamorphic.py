"""Metamorphic tests: the witnesses of a graph under blow-up, relabeling and
disjoint union with isolated vertices.

Each test derives the expected answer for the transformed graph from the
answer for the original one, so no reference witness is needed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from conftest import connected_graphs, disjoint_union, graphs
from rowspace.graph import Graph, induced_subgraph, is_reduced
from rowspace.graph6 import write_graph6
from rowspace.oracle import enumerate_all_witnesses, iter_connected_graphs
from rowspace.witness import find_witness, verify_witness


def test_blowup_witnesses_are_block_repeats():
    # Every witness of a blow-up repeats a witness of its twin contraction
    # over the twin classes, and every such repeat is one: this is why the
    # search on the contraction is final. The library's enumeration relies
    # on this law, so g's side comes from the reference's 2^n scan.
    count = 0
    for n in range(2, 7):
        for g in iter_connected_graphs(n):
            if is_reduced(g):
                continue
            count += 1
            classes: dict[int, list[int]] = {}
            for v in range(g.n):
                classes.setdefault(g.adj[v], []).append(v)
            groups = list(classes.values())
            contracted = induced_subgraph(g, [grp[0] for grp in groups])
            repeats = set()
            for x in enumerate_all_witnesses(contracted):
                y = [0] * g.n
                for value, grp in zip(x, groups):
                    for v in grp:
                        y[v] = value
                repeats.add(tuple(y))
            assert set(oracle_reference.enumerate_all_witnesses(g)) == repeats, write_graph6(g)
    assert count == 8622


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=9, min_edges=1), st.data())
def test_relabeling_permutes_the_witnesses(g, data):
    # vertex v of g is vertex perm[v] of h
    perm = data.draw(st.permutations(range(g.n)))
    adj = [0] * g.n
    for v in range(g.n):
        adj[perm[v]] = sum(1 << perm[u] for u in range(g.n) if g.adj[v] >> u & 1)
    h = Graph(g.n, tuple(adj))

    def moved(x):
        y = [0] * g.n
        for v in range(g.n):
            y[perm[v]] = x[v]
        return tuple(y)

    assert set(enumerate_all_witnesses(h)) == set(map(moved, enumerate_all_witnesses(g)))
    assert verify_witness(h, find_witness(h))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_n=2, max_n=7), st.integers(1, 3))
def test_isolated_vertices_pad_with_zeros(g, k):
    w = find_witness(g)
    isolated = Graph(k, (0,) * k)
    zeros = (0,) * k
    for padded, vector, coeffs in (
        (disjoint_union(g, isolated), w.vector + zeros, w.certificate.coefficients + zeros),
        (disjoint_union(isolated, g), zeros + w.vector, zeros + w.certificate.coefficients),
    ):
        u = find_witness(padded)
        assert (u.vector, u.certificate.coefficients, u.strategy) == (vector, coeffs, w.strategy)
