"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The exhaustive sweep
over all labeled connected 7-vertex graphs dominates the runtime (a few
minutes with two workers); everything else finishes in seconds.
"""

import os
import random
import time
from fractions import Fraction

import fraction_reference as reference
from rowspace.families import build, rank_formula_cycle, rank_formula_path
from rowspace.graph import Graph, diameter, iter_bits, multiply_vertices
from rowspace.graph6 import parse_graph6, write_graph6
from rowspace.harness import check_size_bound
from rowspace.linalg import adjacency_matrix, rank, solve_membership
from rowspace.oracle import enumerate_all_witnesses, exhaustive_verify, iter_connected_graphs
from rowspace.witness import (
    find_witness,
    lift_witness,
    verify_witness,
    witness_catalog_rank5,
)

JOBS = min(8, os.cpu_count() or 1)


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {message}")


def _random_blowup_pairs(count: int = 200):
    """Seeded (graph, multiplicities) pairs with n <= 7 and sum(m) <= 14,
    plus forced complete-graph cases so the diameter-2 branch is exercised."""
    rng = random.Random(20250811)
    pairs = []
    for n, m in [(2, (2, 1)), (3, (2, 2, 1)), (4, (2, 1, 1, 2)), (5, (2, 2, 2, 2, 2)),
                 (7, (2,) * 7)]:
        pairs.append((build("complete", n), m))
    while len(pairs) < count + 5:
        n = rng.randint(2, 7)
        npairs = n * (n - 1) // 2
        mask = rng.randrange(1, 1 << npairs)
        adj = [0] * n
        bit = 0
        for i in range(n):
            for j in range(i + 1, n):
                if (mask >> bit) & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                bit += 1
        g = Graph(n, tuple(adj))
        m = [rng.randint(1, 3) for _ in range(n)]
        while sum(m) > 14:
            m = [rng.randint(1, 3) for _ in range(n)]
        pairs.append((g, tuple(m)))
    return pairs


BLOWUP_PAIRS = _random_blowup_pairs()


def test_criterion_1_rank_formulas():
    start = time.perf_counter()
    for n in range(3, 65):
        assert rank(adjacency_matrix(build("path", n))) == rank_formula_path(n), n
        assert rank(adjacency_matrix(build("cycle", n))) == rank_formula_cycle(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"rank formulas took {elapsed:.2f}s, budget is 5s"
    _report(1, f"path and cycle ranks match closed forms for 3 <= n <= 64 ({elapsed:.2f}s)")


def test_criterion_2_pinned_constants():
    assert rank(adjacency_matrix(build("apexed-net"))) == 7
    assert rank(adjacency_matrix(build("cycle", 5))) == 5
    assert rank(adjacency_matrix(build("petersen"))) == 10
    rank4 = ["paw", "bull", "antenna", "co-c6", "house", "k4"]
    for name in rank4:
        assert rank(adjacency_matrix(build(name))) == 4, name
    assert rank(adjacency_matrix(build("path", 4))) == 4
    assert rank(adjacency_matrix(build("path", 5))) == 4
    _report(2, "ranks 7/5/10 for the extremal seeds and 4 for all eight rank-4 anchors")


def test_criterion_3_catalog_identities():
    for index in (1, 2, 3, 4):
        g = build(f"rank5-{index}")
        outcome = witness_catalog_rank5(g)
        assert outcome.witness is not None
        w = outcome.witness
        combo = reference.combine_rows(adjacency_matrix(g), w.certificate.coefficients)
        assert combo == tuple(Fraction(x) for x in w.vector), index
    _report(3, "all four stored coefficient vectors reproduce their pinned 0/1 vectors")


def test_criterion_4_illustration_graphs():
    star = build("star", 4)
    w = find_witness(star)
    assert w is not None and verify_witness(star, w)
    assert (1, 1, 1, 1, 1) in enumerate_all_witnesses(star)

    twin = build("c5-with-twin")
    w = find_witness(twin)
    assert w is not None and verify_witness(twin, w)
    assert (1, 1, 1, 0, 1, 0) in enumerate_all_witnesses(twin)
    _report(4, "both illustration graphs yield witnesses incl. 11111 and 111010")


def test_criterion_5_blowup_laws():
    start = time.perf_counter()
    assert len(BLOWUP_PAIRS) >= 200
    for g, m in BLOWUP_PAIRS:
        blown = multiply_vertices(g, m)
        assert blown.n == sum(m) <= 14
        assert rank(adjacency_matrix(blown)) == rank(adjacency_matrix(g))
        if g.is_complete():
            expected = 2 if any(k > 1 for k in m) else 1
            assert diameter(blown) == expected
        else:
            assert diameter(blown) == diameter(g)
        w = find_witness(g)
        assert w is not None
        lifted = lift_witness(g, m, w)
        assert solve_membership(adjacency_matrix(blown), lifted.vector) is not None
        assert verify_witness(blown, lifted)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"blow-up laws took {elapsed:.2f}s, budget is 60s"
    _report(5, f"rank/diameter/lifting laws hold on {len(BLOWUP_PAIRS)} blow-ups ({elapsed:.2f}s)")


def test_criterion_6_exhaustive_desk_scale():
    start = time.perf_counter()
    totals = {}
    for n in range(1, 8):
        report = exhaustive_verify(n, jobs=JOBS if n >= 6 else 1)
        assert report.failures == [], f"n={n}: {report.failures[:5]}"
        totals[n] = report.graphs_checked
        if n == 6:
            # the strategy that answers each graph, pinned
            assert report.strategy_histogram == {
                "disjoint-neighborhood": 21571,
                "oracle": 3313,
                "lifted": 1745,
                "dominating-regular": 72,
                "catalog-rank5": 2,
                "complete-all-ones": 1,
            }
    elapsed = time.perf_counter() - start
    # 1_866_256 labeled connected graphs on 7 vertices
    assert totals[7] == 1866256
    assert elapsed < 1800.0, f"exhaustive sweep took {elapsed:.0f}s, budget is 30min"
    _report(6, f"0 failures over {sum(totals.values())} graphs, n <= 7 ({elapsed:.0f}s, {JOBS} jobs)")


def test_criterion_7_constructive_oracle_agreement():
    from rowspace.oracle import brute_force_witness

    fired = 0
    for n in range(2, 7):
        for g in iter_connected_graphs(n):
            w = find_witness(g, oracle_limit=0)
            if w is not None:
                fired += 1
                assert verify_witness(g, w)
                assert brute_force_witness(g).found
    assert fired > 0
    _report(7, f"{fired} constructive witnesses on n <= 6, all oracle-confirmed")


def _diameter_two_without_dominating(n: int, adj: list[int]) -> bool:
    full = (1 << n) - 1
    for v in range(n):
        if adj[v] == full ^ (1 << v):
            return False
    for v in range(n):
        reach = adj[v] | (1 << v)
        for u in iter_bits(adj[v]):
            reach |= adj[u]
        if reach != full:
            return False
    return True


def test_criterion_8_size_bound():
    # Contrapositive sweep: no connected graph on n <= 7 with fewer than
    # 2n-5 edges is diameter-2 and dominating-vertex-free. (Graphs meeting
    # the bound satisfy it trivially, so this covers the full criterion.)
    for n in range(2, 8):
        bound = 2 * n - 5
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1, 1 << len(pairs)):
            if mask.bit_count() >= bound:
                continue
            adj = [0] * n
            m = mask
            while m:
                low = m & -m
                m ^= low
                i, j = pairs[low.bit_length() - 1]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            assert not _diameter_two_without_dominating(n, adj), (n, mask)

    # and the three seeds meet the bound with equality
    lines = [
        write_graph6(build("cycle", 5)),
        write_graph6(build("apexed-net")),
        write_graph6(build("petersen")),
    ]
    records = list(check_size_bound(lines))
    assert all(r.diameter == 2 and not r.has_dominating for r in records)
    assert [(r.order, r.size, r.equality) for r in records] == [
        (5, 5, True),
        (7, 9, True),
        (10, 15, True),
    ]
    _report(8, "2n-5 bound holds on every diameter-2 dominating-free graph, equality at the seeds")


def test_criterion_9_graph6_round_trip():
    assert parse_graph6("C~") == build("complete", 4)
    count = 0
    for g, m in BLOWUP_PAIRS:
        blown = multiply_vertices(g, m)
        for h in (g, blown):
            assert parse_graph6(write_graph6(h)) == h
            count += 1
    for n in range(2, 8):
        for g in iter_connected_graphs(n):
            assert parse_graph6(write_graph6(g)) == g
            count += 1
    _report(9, f"parse(write(g)) == g for {count} graphs incl. every connected n <= 7 graph")
