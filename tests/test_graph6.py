import collections
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph6_reference as reference
from conftest import graphs
from rowspace.families import _PARAMETRIC, FAMILY_NAMES, build
from rowspace.graph import Graph
from rowspace.graph6 import (
    Graph6ParseError,
    _encode_order,
    _parse_order,
    parse_graph6,
    write_graph6,
)


def networkx_encode(g: Graph) -> str:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nx.to_graph6_bytes(nxg, header=False).decode().strip()


class TestParse:
    def test_k4(self):
        g = parse_graph6("C~")
        assert g == build("complete", 4)

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.size == 0

    def test_empty_line(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_zero_vertex_graph_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("?")

    def test_truncated(self):
        with pytest.raises(Graph6ParseError) as excinfo:
            parse_graph6("C")
        assert excinfo.value.offset == 1

    def test_huge_header_truncated_before_allocating(self):
        # "~~??FgQ?" declares n = 2,000,000 with no edge bytes; the length
        # check must come before the n neighborhoods are allocated
        tracemalloc.start()
        try:
            with pytest.raises(Graph6ParseError) as excinfo:
                parse_graph6("~~??FgQ?")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "truncated" in str(excinfo.value)
        assert excinfo.value.offset == 8
        assert peak < 1 << 20

    def test_parse_peak_memory_is_a_small_multiple_of_the_line(self):
        # the bit string takes six bytes per data character; a list with one
        # reference per character or a reversed copy of the bit string on
        # top of it would take the peak past ten times the line
        line = write_graph6(build("path", 2000))
        tracemalloc.start()
        try:
            g = parse_graph6(line)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g == build("path", 2000)
        assert peak <= 10 * len(line)

    def test_trailing_garbage(self):
        with pytest.raises(Graph6ParseError) as excinfo:
            parse_graph6("C~~")
        assert excinfo.value.offset == 2

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6ParseError) as excinfo:
            parse_graph6("C" + chr(200))
        assert excinfo.value.offset == 1

    def test_nonzero_padding(self):
        # n=2 uses one data bit; the remaining five must be zero
        assert parse_graph6("A_").size == 1
        with pytest.raises(Graph6ParseError) as excinfo:
            parse_graph6("AO")
        assert excinfo.value.offset == 1


class TestWrite:
    def test_k4(self):
        assert write_graph6(build("complete", 4)) == "C~"

    def test_single_vertex(self):
        assert write_graph6(Graph(1, (0,))) == "@"

    def test_matches_networkx_on_families(self):
        for name in FAMILY_NAMES:
            size = {"path": 6, "cycle": 7, "complete": 5, "star": 4,
                    "wheel": 7, "triangle-fan": 7}.get(name)
            g = build(name, size)
            assert write_graph6(g) == networkx_encode(g)


class TestRoundTrip:
    def test_families(self):
        for name in FAMILY_NAMES:
            size = {"path": 9, "cycle": 9, "complete": 6, "star": 5,
                    "wheel": 8, "triangle-fan": 9}.get(name)
            g = build(name, size)
            assert parse_graph6(write_graph6(g)) == g

    def test_long_form_header(self):
        g = build("path", 63)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g
        assert line == networkx_encode(g)

    @pytest.mark.parametrize(
        "n, header",
        [
            (62, "}"),
            (63, "~??~"),
            (258047, "~}~~"),
            (258048, "~~???~??"),
            (2**36 - 1, "~~~~~~~~"),
        ],
    )
    def test_order_forms_at_their_boundaries(self, n, header):
        assert _encode_order(n) == header
        assert _parse_order(header) == (n, len(header))

    def test_order_beyond_the_huge_form(self):
        with pytest.raises(ValueError, match="exceeds the graph6 size limit"):
            _encode_order(2**36)

    @settings(max_examples=200)
    @given(graphs(max_n=12))
    def test_identity(self, g):
        assert parse_graph6(write_graph6(g)) == g

    @settings(max_examples=80)
    @given(graphs(max_n=9))
    def test_interoperates_with_networkx(self, g):
        line = write_graph6(g)
        assert line == networkx_encode(g)
        decoded = nx.from_graph6_bytes(line.encode())
        assert set(decoded.edges()) == {tuple(e) for e in g.edges()}


def assert_graph_or_located_error(line: str) -> None:
    """A Graph, or a Graph6ParseError whose offset lies in 0..len(line);
    any other exception propagates and fails the test."""
    try:
        g = parse_graph6(line)
    except Graph6ParseError as exc:
        assert 0 <= exc.offset <= len(line)
    else:
        assert isinstance(g, Graph)


class TestFuzz:
    GRAPH6_CHARS = [chr(c) for c in range(63, 127)]
    OTHER_CHARS = [" ", "\t", "\x00", "!", ">", "\x7f", "\xe9", "\u2603", "\U0001f600"]

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text(self, line):
        assert_graph_or_located_error(line)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from(GRAPH6_CHARS), max_size=40))
    def test_graph6_alphabet(self, line):
        assert_graph_or_located_error(line)

    def test_seeded_random_and_mutated_lines(self):
        rng = random.Random(6)
        chars = self.GRAPH6_CHARS + self.OTHER_CHARS
        for _ in range(10_000):
            # random lines, mostly in the graph6 alphabet, long headers included
            prefix = rng.choice(["", "", "~", "~~"])
            body = "".join(
                rng.choice(self.GRAPH6_CHARS if rng.random() < 0.9 else chars)
                for _ in range(rng.randrange(12))
            )
            assert_graph_or_located_error(prefix + body)
            # one edit of a valid line: replace, insert or delete a character
            n = rng.randrange(1, 12)
            mask = rng.getrandbits(n * (n - 1) // 2)
            pairs = [(i, j) for j in range(n) for i in range(j)]
            edges = [p for b, p in enumerate(pairs) if (mask >> b) & 1]
            line = list(write_graph6(Graph.from_edges(n, edges)))
            pos = rng.randrange(len(line) + 1)
            op = rng.randrange(3)
            if op == 0 and pos < len(line):
                line[pos] = rng.choice(chars)
            elif op == 1:
                line.insert(pos, rng.choice(chars))
            elif pos < len(line):
                del line[pos]
            assert_graph_or_located_error("".join(line))


def parse_outcome(parse, line: str):
    """The graph, or the message and offset of the parse error."""
    try:
        return parse(line)
    except Graph6ParseError as exc:
        return str(exc), exc.offset


class TestReferenceDifferential:
    """The one-bit-string codec against the bit-by-bit reference."""

    def test_parse_matches_reference(self):
        rng = random.Random(18)
        chars = TestFuzz.GRAPH6_CHARS + TestFuzz.OTHER_CHARS
        outcomes = collections.Counter()
        for trial in range(10_000):
            prefix = rng.choice(["", "", "~", "~~"])
            body = "".join(
                rng.choice(TestFuzz.GRAPH6_CHARS if rng.random() < 0.9 else chars)
                for _ in range(rng.randrange(12))
            )
            # a valid line (random pairs, zero padding) with one character
            # replaced, inserted or deleted, or none; every 50th line has
            # the '~' header (n >= 63) or lies just below it
            n = rng.randrange(60, 71) if trial % 50 == 0 else rng.randrange(1, 12)
            nbits = n * (n - 1) // 2
            pad = -nbits % 6
            data = rng.getrandbits(nbits) << pad
            shifts = range(nbits + pad - 6, -1, -6)
            line = list(_encode_order(n) + "".join(chr(63 + (data >> s & 63)) for s in shifts))
            pos = rng.randrange(len(line) + 1)
            op = rng.randrange(4)
            if op == 0 and pos < len(line):
                line[pos] = rng.choice(chars)
            elif op == 1:
                line.insert(pos, rng.choice(chars))
            elif op == 2 and pos < len(line):
                del line[pos]
            for text in (prefix + body, "".join(line)):
                expected = parse_outcome(reference.parse_graph6, text)
                assert parse_outcome(parse_graph6, text) == expected, text
                kind = "graph" if isinstance(expected, Graph) else expected[0].split(" (")[0]
                outcomes["bad byte" if "outside graph6 range" in kind else kind] += 1
        # every outcome occurs: a graph and each of the six parse errors
        assert len(outcomes) == 7 and min(outcomes.values()) > 100, outcomes

    def test_write_matches_reference_on_families(self):
        for name in FAMILY_NAMES:
            sizes = range(5, 71, 2) if name == "triangle-fan" else range(4, 71)
            for size in sizes if name in _PARAMETRIC else [None]:
                g = build(name, size)
                assert write_graph6(g) == reference.write_graph6(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=70))
    def test_write_matches_reference(self, g):
        line = write_graph6(g)
        assert line == reference.write_graph6(g)
        assert parse_graph6(line) == g
