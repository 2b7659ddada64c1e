"""Bit-exact graph6 encoding and decoding.

graph6 packs the upper triangle of the adjacency matrix in column-major
order -- (0,1), (0,2), (1,2), (0,3), ... -- into 6-bit groups, most
significant bit first, zero-padded, each group printed as its value plus
63. The vertex count precedes the bits: one byte for n <= 62, '~' plus
three bytes (18 bits) up to 258047, '~~' plus six bytes (36 bits) beyond.
"""

from __future__ import annotations

from .graph import Graph

#: The vertex-count forms: entry k is the largest n of the form with k
#: leading '~', and its count of 6-bit digits. The long form stops at
#: 258047 = 62 * 64**2 + 63 * 64 + 63 so that its first digit is never '~'.
_ORDER_FORMS = ((62, 1), (258047, 3), (68719476735, 6))

OPTIONAL_HEADER = ">>graph6<<"


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _char_value(line: str, pos: int) -> int:
    if pos >= len(line):
        raise Graph6ParseError("truncated graph6 line", len(line))
    value = ord(line[pos]) - 63
    if not 0 <= value <= 63:
        raise Graph6ParseError(f"byte {line[pos]!r} outside graph6 range", pos)
    return value


def _parse_order(line: str) -> tuple[int, int]:
    """Vertex count and the offset where the edge bits start."""
    tildes = 0
    while tildes < 2 and _char_value(line, tildes) == 63:
        tildes += 1
    digits = _ORDER_FORMS[tildes][1]
    n = 0
    for pos in range(tildes, tildes + digits):
        n = (n << 6) | _char_value(line, pos)
    return n, tildes + digits


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a labeled graph."""
    if not line:
        raise Graph6ParseError("empty graph6 line", 0)
    n, data_start = _parse_order(line)
    if n < 1:
        raise Graph6ParseError("graph6 line encodes a graph with no vertices", 0)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(line) > data_start + nchars:
        raise Graph6ParseError("trailing garbage after graph6 data", data_start + nchars)
    if len(line) < data_start + nchars:
        raise Graph6ParseError("truncated graph6 line", len(line))
    adj = [0] * n
    bit_index = 0
    i, j = 0, 1
    for k in range(nchars):
        group = _char_value(line, data_start + k)
        for shift in (5, 4, 3, 2, 1, 0):
            if bit_index == nbits:
                if (group >> shift) & 1:
                    raise Graph6ParseError("nonzero padding bits", data_start + k)
                continue
            if (group >> shift) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit_index += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(adj))


def _encode_order(n: int) -> str:
    for tildes, (largest, digits) in enumerate(_ORDER_FORMS):
        if n <= largest:
            shifts = range(6 * digits - 6, -1, -6)
            return "~" * tildes + "".join(chr(63 + (n >> s & 63)) for s in shifts)
    raise ValueError(f"n={n} exceeds the graph6 size limit")


def write_graph6(g: Graph) -> str:
    """Encode a labeled graph as one graph6 line (no trailing newline)."""
    out = [_encode_order(g.n)]
    group = 0
    filled = 0
    for j in range(1, g.n):
        column = g.adj[j]
        for i in range(j):
            group = (group << 1) | ((column >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + group))
                group = 0
                filled = 0
    if filled:
        out.append(chr(63 + (group << (6 - filled))))
    return "".join(out)
