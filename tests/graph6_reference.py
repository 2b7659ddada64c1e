"""Reference codec for differential tests of rowspace.graph6.

``parse_graph6`` and ``write_graph6`` are the bit-by-bit codec the library
used before it decoded and encoded through one bit string per line: the
parse walks the upper triangle one bit at a time with a pair counter, the
write fills one 6-bit group at a time. The vertex-count helpers are the
library's own. The library's version must return the same graph, or raise
the same message at the same offset, and write the same line.
"""

from __future__ import annotations

from rowspace.graph import Graph
from rowspace.graph6 import Graph6ParseError, _char_value, _encode_order, _parse_order


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
    return Graph._trusted(n, tuple(adj))


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
