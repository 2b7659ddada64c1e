"""Bit-exact graph6 encoding and decoding.

graph6 writes the upper triangle of the adjacency matrix as one bit string
in column-major order -- (0,1), (0,2), (1,2), (0,3), ... -- so column j,
the pairs (i, j) with i < j, starts at bit j(j-1)/2. The string is
zero-padded to 6-bit groups, each printed most significant bit first as its
value plus 63. The vertex count precedes the bits: one byte for n <= 62,
'~' plus three bytes (18 bits) up to 258047, '~~' plus six bytes beyond.
"""

from __future__ import annotations

from .graph import Graph, iter_bits

#: The vertex-count forms: entry k is the largest n of the form with k
#: leading '~', and its count of 6-bit digits. The long form stops at
#: 258047 = 62 * 64**2 + 63 * 64 + 63 so that its first digit is never '~'.
_ORDER_FORMS = ((62, 1), (258047, 3), (68719476735, 6))

OPTIONAL_HEADER = ">>graph6<<"

#: Each character's six binary digits, least significant first (a
#: ``str.translate`` table), and the six digits, most significant first,
#: back to the character.
_DIGITS_REVERSED = {63 + value: format(value, "06b")[::-1] for value in range(64)}
_CHARS = {format(value, "06b"): chr(63 + value) for value in range(64)}


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
    """Decode one graph6 line into a labeled graph. The length checks come
    first, so a huge header on a short line allocates nothing."""
    if not line:
        raise Graph6ParseError("empty graph6 line", 0)
    n, data_start = _parse_order(line)
    if n < 1:
        raise Graph6ParseError("graph6 line encodes a graph with no vertices", 0)
    nbits = n * (n - 1) // 2
    data_end = data_start + (nbits + 5) // 6
    if len(line) > data_end:
        raise Graph6ParseError("trailing garbage after graph6 data", data_end)
    if len(line) < data_end:
        raise Graph6ParseError("truncated graph6 line", len(line))
    data = line[: data_start - 1 : -1]  # last character first
    if data and not "?" <= min(data) <= max(data) <= "~":
        for pos in range(data_start, data_end):
            _char_value(line, pos)  # raises at the first bad character
    # The line's bit string reversed: the padding, all from the last
    # character, comes first, and pair 0 last.
    bits = data.translate(_DIGITS_REVERSED)
    if "1" in bits[: len(bits) - nbits]:
        raise Graph6ParseError("nonzero padding bits", data_end - 1)
    adj = [0] * n
    end = len(bits)
    for j in range(1, n):
        adj[j] = int(bits[end - j : end], 2)  # pair (i, j) is bit i
        end -= j
        for i in iter_bits(adj[j]):
            adj[i] |= 1 << j
    return Graph._trusted(n, tuple(adj))


def _encode_order(n: int) -> str:
    for tildes, (largest, digits) in enumerate(_ORDER_FORMS):
        if n <= largest:
            shifts = range(6 * digits - 6, -1, -6)
            return "~" * tildes + "".join(chr(63 + (n >> s & 63)) for s in shifts)
    raise ValueError(f"n={n} exceeds the graph6 size limit")


def write_graph6(g: Graph) -> str:
    """Encode a labeled graph as one graph6 line (no trailing newline).
    Column j is j's lower neighbours in ``linalg._bit_vector``'s idiom."""
    order = _encode_order(g.n)
    bits = "".join([bin(g.adj[j] & ((1 << j) - 1) | 1 << j)[:2:-1] for j in range(1, g.n)])
    bits += "0" * (-len(bits) % 6)
    return order + "".join([_CHARS[bits[k : k + 6]] for k in range(0, len(bits), 6)])
