"""Batch verification over graph6 streams with JSONL reports.

Each input line becomes one record. Rationals are serialized as "p/q"
strings so reports stay exact; the diameter of a disconnected input is
None and serializes as null. Records are self-verifying: re-parsing a
record's graph6 and re-checking its witness and certificate succeeds for
every status=ok record. The record's diameter and the search's
``diam-ge4-path`` read one ball expansion, which the graph keeps (see
``rowspace.graph``).

Statuses: ``ok`` (witness found and verified), ``no-witness-found`` (the
exhaustive oracle ran and no witness exists -- a counterexample), ``skipped``
(edgeless input, outside the searched property), ``skipped-too-large`` (no
constructive strategy fired and the oracle declined the graph the search
ended on: see ``witness.oracle_declines``), ``error`` (unparseable line),
``internal-error`` (any other exception, reported as ``"<Type>: <message>"``;
the stream goes on).
"""

from __future__ import annotations

import os
import string
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator

from .graph import Graph, diameter
from .graph6 import OPTIONAL_HEADER, Graph6ParseError, parse_graph6
from .linalg import _ZERO, adjacency_matrix, rank
from .witness import _BIT_CHARS, DEFAULT_ORACLE_LIMIT, check_oracle_limit, find_witness, oracle_declines

#: Largest n whose record carries the adjacency rank. Bareiss elimination
#: does n^3 steps on entries that grow with n, so one larger line could
#: stall a batch for minutes; a record above this has no ``rank`` key.
RANK_LIMIT = 256


def bounded_rank(g: Graph) -> int | None:
    """The rank of A(g), or None when n exceeds RANK_LIMIT."""
    return rank(adjacency_matrix(g)) if g.n <= RANK_LIMIT else None


def worker_count(jobs: int) -> int:
    """The worker processes ``jobs`` asks for, at most ``os.cpu_count()``;
    ValueError when ``jobs`` is below 1."""
    if jobs < 1:
        raise ValueError(f"--jobs {jobs} is below 1")
    return min(jobs, os.cpu_count() or 1)


def parallel_map(fn: Callable, items: Iterable, jobs: int, chunksize: int = 1) -> Iterator:
    """``fn`` over ``items``, results in input order, on
    ``worker_count(jobs)`` worker processes; in this process when that
    leaves one. ``fn`` must be a module-level function."""
    jobs = worker_count(jobs)
    if jobs <= 1:
        yield from map(fn, items)
        return
    with Pool(processes=jobs) as pool:
        yield from pool.imap(fn, items, chunksize)


def _fraction_str(value: Fraction) -> str:
    return "0/1" if value is _ZERO else f"{value.numerator}/{value.denominator}"


def _json(record, has_graph: bool) -> dict:
    """A record's fields that are set, in declaration order; ``diameter``
    also when None once the graph parsed, since null there means
    disconnected."""
    return {
        key: value
        for key, value in vars(record).items()
        if value is not None or (has_graph and key == "diameter")
    }


@dataclass
class VerificationRecord:
    graph6: str
    status: str
    n: int | None = None
    edges: int | None = None
    diameter: int | None = None  # None means disconnected once n is set
    rank: int | None = None
    strategy: str | None = None
    witness: str | None = None
    certificate: list[str] | None = None
    reason: str | None = None
    elapsed_us: int = 0

    def to_json(self) -> dict:
        return _json(self, self.n is not None)


@dataclass
class SizeBoundRecord:
    graph6: str
    order: int | None = None
    size: int | None = None
    has_dominating: bool | None = None
    diameter: int | None = None  # None means disconnected once order is set
    bound_2n_minus_5: int | None = None
    meets_bound: bool | None = None
    equality: bool | None = None
    error: str | None = None

    def is_violation(self) -> bool:
        """The 2n-5 size bound applies to diameter-2 graphs without a
        dominating vertex; True iff this record breaks it."""
        return (
            self.error is None
            and self.diameter == 2
            and self.has_dominating is False
            and not self.meets_bound
        )

    def to_json(self) -> dict:
        return _json(self, self.error is None)


def effective_lines(lines: Iterable[str]) -> Iterator[str]:
    """Strip ASCII whitespace, drop blanks and the optional '>>graph6<<'
    header. Other characters stay for the parser to reject: a latin-1 0xA0
    at the end of a line is an error, not padding."""
    for raw in lines:
        line = raw.strip(string.whitespace)
        if line.startswith(OPTIONAL_HEADER):
            line = line[len(OPTIONAL_HEADER) :].strip(string.whitespace)
        if line:
            yield line


def _verify_line(args: tuple[str, int]) -> VerificationRecord:
    line, oracle_limit = args
    start = time.perf_counter()
    try:
        record = _verify_graph(line, oracle_limit)
    except Graph6ParseError as exc:
        record = VerificationRecord(line, "error", reason=str(exc))
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        record = VerificationRecord(line, "internal-error", reason=reason)
    record.elapsed_us = round((time.perf_counter() - start) * 1_000_000)
    return record


def _verify_graph(line: str, oracle_limit: int) -> VerificationRecord:
    g = parse_graph6(line)
    size = g.size
    record = VerificationRecord(
        graph6=line,
        status="ok",
        n=g.n,
        edges=size,
        diameter=diameter(g),
        rank=bounded_rank(g),
    )
    if size == 0:
        record.status = "skipped"
        record.reason = "graph has no edge; the searched property assumes one"
        return record
    w = find_witness(g, oracle_limit)
    if w is not None:
        record.strategy = w.strategy.value
        record.witness = bytes(w.vector).translate(_BIT_CHARS).decode()
        record.certificate = [_fraction_str(c) for c in w.certificate.coefficients]
        return record
    declined = oracle_declines(g, oracle_limit)
    if declined is None:
        record.status = "no-witness-found"
        record.reason = "exhaustive candidate scan found no witness"
    else:
        record.status = "skipped-too-large"
        record.reason = declined
    return record


def run_verification(
    lines: Iterable[str],
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    jobs: int = 1,
) -> Iterator[VerificationRecord]:
    """One record per effective input line, in input order, computed by
    ``parallel_map`` on up to ``jobs`` worker processes. An oracle limit
    outside 0..MAX_ORACLE_LIMIT raises ValueError here, before any line is
    read, as does a ``jobs`` below 1; ``oracle_limit=0`` runs the
    constructive strategies only."""
    check_oracle_limit(oracle_limit)
    worker_count(jobs)
    work = ((line, oracle_limit) for line in effective_lines(lines))
    return parallel_map(_verify_line, work, jobs, chunksize=64)


def check_size_bound(lines: Iterable[str]) -> Iterator[SizeBoundRecord]:
    """Order, size, dominating-vertex and diameter data against the 2n-5 bound."""
    for line in effective_lines(lines):
        try:
            g = parse_graph6(line)
        except Graph6ParseError as exc:
            yield SizeBoundRecord(graph6=line, error=str(exc))
            continue
        bound = 2 * g.n - 5
        yield SizeBoundRecord(
            graph6=line,
            order=g.n,
            size=g.size,
            has_dominating=any(g.degree(v) == g.n - 1 for v in range(g.n)),
            diameter=diameter(g),
            bound_2n_minus_5=bound,
            meets_bound=g.size >= bound,
            equality=g.size == bound,
        )
