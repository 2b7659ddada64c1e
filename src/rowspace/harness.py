"""Batch verification over graph6 streams with JSONL reports.

Each input line becomes one record. Rationals are serialized as "p/q"
strings so reports stay exact; an infinite diameter (disconnected input)
serializes as null. Records are self-verifying: re-parsing a record's
graph6 and re-checking its witness and certificate succeeds for every
status=ok record.

Statuses: ``ok`` (witness found and verified), ``no-witness-found`` (the
exhaustive oracle ran and no witness exists -- a counterexample), ``skipped``
(edgeless input, outside the searched property), ``skipped-too-large`` (no
constructive strategy fired and the oracle declined the graph the search
ended on: see ``witness.oracle_declines``), ``error`` (unparseable line),
``internal-error`` (any other exception, reported as ``"<Type>: <message>"``;
the stream goes on).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterable, Iterator

from .graph import diameter
from .graph6 import OPTIONAL_HEADER, Graph6ParseError, parse_graph6
from .linalg import adjacency_matrix, rank
from .witness import DEFAULT_ORACLE_LIMIT, check_oracle_limit, find_witness, oracle_declines


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass
class VerificationRecord:
    graph6: str
    status: str
    elapsed_ms: int
    elapsed_us: int = 0
    n: int | None = None
    edges: int | None = None
    diameter: int | None = None  # None means infinite once n is set
    rank: int | None = None
    strategy: str | None = None
    witness: str | None = None
    certificate: list[str] | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        out: dict = {"graph6": self.graph6, "status": self.status}
        if self.n is not None:
            out["n"] = self.n
            out["edges"] = self.edges
            out["diameter"] = self.diameter
            out["rank"] = self.rank
        if self.strategy is not None:
            out["strategy"] = self.strategy
            out["witness"] = self.witness
            out["certificate"] = self.certificate
        if self.reason is not None:
            out["reason"] = self.reason
        out["elapsed_ms"] = self.elapsed_ms
        out["elapsed_us"] = self.elapsed_us
        return out


@dataclass
class SizeBoundRecord:
    graph6: str
    order: int | None = None
    size: int | None = None
    has_dominating: bool | None = None
    diameter: int | None = None  # None means infinite once order is set
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
        if self.error is not None:
            return {"graph6": self.graph6, "error": self.error}
        return {
            "graph6": self.graph6,
            "order": self.order,
            "size": self.size,
            "has_dominating": self.has_dominating,
            "diameter": self.diameter,
            "bound_2n_minus_5": self.bound_2n_minus_5,
            "meets_bound": self.meets_bound,
            "equality": self.equality,
        }


def effective_lines(lines: Iterable[str]) -> Iterator[str]:
    """Strip whitespace, drop blanks and the optional '>>graph6<<' header."""
    for raw in lines:
        line = raw.strip()
        if line.startswith(OPTIONAL_HEADER):
            line = line[len(OPTIONAL_HEADER) :].strip()
        if line:
            yield line


def _stamped(record: VerificationRecord, start: float) -> VerificationRecord:
    us = round((time.perf_counter() - start) * 1_000_000)
    record.elapsed_us = us
    record.elapsed_ms = round(us / 1000)
    return record


def _verify_line(args: tuple[str, int]) -> VerificationRecord:
    line, oracle_limit = args
    start = time.perf_counter()
    try:
        record = _verify_graph(line, oracle_limit)
    except Graph6ParseError as exc:
        record = VerificationRecord(line, "error", 0, reason=str(exc))
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        record = VerificationRecord(line, "internal-error", 0, reason=reason)
    return _stamped(record, start)


def _verify_graph(line: str, oracle_limit: int) -> VerificationRecord:
    g = parse_graph6(line)
    diam = diameter(g)
    record = VerificationRecord(
        graph6=line,
        status="ok",
        elapsed_ms=0,
        n=g.n,
        edges=g.size,
        diameter=None if math.isinf(diam) else int(diam),
        rank=rank(adjacency_matrix(g)),
    )
    if g.size == 0:
        record.status = "skipped"
        record.reason = "graph has no edge; the searched property assumes one"
        return record
    w = find_witness(g, oracle_limit)
    if w is not None:
        record.strategy = w.strategy.value
        record.witness = "".join(str(b) for b in w.vector)
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
    """One record per effective input line, in input order. At most
    ``os.cpu_count()`` worker processes run, however large ``jobs`` is.
    An oracle limit outside 0..MAX_ORACLE_LIMIT raises ValueError here,
    before any line is read; ``oracle_limit=0`` runs the constructive
    strategies only."""
    check_oracle_limit(oracle_limit)
    work = ((line, oracle_limit) for line in effective_lines(lines))
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return map(_verify_line, work)
    return _pooled(work, jobs)


def _pooled(work: Iterator[tuple], jobs: int) -> Iterator[VerificationRecord]:
    with Pool(processes=jobs) as pool:
        yield from pool.imap(_verify_line, work, chunksize=64)


def check_size_bound(lines: Iterable[str]) -> Iterator[SizeBoundRecord]:
    """Order, size, dominating-vertex and diameter data against the 2n-5 bound."""
    for line in effective_lines(lines):
        try:
            g = parse_graph6(line)
        except Graph6ParseError as exc:
            yield SizeBoundRecord(graph6=line, error=str(exc))
            continue
        diam = diameter(g)
        bound = 2 * g.n - 5
        yield SizeBoundRecord(
            graph6=line,
            order=g.n,
            size=g.size,
            has_dominating=any(g.degree(v) == g.n - 1 for v in range(g.n)),
            diameter=None if math.isinf(diam) else int(diam),
            bound_2n_minus_5=bound,
            meets_bound=g.size >= bound,
            equality=g.size == bound,
        )
