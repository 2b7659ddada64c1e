"""Command-line front end: verify, exhaustive, family, size-bound."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import ExitStack
from functools import partial
from typing import IO, Callable

from .families import FAMILY_NAMES, build
from .graph import diameter
from .graph6 import write_graph6
from .harness import check_size_bound, run_verification
from .linalg import adjacency_matrix, rank
from .oracle import exhaustive_verify
from .witness import DEFAULT_ORACLE_LIMIT, MAX_ORACLE_LIMIT


def _open_input(stack: ExitStack, path: str) -> IO[str]:
    """graph6 text decoded as latin-1 from a file or stdin alike: each byte
    is one character, so a non-ASCII byte reaches the parser, which reports
    it with its byte offset, and the stream goes on."""
    if path == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
        sys.stdin.reconfigure(encoding="latin-1")
        return sys.stdin
    return stack.enter_context(open(path, "r", encoding="latin-1"))


def _open_output(stack: ExitStack, path: str) -> IO[str]:
    if path == "-":
        if sys.stdout is None:
            raise OSError("stdout is closed")
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="ascii"))


def _stream(args: argparse.Namespace, records: Callable, exit_of: Callable) -> int:
    """``records`` of the ``--input`` stream, one JSON line each on ``--out``;
    exit with the first of 3, 4, 1 that ``exit_of`` gives a record, else 0.
    ``records`` is called before ``--out`` is opened, so it can refuse its
    arguments first. An output naming the input file is refused: opening it
    would truncate the input before its first line is read."""
    paths = (args.input, args.out)
    if "-" not in paths and os.path.exists(args.out) and os.path.samefile(*paths):
        raise ValueError(f"--out {args.out} is the --input file")
    codes = set()
    with ExitStack() as stack:
        stream = records(_open_input(stack, args.input))
        sink = _open_output(stack, args.out)
        for record in stream:
            codes.add(exit_of(record))
            sink.write(json.dumps(record.to_json()) + "\n")
    return next((code for code in (3, 4, 1) if code in codes), 0)


#: verify's exit code per record status; 0 for any other.
_VERIFY_EXITS = {"no-witness-found": 3, "internal-error": 4, "error": 1}


def _cmd_verify(args: argparse.Namespace) -> int:
    """Exit 3 if any record is a counterexample, else 4 if any record hit an
    internal error, else 1 if any line failed to parse, else 0. A bad
    ``--oracle-limit`` or ``--jobs`` is refused before ``--out`` is opened."""
    verify = partial(run_verification, oracle_limit=args.oracle_limit, jobs=args.jobs)
    return _stream(args, verify, lambda record: _VERIFY_EXITS.get(record.status, 0))


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    """An ``--out`` that cannot be a file is refused before the sweep, which
    may take minutes; the report is written after it, so an internal error
    leaves no file."""
    if not args.out:
        raise ValueError("--out is empty")
    if args.out != "-" and os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is a directory")
    if args.out != "-" and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out} is in a missing directory")
    report = exhaustive_verify(args.n, jobs=args.jobs)
    with ExitStack() as stack:
        sink = _open_output(stack, args.out)
        sink.write(json.dumps(dataclasses.asdict(report)) + "\n")
    return 1 if report.failures else 0


def _cmd_family(args: argparse.Namespace) -> int:
    g = build(args.name, args.size)
    line = write_graph6(g)
    if args.emit_graph6:
        print(line)
        return 0
    diam = diameter(g)
    print(f"family:   {args.name}" + (f" (size {args.size})" if args.size else ""))
    print(f"order:    {g.n}")
    print(f"edges:    {g.size}")
    print(f"diameter: {'infinite' if diam is None else diam}")
    print(f"rank:     {rank(adjacency_matrix(g))}")
    print(f"graph6:   {line}")
    return 0


def _cmd_size_bound(args: argparse.Namespace) -> int:
    """Exit 1 if any line failed to parse or breaks the bound, else 0."""
    return _stream(args, check_size_bound, lambda r: int(r.error is not None or r.is_violation()))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowspace",
        description=(
            "Construct and certify non-zero (0,1)-vectors that lie in the row "
            "space of a graph's adjacency matrix without occurring as rows."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="batch-verify a graph6 stream, one JSONL record per line")
    p.add_argument("--input", default="-", help="graph6 file, one graph per line ('-' = stdin)")
    p.add_argument("--out", default="-", help="JSONL output file ('-' = stdout)")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT,
                   help=f"largest n for the exhaustive fallback, 0..{MAX_ORACLE_LIMIT}; "
                        "0 runs the constructive strategies only (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes, at least 1")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("exhaustive", help="scan every labeled connected graph on n vertices")
    p.add_argument("--n", type=int, required=True, help="vertex count (n <= 7)")
    p.add_argument("--out", default="-", help="JSON report file ('-' = stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes, at least 1")
    p.set_defaults(handler=_cmd_exhaustive)

    p = sub.add_parser("family", help="build a named graph")
    p.add_argument("--name", required=True, choices=sorted(FAMILY_NAMES))
    p.add_argument("--size", type=int, default=None, help="size parameter for parametric families")
    p.add_argument("--emit-graph6", action="store_true", help="print only the graph6 line")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("size-bound", help="check the 2n-5 size bound over a graph6 stream")
    p.add_argument("--input", default="-")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_size_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit 2 on a bad argument or an unreadable or unwritable file, 4 on
    any other exception (an internal error), else the command's code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"rowspace: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"rowspace: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
