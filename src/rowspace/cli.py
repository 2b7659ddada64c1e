"""Command-line front end: verify, exhaustive, family, size-bound."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import ExitStack
from typing import IO

from .families import FAMILY_NAMES, build
from .graph import diameter
from .graph6 import write_graph6
from .harness import check_size_bound, run_verification
from .linalg import adjacency_matrix, rank
from .oracle import exhaustive_verify
from .witness import DEFAULT_ORACLE_LIMIT, MAX_ORACLE_LIMIT, check_oracle_limit

ORACLE_LIMIT_ENV = "ROWSPACE_ORACLE_LIMIT"


def resolve_oracle_limit(explicit: int | None = None) -> int:
    """Explicit value, else the ROWSPACE_ORACLE_LIMIT env var, else 16.

    Raises ValueError for a value outside 0..MAX_ORACLE_LIMIT.
    """
    if explicit is not None:
        return check_oracle_limit(explicit)
    env = os.environ.get(ORACLE_LIMIT_ENV)
    if env is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        limit = int(env)
    except ValueError:
        raise ValueError(f"{ORACLE_LIMIT_ENV}={env!r} is not an integer")
    return check_oracle_limit(limit, ORACLE_LIMIT_ENV)


def _open_input(stack: ExitStack, path: str) -> IO[str]:
    """graph6 text decoded as latin-1 from a file or stdin alike: each byte
    is one character, so a non-ASCII byte reaches the parser, which reports
    it with its byte offset, and the stream goes on."""
    if path == "-":
        sys.stdin.reconfigure(encoding="latin-1")
        return sys.stdin
    return stack.enter_context(open(path, "r", encoding="latin-1"))


def _open_output(stack: ExitStack, path: str) -> IO[str]:
    if path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="ascii"))


def _open_streams(stack: ExitStack, args: argparse.Namespace) -> tuple[IO[str], IO[str]]:
    """``--input`` and ``--out`` of a streaming command. An output naming
    the input file is refused: opening it would truncate the input before
    its first line is read."""
    paths = (args.input, args.out)
    if "-" not in paths and os.path.exists(args.out) and os.path.samefile(*paths):
        raise ValueError(f"--out {args.out} is the --input file")
    return _open_input(stack, args.input), _open_output(stack, args.out)


#: verify's exit code per record status, highest rank first.
_VERIFY_EXITS = (("no-witness-found", 3), ("internal-error", 4), ("error", 1))


def _cmd_verify(args: argparse.Namespace) -> int:
    """Exit 3 if any record is a counterexample, else 4 if any record hit an
    internal error, else 1 if any line failed to parse, else 0."""
    limit = resolve_oracle_limit(args.oracle_limit)
    statuses = set()
    with ExitStack() as stack:
        source, sink = _open_streams(stack, args)
        for record in run_verification(source, oracle_limit=limit, jobs=args.jobs):
            statuses.add(record.status)
            sink.write(json.dumps(record.to_json()) + "\n")
    return next((code for status, code in _VERIFY_EXITS if status in statuses), 0)


def _cmd_exhaustive(args: argparse.Namespace) -> int:
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
    bad = 0
    with ExitStack() as stack:
        source, sink = _open_streams(stack, args)
        for record in check_size_bound(source):
            if record.error is not None or record.is_violation():
                bad += 1
            sink.write(json.dumps(record.to_json()) + "\n")
    return 1 if bad else 0


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
    p.add_argument("--oracle-limit", type=int, default=None,
                   help=f"largest n for the exhaustive fallback, 0..{MAX_ORACLE_LIMIT}; "
                        "0 runs the constructive strategies only "
                        "(default: $ROWSPACE_ORACLE_LIMIT or 16)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("exhaustive", help="scan every labeled connected graph on n vertices")
    p.add_argument("--n", type=int, required=True, help="vertex count (n <= 7)")
    p.add_argument("--out", default="-", help="JSON report file ('-' = stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
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
