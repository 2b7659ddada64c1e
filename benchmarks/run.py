"""rowspace benchmark: one entry point, three single-process workloads.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from a checkout that holds ``src/rowspace``; it imports the package
from there. Workloads:

* ``sweep-n6``: ``exhaustive_verify(6, jobs=1)`` over all 26,704 labeled
  connected 6-vertex graphs (the seed is ignored).
* ``verify-corpus``: ``run_verification(lines, jobs=1)`` plus ``to_json``
  and ``json.dumps`` per record, as ``rowspace verify`` does, over a seeded
  graph6 corpus.
* ``oracle-proof``: ``enumerate_all_witnesses`` over a seeded set of 13- to
  16-vertex graphs.

With ``--trace 0`` a run sets up several times, then repeats whole passes
over its inputs until the next pass would end past ``--seconds`` of
measured time, checks every output outside the timed intervals, and prints
the end-to-end metrics. With ``--trace 1`` it replays the inputs once with spans
around every layer call (see tracing.py), next to an untraced run of the
same inputs, and prints the per-layer metrics, unscaled. Either way the last line of standard output
is one JSON object, and a result file with provenance goes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

import inputs
import tracing
from tracing import PROBE, DispatchReplay, Tracer, interposed, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
CALIBRATION_REPEATS = 4
#: Calibration loop time that defines the reference speed, about its
#: median on a 2-vCPU shared x86-64 container under CPython 3.11 with the
#: host quiet.
REFERENCE_S = 0.040
SWEEP_N = 6
SWEEP_MASKS = (1 << SWEEP_N * (SWEEP_N - 1) // 2) - 1
SWEEP_GRAPHS = 26704
SWEEP_CHUNK = 500
VERIFY_CHUNK = 50
SWEEP_HISTOGRAM = {
    "disjoint-neighborhood": 21571,
    "oracle": 3313,
    "lifted": 1745,
    "dominating-regular": 72,
    "catalog-rank5": 2,
    "complete-all-ones": 1,
}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "resolved_ratio": "ratio",
}


_CALIBRATION_ROWS = [[3 if i == j else (i * 7 + j * 3) % 5 - 2 for j in range(16)] for i in range(10)]


def _calibration_work() -> int:
    """Fixed pure-Python work with the program's mix of operations: int bit
    tricks, dict updates, list comprehensions, Fractions, and integer row
    reduction of 0/1 vectors as in an echelon scan. It shares no code with
    rowspace, so no change to the program can change its time."""
    acc = 0
    for mask in range(1, 600):
        y = [(mask >> j) & 1 for j in range(16)]
        for k, row in enumerate(_CALIBRATION_ROWS):
            if y[k]:
                y = [row[k] * a - y[k] * b for a, b in zip(y, row)]
        acc += not any(y)
    counts: dict[int, int] = {}
    for i in range(60000):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & -m).bit_length()
        counts[m & 255] = counts.get(m & 255, 0) + 1
        if i % 50 == 0:
            acc += sum(Fraction(k, 7) for k in range(1, 6)).numerator
    rows = [[(i * j) % 7 for j in range(16)] for i in range(16)]
    for _ in range(40):
        rows = [[a - b for a, b in zip(r, rows[0])] for r in rows]
    return acc + rows[-1][-1] + len(counts)


class Clock:
    """The machine's speed, sampled with the calibration loop between passes.

    On a shared host the same pass can take 40% longer from one minute to
    the next, and the calibration loop slows down with it. Each ``sample``
    closes one interval of the run; ``factor(k)`` is REFERENCE_S over the
    median calibration time on both sides of interval k, and multiplying a
    time measured in that interval by it gives the time at the reference
    speed, on which runs minutes apart agree.
    """

    def __init__(self) -> None:
        self.gaps: list[list[float]] = []

    def sample(self) -> None:
        gap = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = perf_counter()
            _calibration_work()
            gap.append(perf_counter() - t0)
        self.gaps.append(gap)

    def factor(self, k: int) -> float:
        return REFERENCE_S / statistics.median(self.gaps[k] + self.gaps[k + 1])


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    #: Units of work done, for throughput: graphs, records or vectors.
    items: int
    #: Per-result latencies in seconds: the sweep, each record, each proof.
    latencies: list[float]
    #: The clock interval each latency was measured in.
    intervals: list[int]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _interval(clock: Clock | None) -> int:
    """Index of the clock interval now running (0 without a clock)."""
    return len(clock.gaps) - 1 if clock is not None else 0


@dataclass
class Tally:
    """Operations attempted, failed checks, and unresolved answers."""

    attempted: int = 0
    failed: int = 0
    unresolved: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _import_rowspace():
    """A fresh import of rowspace, as a new process would pay for it."""
    for name in [m for m in sys.modules if m == "rowspace" or m.startswith("rowspace.")]:
        del sys.modules[name]
    rs = importlib.import_module("rowspace")
    importlib.import_module("rowspace.cli")
    return rs


def _passes(seconds: float, one_pass, clock: Clock) -> list[Pass]:
    """``one_pass()`` repeated until the next pass would end past
    ``seconds`` of measured time; at least once. The clock is sampled after
    each pass, and a pass may sample it between its latencies too."""
    passes: list[Pass] = []
    while True:
        passes.append(one_pass())
        clock.sample()
        measured = sum(p.wall for p in passes)
        if measured + passes[-1].wall > seconds:
            return passes


def _summary(passes: list[Pass], factor) -> dict[str, float]:
    """Throughput (all work over all time) and latency, each latency scaled
    by ``factor(interval)``.

    The tail is the 99th percentile when the run has at least 1,000
    latencies and the 75th otherwise: with the 5 to 40 latencies of a sweep
    or proof run, a 99th percentile is the slowest sample, which one burst
    of host load decides."""
    latencies = [t * factor(k) for p in passes for t, k in zip(p.latencies, p.intervals)]
    tail = 0.99 if len(latencies) >= 1000 else 0.75
    return {
        "throughput_per_s": sum(p.items for p in passes) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, tail) * 1e3,
    }


# ---------------------------------------------------------------- sweep-n6


def build_sweep(rs, seed):
    return None


def _sweep_pass(rs, tally: Tally, clock: Clock) -> Pass:
    t0 = perf_counter()
    report = rs.oracle.exhaustive_verify(SWEEP_N, jobs=1)
    wall = perf_counter() - t0
    _check_sweep(report.graphs_checked, report.failures, report.strategy_histogram, tally)
    return Pass(SWEEP_GRAPHS, [wall], [_interval(clock)])


def _check_sweep(checked: int, failures: list[str], histogram: dict[str, int], tally: Tally) -> None:
    tally.attempted += SWEEP_GRAPHS
    wrong = len(failures) + abs(checked - SWEEP_GRAPHS)
    wrong += sum(max(0, count - histogram.get(s, 0)) for s, count in SWEEP_HISTOGRAM.items())
    if wrong:
        tally.fail(
            min(wrong, SWEEP_GRAPHS),
            f"sweep: {checked} graphs, failures {failures[:5]}, histogram {histogram}",
        )


def measure_sweep(rs, data, seconds: float, tally: Tally, clock: Clock) -> list[Pass]:
    return _passes(seconds, lambda: _sweep_pass(rs, tally, clock), clock)


def trace_sweep(rs, data, seed: int, tracer: Tracer, tally: Tally) -> float:
    """Two walks over iter_connected_graphs(6) alternate in chunks of
    SWEEP_CHUNK graphs, so both see the same host speed: an untraced one
    calling find_witness and a traced one replaying the dispatch. Their
    witnesses must agree. Returns the untraced wall time."""
    replay = DispatchReplay(rs, tracer)
    plain = rs.oracle.iter_connected_graphs(SWEEP_N)
    traced = rs.oracle.iter_connected_graphs(SWEEP_N)
    found: list = []
    untraced = 0.0
    yielded = 0
    while True:
        t0 = perf_counter()
        found.extend(rs.witness.find_witness(g) for g in islice(plain, SWEEP_CHUNK))
        untraced += perf_counter() - t0
        with interposed(tracer, rs, replay):
            taken = _traced_generate(rs, tracer, replay, traced, SWEEP_CHUNK)
        yielded += taken
        if taken < SWEEP_CHUNK:
            break
    histogram: dict[str, int] = {}
    for _, _, w in replay.log:
        key = "none" if w is None else w.strategy.value
        histogram[key] = histogram.get(key, 0) + 1
    failures = [rs.graph6.write_graph6(g) for g, _, w in replay.log if w is None]
    _check_sweep(yielded, failures, histogram, tally)
    if len(found) != len(replay.log):
        tally.fail(1, f"untraced walk saw {len(found)} graphs, traced {len(replay.log)}")
    for (g, _, w), real in zip(replay.log, found):
        if w != real:
            tally.fail(1, f"replayed dispatch differs from find_witness on {rs.graph6.write_graph6(g)}")
    corpus = build_verify(rs, seed)
    tracer.stage = PROBE
    _traced_verify(rs, tracer, inputs.probe_lines(corpus), tally)
    _traced_cli(rs, tracer, inputs.probe_lines(corpus), tally, f"sweep-n6-{seed}")
    _traced_enumerate(rs, tracer, _small_graphs(rs, corpus), {}, tally)
    return untraced


def _traced_generate(rs, tracer: Tracer, replay: DispatchReplay | None, gen, count: int) -> int:
    """Up to ``count`` graphs from ``gen``, a span around each; with a
    replay, the dispatch runs on each graph too. Returns how many it took."""
    for taken in range(count):
        with tracer.item("sweep.item"):
            g = tracer.call("graph.iter_connected_graphs", next, gen, None)
            if g is None:
                tracer.note(exhausted=True)
                return taken
            if replay is not None:
                replay.find_traced(g)
    return count


# ----------------------------------------------------------- verify-corpus


def build_verify(rs, seed: int) -> list[inputs.CorpusLine]:
    large = [rs.families.build(name, size).adj for name, size in inputs.LARGE_FAMILIES]
    coverage = [rs.families.build(name, size).adj for name, size in inputs.COVERAGE_FAMILIES]
    return inputs.verify_corpus(seed, large, coverage)


def _serialize(record) -> str:
    return json.dumps(record.to_json())


def _verify_pass(rs, corpus, tally: Tally, clock: Clock | None = None) -> Pass:
    """One streaming pass; each record is timed from resuming the
    generator to the serialized line."""
    gen = rs.harness.run_verification([line.graph6 for line in corpus], jobs=1)
    out: list[str] = []
    latencies: list[float] = []
    while True:
        t0 = perf_counter()
        record = next(gen, None)
        if record is None:
            break
        out.append(_serialize(record))
        latencies.append(perf_counter() - t0)
    _check_records(rs, corpus, out, tally, rs.graph6.write_graph6)
    return Pass(len(corpus), latencies, [_interval(clock)] * len(latencies))


def _check_records(rs, corpus, out: list[str], tally: Tally, write) -> None:
    tally.attempted += len(corpus)
    if len(out) != len(corpus):
        tally.fail(abs(len(out) - len(corpus)), f"{len(out)} records for {len(corpus)} lines")
    for line, text in zip(corpus, out):
        record = json.loads(text)
        problem = _record_problem(rs, line, record, write)
        if problem is not None:
            tally.fail(1, f"{line.graph6}: {problem}")
        elif record["status"] == "skipped-too-large":
            tally.unresolved += 1


def _record_problem(rs, line: inputs.CorpusLine, record: dict, write) -> str | None:
    """Why a record is wrong, or None. An ``ok`` record is re-parsed and
    its witness re-checked from the "p/q" certificate."""
    if record["graph6"] != line.graph6:
        return "record out of input order"
    g = rs.graph6.parse_graph6(line.graph6)
    if g.adj != line.adj:
        return "parse differs from the encoded graph"
    if write(g) != line.graph6:
        return "graph6 round trip differs"
    if record.get("n") != line.n or record.get("edges") != line.edges:
        return "wrong order or size"
    status = record["status"]
    if status == "skipped-too-large":
        return None if line.n > rs.witness.DEFAULT_ORACLE_LIMIT else "skipped within the oracle bound"
    if status != "ok":
        return f"status {status}"
    vector = tuple(int(b) for b in record["witness"])
    coeffs = tuple(Fraction(c) for c in record["certificate"])
    cert = rs.linalg.MembershipCertificate(coeffs, vector)
    w = rs.witness.Witness(vector, cert, rs.witness.Strategy(record["strategy"]))
    return None if rs.witness.verify_witness(g, w) else "witness fails re-verification"


def measure_verify(rs, corpus, seconds: float, tally: Tally, clock: Clock) -> list[Pass]:
    return _passes(seconds, lambda: _verify_pass(rs, corpus, tally, clock), clock)


def _traced_verify(rs, tracer: Tracer, corpus, tally: Tally) -> None:
    replay = DispatchReplay(rs, tracer)
    out: list[str] = []
    with interposed(tracer, rs, replay):
        gen = rs.harness.run_verification([line.graph6 for line in corpus], jobs=1)
        for _ in corpus:
            with tracer.item("verify.item"):
                record = tracer.call("harness.record", next, gen)
                out.append(tracer.call("harness.serialize", _serialize, record))
        if next(gen, None) is not None:
            tally.fail(1, "more records than lines")

    def write(g):
        return tracer.call("graph6.write_graph6", rs.graph6.write_graph6, g)

    _check_records(rs, corpus, out, tally, write)
    for line in replay.mismatches():
        tally.fail(1, f"replayed dispatch differs from find_witness on {line}")


def _traced_cli(rs, tracer: Tracer, corpus, tally: Tally, tag: str) -> None:
    """One in-process ``rowspace verify`` over the lines as a file."""
    RESULTS.mkdir(exist_ok=True)
    source, sink = RESULTS / f"cli-{tag}.g6", RESULTS / f"cli-{tag}.jsonl"
    source.write_text("".join(line.graph6 + "\n" for line in corpus), encoding="ascii")
    code = tracer.call("cli.main", rs.cli.main, ["verify", "--input", str(source), "--out", str(sink)])
    written = len(sink.read_text(encoding="ascii").splitlines())
    tally.attempted += 1
    if code != 0 or written != len(corpus):
        tally.fail(1, f"rowspace verify exited {code} with {written} records for {len(corpus)} lines")


def trace_verify(rs, corpus, seed: int, tracer: Tracer, tally: Tally) -> float:
    """Returns the untraced wall time; untraced and traced runs alternate in
    chunks of VERIFY_CHUNK lines, so both see the same host speed."""
    untraced = 0.0
    for start in range(0, len(corpus), VERIFY_CHUNK):
        chunk = corpus[start : start + VERIFY_CHUNK]
        untraced += _verify_pass(rs, chunk, tally).wall
        _traced_verify(rs, tracer, chunk, tally)
    _traced_cli(rs, tracer, corpus, tally, f"verify-corpus-{seed}")
    tracer.stage = PROBE
    _traced_generate(rs, tracer, None, rs.oracle.iter_connected_graphs(SWEEP_N), SWEEP_MASKS)
    _traced_enumerate(rs, tracer, _small_graphs(rs, corpus), {}, tally)
    return untraced


# ------------------------------------------------------------ oracle-proof


def build_proof(rs, seed: int):
    named = [rs.families.build(name, size).adj for name, size in inputs.PROOF_FAMILIES]
    return [(label, rs.graph.Graph(len(adj), adj)) for label, adj in inputs.proof_graphs(seed, named)]


def _small_graphs(rs, corpus):
    """Coverage graphs of at most 10 vertices, for the enumeration probe."""
    return [
        (line.graph6, rs.graph.Graph(line.n, line.adj))
        for line in corpus
        if line.group == "coverage" and line.n <= 10
    ]


def _check_proof(rs, label: str, g, witnesses, expected: dict, tally: Tally) -> None:
    """The count must match the kernel-based reference count and the first
    vector brute_force_witness's; both are computed once per graph."""
    if label not in expected:
        first = rs.oracle.brute_force_witness(g).witness
        expected[label] = (inputs.reference_witness_count(g.adj), None if first is None else first.vector)
    count, first = expected[label]
    tally.attempted += 1
    got_first = witnesses[0] if witnesses else None
    if len(witnesses) != count or got_first != first:
        tally.fail(1, f"{label}: {len(witnesses)} witnesses, expected {count}; first {got_first} vs {first}")


def _proof_pass(rs, graphs, expected: dict, tally: Tally, clock: Clock | None = None) -> Pass:
    """One proof per graph; a proof takes up to 2 s, so with a clock the
    host speed is sampled between proofs."""
    times: list[float] = []
    intervals: list[int] = []
    for i, (label, g) in enumerate(graphs):
        if i and clock is not None:
            clock.sample()
        t0 = perf_counter()
        witnesses = rs.oracle.enumerate_all_witnesses(g)
        times.append(perf_counter() - t0)
        intervals.append(_interval(clock))
        _check_proof(rs, label, g, witnesses, expected, tally)
    return Pass(sum((1 << g.n) - 1 for _, g in graphs), times, intervals)


def measure_proof(rs, graphs, seconds: float, tally: Tally, clock: Clock) -> list[Pass]:
    expected: dict = {}
    return _passes(seconds, lambda: _proof_pass(rs, graphs, expected, tally, clock), clock)


def _traced_enumerate(rs, tracer: Tracer, graphs, expected: dict, tally: Tally) -> None:
    results = []
    with interposed(tracer, rs):
        for label, g in graphs:
            with tracer.item("proof.item"):
                results.append(tracer.call("oracle.enumerate_all_witnesses", rs.oracle.enumerate_all_witnesses, g))
                tracer.note(vectors=(1 << g.n) - 1)
    for (label, g), witnesses in zip(graphs, results):
        _check_proof(rs, label, g, witnesses, expected, tally)


def trace_proof(rs, graphs, seed: int, tracer: Tracer, tally: Tally) -> float:
    """Returns the untraced wall time; untraced and traced proofs of each
    graph run back to back, so both see the same host speed."""
    expected: dict = {}
    untraced = 0.0
    for graph in graphs:
        untraced += _proof_pass(rs, [graph], expected, tally).wall
        _traced_enumerate(rs, tracer, [graph], expected, tally)
    corpus = build_verify(rs, seed)
    tracer.stage = PROBE
    _traced_generate(rs, tracer, None, rs.oracle.iter_connected_graphs(SWEEP_N), SWEEP_MASKS)
    _traced_verify(rs, tracer, inputs.probe_lines(corpus), tally)
    _traced_cli(rs, tracer, inputs.probe_lines(corpus), tally, f"oracle-proof-{seed}")
    return untraced


# ------------------------------------------------------------- entry point

WORKLOADS = {
    "sweep-n6": (build_sweep, measure_sweep, trace_sweep),
    "verify-corpus": (build_verify, measure_verify, trace_verify),
    "oracle-proof": (build_proof, measure_proof, trace_proof),
}

#: The names the end-to-end metrics go by per workload in the design notes.
ALIASES = {
    "sweep-n6": {"sweep.graphs_per_s": "throughput_per_s"},
    "verify-corpus": {
        "verify.records_per_s": "throughput_per_s",
        "verify.record_p50_ms": "latency_p50_ms",
        "verify.record_p99_ms": "latency_tail_ms",
    },
    "oracle-proof": {"proof.vectors_per_s": "throughput_per_s", "proof.graph_p50_ms": "latency_p50_ms"},
}


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for entry in (git / "packed-refs").read_text().splitlines():
            if entry.endswith(" " + ref):
                return entry.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rowspace" / "__init__.py").is_file():
        print(f"benchmark: no rowspace package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The program's default oracle bound, whatever the environment says.
    os.environ.pop("ROWSPACE_ORACLE_LIMIT", None)
    build, measure, trace = WORKLOADS[args.workload]

    clock = Clock()
    clock.sample()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rs = _import_rowspace()
        data = build(rs, args.seed)
        setup_times.append(perf_counter() - t0)
    clock.sample()

    tally = Tally()
    result = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace)}
    if args.trace:
        tracer = Tracer()
        untraced = trace(rs, data, args.seed, tracer, tally)
        spans = tracing.Spans(tracer.spans)
        layer = spans.metrics(round(untraced * 1e9), SWEEP_MASKS)
        for metric in spans.missing:
            tally.fail(1, f"no spans for per-layer metric {metric}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in tracing.PER_LAYER.items()}
        RESULTS.mkdir(exist_ok=True)
        span_file = RESULTS / f"TRACE_{args.workload}_seed{args.seed}.jsonl.gz"
        tracer.write(span_file)
        result["targets"] = {name: target for name, (_, target) in tracing.PER_LAYER.items()}
        result["sources"] = spans.sources
        result["spans"] = {"file": span_file.relative_to(ROOT).as_posix(), "count": len(tracer.spans)}
        result["untraced_pass_s"] = untraced
    else:
        passes = measure(rs, data, args.seconds, tally, clock)
        resolved = (tally.attempted - tally.failed - tally.unresolved) / tally.attempted
        values = {"setup_s": statistics.median(setup_times) * clock.factor(0), **_summary(passes, clock.factor)}
        values["resolved_ratio"] = resolved
        raw = {"setup_s": statistics.median(setup_times), **_summary(passes, lambda k: 1.0)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        result["raw"] = raw
        result["aliases"] = {alias: values[name] for alias, name in ALIASES[args.workload].items()}
        result["aliases"]["failed_ratio"] = tally.failed / tally.attempted
        result["aliases"]["unresolved_ratio"] = tally.unresolved / tally.attempted
        result["samples"] = {
            "passes": len(passes),
            "latencies": sum(len(p.latencies) for p in passes),
            "pass_s": [p.wall for p in passes],
        }
    result["setup_s_samples"] = setup_times
    result["calibration"] = {"reference_s": REFERENCE_S, "gaps_s": clock.gaps}
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    result.update(summary)
    result["problems"] = tally.problems
    RESULTS.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
