"""Spans around rowspace's layer calls, recorded from outside the program.

Two mechanisms give a traced run its spans, and neither changes rowspace:

* ``DispatchReplay`` rebuilds ``find_witness``'s dispatch from the public
  functions it calls, in the same order, with a span around each call. It
  keeps what the program throws away: each strategy's decline reason and
  the oracle's candidate count.
* ``interposed`` swaps the names one module imported from another for
  span-recording wrappers for the length of a ``with`` block: the harness's
  calls into graph6, graph, linalg and witness (``find_witness`` becomes the
  replay), rank's call into the echelon, and the oracle's calls into linalg.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns

# Span fields.
NAME, PARENT, ITEM, STAGE, START, END, ATTRS = range(7)

WORKLOAD = "workload"  # spans of the workload's own inputs
PROBE = "probe"  # spans of layers the workload does not reach

CONSTRUCTIVE = (
    "complete-all-ones",
    "disjoint-neighborhood",
    "diam-ge4-path",
    "dominating-regular",
    "catalog-rank5",
)
STRATEGIES = CONSTRUCTIVE + ("lifted", "oracle")


class Tracer:
    """In-memory spans: name, parent, item, stage, start and end in ns, attrs.

    Spans of one input share an item id; a span's parent is the span open
    around it, or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stage = WORKLOAD
        self.last: list | None = None
        self._stack: list[int] = []
        self._item = -1
        self._items = 0

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, self._stack[-1] if self._stack else -1, self._item, self.stage, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = perf_counter_ns()
            self._stack.pop()
            self.last = span

    def note(self, **attrs) -> None:
        """Attach attributes to the span that closed last."""
        self.last[ATTRS] = attrs

    @contextmanager
    def item(self, name: str):
        """Root span around one input; the spans inside share its item id."""
        self._item = self._items
        self._items += 1
        span = [name, -1, self._item, self.stage, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        try:
            yield
        finally:
            span[END] = perf_counter_ns()
            self._stack.pop()
            self._item = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _wrapped(tracer: Tracer, name: str, fn, attrs=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if attrs is not None:
            tracer.note(**attrs(args, result))
        return result

    return wrapper


@contextmanager
def interposed(tracer: Tracer, rs, replay: DispatchReplay | None = None):
    """Route rowspace's cross-module calls through span-recording wrappers;
    with a replay, the harness's ``find_witness`` becomes the replay."""
    targets = [
        (rs.harness, "parse_graph6", "graph6.parse_graph6", lambda a, r: {"bytes": len(a[0])}),
        (rs.harness, "diameter", "graph.diameter", None),
        (rs.harness, "adjacency_matrix", "linalg.adjacency_matrix", None),
        (rs.harness, "rank", "linalg.rank", None),
        (rs.linalg, "integer_row_echelon", "linalg.integer_row_echelon", None),
        (rs.oracle, "integer_row_echelon", "linalg.integer_row_echelon", None),
        (rs.oracle, "adjacency_matrix", "linalg.adjacency_matrix", None),
        (rs.oracle, "solve_membership", "linalg.solve_membership", None),
    ]
    saved = []
    try:
        for module, attr, name, attrs in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrapped(tracer, name, getattr(module, attr), attrs))
        if replay is not None:
            saved.append((rs.harness, "find_witness", rs.harness.find_witness))
            rs.harness.find_witness = replay.find_traced
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class DispatchReplay:
    """``find_witness`` on a connected graph, rebuilt from public calls.

    Every top-level replay is logged with its graph, so that the run can
    check afterwards that the real ``find_witness`` returns the same
    witness. Keep this in step with ``rowspace.witness.find_witness``: the
    check fails when they part.
    """

    def __init__(self, rs, tracer: Tracer) -> None:
        self.rs = rs
        self.tracer = tracer
        w = rs.witness
        self.constructive = tuple(
            zip(
                CONSTRUCTIVE,
                (
                    w.witness_complete,
                    w.witness_disjoint_nbhd,
                    w.witness_diam_ge4,
                    w.witness_dominating_regular,
                    w.witness_catalog_rank5,
                ),
            )
        )
        self.log: list = []

    def find_traced(self, g, oracle_limit=None, *, enabled=None):
        """Drop-in for ``find_witness`` with a "witness.find" span."""
        if enabled is not None:
            raise ValueError("the replay covers the full strategy set only")
        limit = self.rs.witness.DEFAULT_ORACLE_LIMIT if oracle_limit is None else oracle_limit
        w = self.tracer.call("witness.find", self._find, g, limit)
        self.tracer.note(strategy=None if w is None else w.strategy.value)
        self.log.append((g, limit, w))
        return w

    def _find(self, g, limit):
        tr, rs = self.tracer, self.rs
        if g.size == 0:
            raise ValueError("witness search requires a graph with at least one edge")
        if not g.is_connected():
            raise ValueError("the replay covers connected graphs only")
        for name, strategy in self.constructive:
            outcome = tr.call("witness." + name, strategy, g)
            tr.note(fired=outcome.witness is not None, reason=outcome.reason)
            if outcome.witness is not None:
                return self._checked(g, outcome.witness)
        lifted, reason = tr.call("witness.lifted", self._lifted, g, limit)
        tr.note(fired=lifted is not None, reason=reason)
        if lifted is not None:
            return self._checked(g, lifted)
        if g.n <= limit:
            result = tr.call("oracle.brute_force_witness", rs.oracle.brute_force_witness, g, limit=limit)
            tr.note(fired=result.found, candidates=result.candidates_checked)
            if result.found:
                return self._checked(g, result.witness)
        return None

    def _lifted(self, g, limit):
        """Twin contraction: contract, search the smaller graph, embed.
        Returns the witness or None, and the reason it declined."""
        tr, rs = self.tracer, self.rs
        if tr.call("graph.is_reduced", rs.graph.is_reduced, g):
            return None, "graph is reduced (no twin vertices)"
        classes: dict[int, list[int]] = {}
        for v in range(g.n):
            classes.setdefault(g.adj[v], []).append(v)
        groups = sorted(classes.values())
        contracted = tr.call("graph.induced_subgraph", rs.graph.induced_subgraph, g, [grp[0] for grp in groups])
        inner = tr.call("witness.find_contracted", self._find, contracted, limit)
        if inner is None:
            return None, "no witness on the twin-contracted graph"
        vector = [0] * g.n
        coeffs = [Fraction(0)] * g.n
        for k, grp in enumerate(groups):
            for v in grp:
                vector[v] = inner.vector[k]
            coeffs[grp[0]] = inner.certificate.coefficients[k]
        vector = tuple(vector)
        if sum(1 << v for v, x in enumerate(vector) if x) in g.adj:
            return None, "lifted vector occurs as a row"
        cert = rs.linalg.MembershipCertificate(tuple(coeffs), vector)
        return rs.witness.Witness(vector, cert, rs.witness.Strategy.LIFTED), None

    def _checked(self, g, w):
        if not self.tracer.call("witness.verify_witness", self.rs.witness.verify_witness, g, w):
            raise RuntimeError(f"strategy {w.strategy.value} produced an invalid witness")
        return w

    def mismatches(self) -> list[str]:
        """graph6 of every logged graph where find_witness disagrees with
        the replay. Call it with no interposition active."""
        find, write = self.rs.witness.find_witness, self.rs.graph6.write_graph6
        return [write(g) for g, limit, w in self.log if find(g, limit) != w]


# ------------------------------------------------------------ aggregation

#: Per-layer metric -> (unit, the end-to-end metric it should move, on
#: which workload). Printed into every traced result file.
PER_LAYER = {
    "graph.generate_us": ("us", "throughput_per_s on sweep-n6"),
    "graph.connected_ratio": ("ratio", "throughput_per_s on sweep-n6"),
    "graph.diameter_us": ("us", "throughput_per_s on verify-corpus"),
    "graph.twin_contract_us": ("us", "throughput_per_s on sweep-n6 and verify-corpus"),
    "graph6.parse_us": ("us", "latency_p50_ms on verify-corpus"),
    "graph6.parse_bytes_per_s": ("B/s", "latency_p50_ms on verify-corpus"),
    "graph6.write_us": ("us", "none yet: tracked so that a codec change shows"),
    "linalg.adjacency_us": ("us", "throughput_per_s on verify-corpus"),
    "linalg.echelon_us": ("us", "throughput_per_s on verify-corpus"),
    "linalg.rank_us": ("us", "throughput_per_s on verify-corpus"),
    "linalg.solve_us": ("us", "throughput_per_s on sweep-n6 and verify-corpus; flat on oracle-proof"),
    "linalg.solve_calls": ("count", "throughput_per_s on sweep-n6 and verify-corpus; flat on oracle-proof"),
}
for _s in CONSTRUCTIVE:
    PER_LAYER[f"witness.{_s}.attempt_us"] = ("us", "throughput_per_s on sweep-n6 and verify-corpus")
    PER_LAYER[f"witness.{_s}.attempts"] = ("count", "throughput_per_s on sweep-n6 and verify-corpus")
    PER_LAYER[f"witness.{_s}.fired_ratio"] = ("ratio", "throughput_per_s on sweep-n6 and verify-corpus")
for _s in STRATEGIES:
    for _q in ("p50", "p99"):
        PER_LAYER[f"witness.find_us.{_s}.{_q}"] = ("us", f"latency_{_q}_ms on verify-corpus")
PER_LAYER.update(
    {
        "witness.verify_us": ("us", "throughput_per_s on sweep-n6"),
        "oracle.first_us": ("us", "throughput_per_s on sweep-n6 and verify-corpus"),
        "oracle.candidates": ("count", "throughput_per_s on sweep-n6 and verify-corpus"),
        "oracle.ns_per_candidate": ("ns", "throughput_per_s on sweep-n6 and verify-corpus"),
        "oracle.enumerate_s": ("s", "latency_p50_ms on oracle-proof"),
        "oracle.enumerate_ns_per_vector": ("ns", "throughput_per_s on oracle-proof"),
        "harness.record_self_us": ("us", "throughput_per_s and latency on verify-corpus"),
        "harness.serialize_us": ("us", "throughput_per_s and latency on verify-corpus"),
        "cli.verify_s": ("s", "front-end overhead next to throughput_per_s on verify-corpus"),
        "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time of the same inputs, at one host speed"),
        "trace.unattributed_ratio": ("ratio", "none: per-item time no replayed span covers"),
    }
)

_LINALG_IN_ORACLE = ("linalg.integer_row_echelon", "linalg.adjacency_matrix", "linalg.solve_membership")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Spans:
    """Per-layer metrics from a finished trace.

    A metric is taken from the workload's own spans where it has any, and
    from the probe's otherwise; ``sources`` records which, with the sample
    count, and ``missing`` lists metrics neither stage reached.
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        # Time covered by each span's children, in total and by child name,
        # keyed by the parent span's id().
        self.child_ns: dict[int, int] = {}
        self.child_ns_by_name: dict[tuple[int, str], int] = {}
        for span in spans:
            if span[PARENT] >= 0:
                parent = id(spans[span[PARENT]])
                self.child_ns[parent] = self.child_ns.get(parent, 0) + span[END] - span[START]
                key = (parent, span[NAME])
                self.child_ns_by_name[key] = self.child_ns_by_name.get(key, 0) + span[END] - span[START]
        self.by_name: dict[tuple[str, str], list[list]] = {}
        for span in spans:
            self.by_name.setdefault((span[NAME], span[STAGE]), []).append(span)
        self.sources: dict[str, str] = {}
        self.missing: list[str] = []

    def pick(self, metric: str, name: str, keep=None) -> list[list]:
        for stage in (WORKLOAD, PROBE):
            found = [s for s in self.by_name.get((name, stage), []) if keep is None or keep(s)]
            if found:
                self.sources[metric] = f"{stage}:{len(found)}"
                return found
        self.missing.append(metric)
        return []

    def self_ns(self, span: list) -> int:
        return span[END] - span[START] - self.child_ns.get(id(span), 0)

    def metrics(self, untraced_ns: int, masks_scanned: int) -> dict[str, float]:
        out: dict[str, float] = {}

        def dur(span):
            return span[END] - span[START]

        def mean_us(metric, name):
            found = self.pick(metric, name)
            out[metric] = sum(map(dur, found)) / len(found) / 1e3 if found else 0.0
            return found

        generated = self.pick("graph.generate_us", "graph.iter_connected_graphs")
        yielded = sum(1 for s in generated if s[ATTRS] is None)
        out["graph.generate_us"] = sum(map(dur, generated)) / yielded / 1e3 if yielded else 0.0
        out["graph.connected_ratio"] = yielded / masks_scanned if generated else 0.0
        mean_us("graph.diameter_us", "graph.diameter")
        # Per twin-contraction attempt: the is_reduced test, plus the
        # induced subgraph when there are twins.
        reduced_checks = self.pick("graph.twin_contract_us", "graph.is_reduced")
        stage = reduced_checks[0][STAGE] if reduced_checks else WORKLOAD
        contract_ns = sum(map(dur, reduced_checks)) + sum(map(dur, self.by_name.get(("graph.induced_subgraph", stage), [])))
        out["graph.twin_contract_us"] = contract_ns / len(reduced_checks) / 1e3 if reduced_checks else 0.0
        parses = mean_us("graph6.parse_us", "graph6.parse_graph6")
        parse_ns = sum(map(dur, parses))
        out["graph6.parse_bytes_per_s"] = sum(s[ATTRS]["bytes"] for s in parses) / parse_ns * 1e9 if parse_ns else 0.0
        self.sources["graph6.parse_bytes_per_s"] = self.sources.get("graph6.parse_us", "")
        mean_us("graph6.write_us", "graph6.write_graph6")
        mean_us("linalg.adjacency_us", "linalg.adjacency_matrix")
        mean_us("linalg.echelon_us", "linalg.integer_row_echelon")
        mean_us("linalg.rank_us", "linalg.rank")
        out["linalg.solve_calls"] = len(mean_us("linalg.solve_us", "linalg.solve_membership"))
        self.sources["linalg.solve_calls"] = self.sources.get("linalg.solve_us", "")
        for s in CONSTRUCTIVE:
            attempts = mean_us(f"witness.{s}.attempt_us", f"witness.{s}")
            out[f"witness.{s}.attempts"] = len(attempts)
            fired = sum(1 for a in attempts if a[ATTRS]["fired"])
            out[f"witness.{s}.fired_ratio"] = fired / len(attempts) if attempts else 0.0
        for s in STRATEGIES:
            found = self.pick(f"witness.find_us.{s}", "witness.find", lambda span, s=s: span[ATTRS]["strategy"] == s)
            times = [dur(f) / 1e3 for f in found]
            out[f"witness.find_us.{s}.p50"] = statistics.median(times) if times else 0.0
            out[f"witness.find_us.{s}.p99"] = percentile(times, 0.99) if times else 0.0
        mean_us("witness.verify_us", "witness.verify_witness")
        oracle = mean_us("oracle.first_us", "oracle.brute_force_witness")
        candidates = sum(s[ATTRS]["candidates"] for s in oracle)
        out["oracle.candidates"] = candidates
        scan_ns = sum(
            dur(s) - sum(self.child_ns_by_name.get((id(s), n), 0) for n in _LINALG_IN_ORACLE)
            for s in oracle
        )
        out["oracle.ns_per_candidate"] = scan_ns / candidates if candidates else 0.0
        enumerations = self.pick("oracle.enumerate_s", "oracle.enumerate_all_witnesses")
        out["oracle.enumerate_s"] = statistics.median(dur(s) / 1e9 for s in enumerations) if enumerations else 0.0
        vectors = sum(s[ATTRS]["vectors"] for s in enumerations)
        out["oracle.enumerate_ns_per_vector"] = sum(map(dur, enumerations)) / vectors if vectors else 0.0
        records = self.pick("harness.record_self_us", "harness.record")
        out["harness.record_self_us"] = sum(map(self.self_ns, records)) / len(records) / 1e3 if records else 0.0
        mean_us("harness.serialize_us", "harness.serialize")
        cli = self.pick("cli.verify_s", "cli.main")
        out["cli.verify_s"] = dur(cli[0]) / 1e9 if cli else 0.0
        items = [s for s in self.spans if s[PARENT] == -1 and s[ITEM] >= 0 and s[STAGE] == WORKLOAD]
        item_ns = sum(map(dur, items))
        out["trace.overhead_ratio"] = item_ns / untraced_ns
        out["trace.unattributed_ratio"] = sum(map(self.self_ns, items)) / item_ns
        return out
