#!/usr/bin/env python3
"""One benchmark for ``repro.engine.Engine``: three workloads, one command.

Run from the repository root::

    python3 enginebench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Workloads (a closed loop: one client, one process, p = 8 simulated servers):

* ``cold`` (serial backend): each round registers a fresh data version of
  every base relation, one write per query's relations, then runs the
  four-query deck once (line-3 trap, binary join, fork join with OUT
  about 100x IN, and a group-by count).  Every request prepares afresh
  and runs cold.
* ``warm`` (serial): 16 plans, Zipf-skewed, texts varying variable names
  and atom order; every timed request is a result-cache hit.  After the
  reads, a few passes of writes time ``Engine.register`` on the warm
  engine, one write per query's relations, each followed by an untimed
  re-warm.
* ``read-write`` (serial): the ``warm`` deck, on relations half the size,
  with every tenth operation a write that changes 2% of one base
  relation, alternately keeping and changing its planning statistics.
  Reads that touch it must re-execute; the others must stay hits.

A request's latency runs from ``execute()`` to the end of reading its
result (``rows()`` or the scalar); a write's is ``Engine.register``.
Every sample is divided by the host's slowdown measured around and
during it (``Host``), so reported times are at the host's reference
speed; percentiles are those of these samples, and the result file in
``.enginebench/`` also keeps the figures as timed.
Every answer is compared, outside the timed region, with the RAM oracle
for the data version it was asked against; a wrong or stale answer, an
exception, or a request that took another path than its workload
promises counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a
fixed number of rounds (``TRACE_ROUNDS``, whatever ``--seconds`` says)
untraced, then the same rounds with every layer's public calls
wrapped, checks that both runs give identical outputs and
LoadReports, prints a layer table per query type and the per-layer
metrics, and writes the spans to ``.enginebench/``.  The last line of
standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".enginebench"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Every tenth ``read-write`` operation is a write ...
WRITE_EVERY = 10
#: ... changing this share of one relation's rows.
WRITE_SHARE = 0.02
#: ``warm`` times its reads for this share of a run, then passes of
#: writes, one per family of base relations, for the rest ...
READ_SHARE = 0.5
#: ... and at least this many passes; a traced run makes exactly these.
TAIL_PASSES = 4


def _bootstrap() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"enginebench: no repro sources under {src}")
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


_bootstrap()

from repro.engine import Engine  # noqa: E402
from repro.mpc.backends.serial import SerialBackend  # noqa: E402
from repro.theory.bounds import theorem7_bound  # noqa: E402

from enginebench import layers  # noqa: E402
from enginebench.workloads import (  # noqa: E402
    COLD_DECK,
    COLD_VERSIONS,
    P,
    READ_WRITE_ROWS,
    WARM_DECK,
    WARM_ROWS,
    answer_digest,
    cold_versions,
    mutate,
    oracle_digest,
    warm_relations,
)

#: The workloads ``BENCHMARK.json`` lists.
WORKLOADS = ("cold", "warm", "read-write")
#: Rounds of each phase of a traced run: a fixed amount of work, so
#: per-layer totals and counts do not move with the engine's speed.
TRACE_ROUNDS = {"cold": COLD_VERSIONS, "warm": 40, "read-write": 8}

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("out_rows_per_s", "rows/s"),
    ("load_over_bound", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Resolved algorithm each ``cold`` query must keep (``None``: aggregate).
COLD_ALGORITHMS = {"line3-trap": "line3", "binary": "rhierarchical",
                   "fork": "acyclic", "count-B-line3": None}


def per_layer_names() -> list[tuple[str, str]]:
    names = [
        ("engine.parser.parse_s", "s"), ("engine.parser.calls", "count"),
        ("engine.session.execute_s", "s"), ("engine.session.register_s", "s"),
        ("engine.plan_cache.hit_ratio", "ratio"),
        ("engine.result_cache.hit_ratio", "ratio"),
        ("engine.prepare_s", "s"),
        ("data.stats.fingerprint_s", "s"),
        ("core.planner.price_s", "s"), ("core.planner.calls", "count"),
        ("mpc.distrel.distribute_s", "s"), ("mpc.distrel.calls", "count"),
        ("core.runner.algorithm_s", "s"),
    ]
    names += [(f"core.runner.{alg}_s", "s") for alg in layers.ALGORITHMS]
    for prim in layers.PRIMITIVES:
        names += [(f"mpc.primitives.{prim}_s", "s"),
                  (f"mpc.primitives.{prim}_calls", "count")]
    names += [
        ("core.binary_join.binary_join_s", "s"),
        ("core.common.align_to_schema_s", "s"),
        ("data.columns.from_rows_s", "s"), ("data.columns.pack_blob_s", "s"),
        ("data.columns.rows_s", "s"),
        ("plan.trace.finish_s", "s"),
        ("mpc.backends.round_s", "s"), ("mpc.backends.requests", "count"),
        ("mpc.backends.wire_bytes", "bytes"),
        ("mpc.cluster.load_total", "tuples"), ("mpc.cluster.steps", "count"),
        ("engine.recordings.bytes", "bytes"),
        ("unattributed_s", "s"), ("obs.trace_overhead_ratio", "ratio"),
    ]
    return names


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated sample quantile, ``q`` in hundredths."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# Operation streams
# ----------------------------------------------------------------------
def zipf_block(items: list, total: int) -> list:
    """``total`` draws holding item i about in proportion to 1/(i+1).

    Every item appears at least once; the rest is shared out by largest
    remainder, so the block is the same every time.
    """
    weights = [1.0 / (i + 1) for i in range(len(items))]
    spare = total - len(items)
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(x) for x in shares]
    by_remainder = sorted(range(len(items)), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [item for item, c in zip(items, counts) for _ in range(c)]


class Workload:
    """Inputs, set-up and operation stream of one workload.

    ``ops()`` yields ``("q", entry, text)`` and ``("w", changes,
    version)`` tuples, where a write registers every ``(name, relation)``
    of ``changes`` as one data version; the same seed yields the same
    stream.
    """

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        self.cold = name == "cold"
        self.deck = COLD_DECK if self.cold else WARM_DECK
        if self.cold:
            self.versions = cold_versions(seed, scale)
            self.base = self.versions[0]
        else:
            rows = READ_WRITE_ROWS if name == "read-write" else WARM_ROWS
            self.base = warm_relations(seed, scale, rows)
        self.texts = [(e, t) for e in self.deck for t in e.texts()]
        #: Base relations by family (R: line-3, S: binary, F: fork); every
        #: plan of a deck reads one family.
        self.families: dict[str, list[str]] = {}
        for rel in sorted({r for e in self.deck for r in e.relations}):
            self.families.setdefault(rel[0], []).append(rel)
        # ``read-write`` writes visit the relations in a fixed order, one
        # family after another, so that each write lands after several
        # windows of reads of its family and writes of one family cost
        # alike.  One cycle writes each relation once, with
        # WRITE_EVERY - 1 reads before every write.
        self.written = [r for group in itertools.zip_longest(*self.families.values())
                        for r in group if r is not None]
        self.cycle = zipf_block(self.texts, (WRITE_EVERY - 1) * len(self.written))
        random.Random("enginebench:reads").shuffle(self.cycle)
        #: Whole rounds (cold) or cycles a timed phase runs at least.
        self.min_rounds = COLD_VERSIONS if self.cold else 3

    def rows_per_relation(self) -> dict[str, int]:
        return {n: len(r) for n, r in sorted(self.base.items())}

    def setup_ops(self):
        yield ("w", _fresh(self.base), 0)
        for entry, text in (self.texts if not self.cold else
                            [(e, e.text()) for e in self.deck]):
            yield ("q", entry, text)

    def ops(self):
        """The timed stream, with a ``("round",)`` marker before each round.

        A ``cold`` round registers the next data version, one write per
        family of relations, and runs the deck.  A ``warm``/``read-write`` round is one cycle: the same
        Zipf-skewed multiset of reads in every cycle and for every seed,
        in an order that does not depend on the seed, except that the
        seed shuffles the reads within each window between two writes.
        So every seed re-executes the same plans after each write: only
        the data, and the order within a window, vary.
        """
        if self.cold:
            r = 0
            while True:
                r += 1
                v = r % COLD_VERSIONS
                yield ("round",)
                fresh = dict(_fresh(self.versions[v]))
                for names in self.families.values():
                    yield ("w", tuple((n, fresh[n]) for n in names), v)
                for entry in self.deck:
                    yield ("q", entry, entry.text())
        rng = random.Random(f"{self.name}:ops:{self.seed}")
        current = dict(self.base)
        step = WRITE_EVERY - 1
        i = 0
        while True:
            yield ("round",)
            for w, name in enumerate(self.written):
                window = self.cycle[w * step:(w + 1) * step]
                rng.shuffle(window)
                for entry, text in window:
                    yield ("q", entry, text)
                if self.name == "read-write":
                    i += 1
                    # Every other relation in write order keeps its
                    # planning statistics, so revalidation and recompiling
                    # each take a fixed share of the re-executions.
                    current[name] = mutate(current[name], WRITE_SHARE, rng,
                                           keep_stats=w % 2 == 1)
                    yield ("w", ((name, current[name]),), i)

    def write_tail(self):
        """``warm``: passes of writes to a warm engine, a ``("round",)`` before each.

        A pass writes each family of base relations once, as one write
        that registers a new version of all its relations with 2% of their
        rows redrawn; it drops the recordings of every plan that reads the
        family.  The untimed ``re-warm`` requests after each write prepare
        and execute those plans again, so every write lands on a full
        cache.
        """
        rng = random.Random(f"{self.name}:tail:{self.seed}")
        current = dict(self.base)
        for k in itertools.count():
            yield ("round",)
            for family, names in self.families.items():
                for name in names:
                    current[name] = mutate(current[name], WRITE_SHARE, rng,
                                           keep_stats=False)
                yield ("w", tuple((n, current[n]) for n in names), f"tail{k}")
                for entry in self.deck:
                    if entry.relations[0][0] == family:
                        yield ("re-warm", entry, entry.text())


def _fresh(relations: dict) -> tuple:
    """New Relation objects, so no columnar cache carries over."""
    return tuple((name, type(rel)(name, rel.attrs, rel.rows))
                 for name, rel in relations.items())


# ----------------------------------------------------------------------
# Running and checking
# ----------------------------------------------------------------------
class Session:
    """One engine under test plus every check made on its replies."""

    def __init__(self, wl: Workload, checks: "Checks", log=None) -> None:
        self.wl = wl
        self.checks = checks
        self.log = log
        self.current: dict[str, object] = {}
        self.last_exec: dict[str, tuple] = {}
        self.prepare_s = 0.0
        ops = list(wl.setup_ops())
        t0 = time.perf_counter()
        self.engine = Engine(P, "serial")
        for op in ops:
            self.apply(op, expect="any")
        #: ``(start, end)`` of the set-up, data generation excluded.
        self.setup_span = (t0, time.perf_counter())
        #: ``PreparedQuery.prepare_seconds`` summed over timed requests.
        self.prepare_s = 0.0

    def _request(self, label: str, label_of):
        """The timed region of one operation: a request span when traced."""
        if self.log is None or label_of is None:
            return contextlib.nullcontext()
        self.log.request += 1
        label_of[self.log.request] = label
        return self.log.span(layers.REQUEST)

    def apply(self, op, expect: str | None = None, label_of=None, label=None):
        """Run one operation; returns ``(kind, span, out_rows, parity)``.

        ``kind`` is ``("w", relations)`` for a write and ``("q", plan,
        path)`` for a request, where ``path`` is ``hit`` (a result-cache
        hit), ``prepare+run`` (the plan was prepared afresh) or ``run``;
        ``span`` is the ``(start, end)`` of the timed region, ``None`` if
        the operation raised.  When traced, the operation's spans go to
        the layer table of ``label`` (default: the query type, or
        ``write``).
        """
        if op[0] == "w":
            _, changes, version = op
            with self._request(label or "write", label_of):
                t0 = time.perf_counter()
                for name, rel in changes:
                    self.engine.register(rel, name=name)
                span = (t0, time.perf_counter())
            for name, rel in changes:
                self.current[name] = (version, rel)
                self.checks.keep(name, version, rel)
            return ("w", ",".join(name for name, _ in changes)), span, 0, None
        _, entry, text = op
        prepares = self.engine.stats().prepares
        versions = tuple(self.current[r][0] for r in entry.relations)
        total = entry.agg is not None and not entry.head
        anns = scalar = None
        rows: list = []
        try:
            with self._request(label or entry.qtype, label_of):
                t0 = time.perf_counter()
                res = self.engine.execute(text)
                if total:
                    scalar = res.scalar
                else:
                    with (self.log.span("data.columns.rows") if self.log
                          else contextlib.nullcontext()):
                        rows = res.rows()
                    if entry.agg is not None:
                        anns = res.relation.annotations
                span = (t0, time.perf_counter())
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.checks.fail(f"{entry.label}: {type(exc).__name__}: {exc}")
            return ("q", entry.label, "failed"), None, 0, None
        m = res.metrics
        prepared_now = self.engine.stats().prepares - prepares
        if expect == "cold":
            want = COLD_ALGORITHMS.get(entry.label)
            path_ok = (not m.result_cached and prepared_now == 1
                       and (want is None or m.algorithm == want))
        elif expect == "hit":
            path_ok = m.result_cached
        elif expect == "tracked":
            path_ok = m.result_cached == (self.last_exec.get(entry.label) == versions)
        else:
            path_ok = True
        self.last_exec[entry.label] = versions
        if prepared_now:
            self.prepare_s += res.prepared.prepare_seconds
        attrs = res.relation.attrs if res.relation is not None else ()
        ordered = hash((tuple(rows), anns, scalar))
        self.checks.reply(entry, versions, ordered, attrs, rows, anns, scalar,
                          res.report, path_ok)
        path = "hit" if m.result_cached else "prepare+run" if prepared_now else "run"
        kind = ("q", entry.label, path)
        return kind, span, 1 if total else len(rows), (ordered, res.report)


class Checks:
    """Correctness gate: every reply against the RAM oracle.

    Operations are numbered as they are attempted; ``failed`` holds the
    numbers of those that raised, took another path than promised, or
    answered differently from the oracle, and ``failures`` says why.
    """

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.data: dict[tuple, object] = {}
        # (label, versions) -> {ordered hash: [digest, operation numbers]}
        self.replies: dict[tuple, dict[int, list]] = {}
        self.loads: dict[tuple, tuple] = {}
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.attempted = 0

    def keep(self, name: str, version, rel) -> None:
        self.data.setdefault((name, version), rel)

    def fail(self, why: str, op: int | None = None) -> None:
        if op is None:
            self.attempted += 1
            op = self.attempted
        self.failed.add(op)
        self.failures.append(why)

    def reply(self, entry, versions, ordered, attrs, rows, anns, scalar,
              report, path_ok) -> None:
        self.attempted += 1
        op = self.attempted
        if not path_ok:
            self.fail(f"{entry.label}: took another path than promised", op)
        key = (entry.label, versions)
        seen = self.replies.setdefault(key, {})
        if ordered not in seen:
            seen[ordered] = [answer_digest(entry, attrs, rows, anns, scalar), []]
        seen[ordered][1].append(op)
        self.loads.setdefault(key, (report.load, report.steps))

    def verify(self) -> dict:
        """Oracle pass; returns inputs and load ratios per (query, version)."""
        entries = {e.label: e for e in self.wl.deck}
        inputs = {}
        worst = 0.0
        for (label, versions), seen in sorted(self.replies.items(), key=str):
            entry = entries[label]
            base = {r: self.data[(r, v)] for r, v in zip(entry.relations, versions)}
            digest, in_size, out_size = oracle_digest(entry, base)
            for got, ops in seen.values():
                if got != digest:
                    self.fail(f"{label} @ {versions}: answer differs from the oracle "
                              f"({len(ops)} replies)", ops[0])
                    self.failed.update(ops)
            load, steps = self.loads[(label, versions)]
            ratio = None
            if entry.kind == "join":
                ratio = load / theorem7_bound(in_size, out_size, P)
                worst = max(worst, ratio)
            inputs[f"{label}@{','.join(map(str, versions))}"] = {
                "IN": in_size, "OUT": out_size, "load": load, "steps": steps,
                "load_over_bound": ratio,
            }
        return {"per_query": inputs, "load_over_bound": worst}


class Host:
    """Keeps a run on its host's faster CPU and measures the host's speed.

    On a shared host other tenants slow this process 1.5-2x (CPU time as
    much as wall time): in spells that switch many times a second, often
    one CPU at a time, and in phases of minutes in which even the fastest
    spells are slower (on a 2-vCPU host a fixed Python loop took 0.072 s
    in one phase and 0.098-0.116 s in the next, and every latency of
    ``cold`` moved with it).

    ``move``, every ``EVERY`` seconds between operations, times a fixed
    loop on each allowed CPU and pins the process to the fastest.
    ``call`` runs one operation while it probes the host's speed: a short
    fixed loop right before and right after the operation, and from a
    ``SIGALRM`` handler every ``ALARM_S`` seconds during it.  Each
    sample's ``slowdown`` is the mean of its probes over ``REFERENCE_S``;
    ``at_reference`` turns its wall time, less the handler's time, into
    the time at the reference speed.  So a spell or phase in which the
    host runs everything slower does not move the figures, while a slower
    program does, in every sample it slows.
    """

    #: Seconds between two calls of ``move``.
    EVERY = 0.25
    #: Seconds between two probes during an operation.
    ALARM_S = 0.003
    #: The probe loop's median time on the host this was written on (2
    #: vCPUs at 2.0 GHz), so reported times read close to its wall times.
    REFERENCE_S = 20e-6

    def __init__(self) -> None:
        self.allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        self.cpus = sorted(self.allowed) if len(self.allowed) > 1 else []
        self.last = 0.0
        self.alarms: list[tuple[float, float]] = []
        self.handler = signal.signal(signal.SIGALRM, self._alarm)

    def close(self) -> None:
        """Put the signal handler and the CPU affinity back."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        if self.cpus:
            os.sched_setaffinity(0, self.allowed)

    @staticmethod
    def probe() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(400):
            acc += i % 7
        return time.perf_counter() - t0

    def _alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probe()
        self.alarms.append((t0, time.perf_counter()))

    def move(self) -> None:
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            dt = min(self.probe() for _ in range(25))
            if best is None or dt < best[0]:
                best = (dt, cpu)
        if best is not None:
            os.sched_setaffinity(0, {best[1]})
        self.last = time.perf_counter()

    def tick(self) -> None:
        """``move`` if the last one is ``EVERY`` seconds old."""
        if time.perf_counter() - self.last >= self.EVERY:
            self.move()

    def call(self, fn, *args):
        """``fn(*args)`` while probing; returns ``(result, slowdown, alarms)``."""
        before = self.probe()
        self.alarms = []
        signal.setitimer(signal.ITIMER_REAL, self.ALARM_S, self.ALARM_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        probes = [before] + [b - a for a, b in self.alarms] + [self.probe()]
        return out, statistics.fmean(probes) / self.REFERENCE_S, self.alarms

    @staticmethod
    def at_reference(span: tuple[float, float], slowdown: float, alarms) -> float:
        """The seconds of ``span``, less the probes in it, at reference speed."""
        t0, t1 = span
        stolen = sum(b - a for a, b in alarms if t0 <= a and b <= t1)
        return (t1 - t0 - stolen) / slowdown


def run_phase(session: Session, wl: Workload, host: Host | None,
              seconds: float | None = None, rounds: int | None = None,
              label_of=None, keep_parity: bool = False) -> dict:
    """The closed loop, for ``seconds`` or for ``rounds`` whole rounds.

    With a ``host`` every operation runs under ``Host.call``, and
    ``samples`` maps each operation kind to its latencies at the host's
    reference speed; ``as_timed`` keeps them as timed.  Without one (the
    traced run) both hold the times as timed.  The first ``warm`` or
    ``read-write`` cycle is a warm-up and is not sampled: it starts from
    the set-up's cache rather than from the end of a cycle, so only later
    cycles all run the same mix of hits, revalidations and recompiles.
    ``warm`` spends ``READ_SHARE`` of ``seconds`` on reads and the rest on
    ``Workload.write_tail``, whose writes go to ``tail`` and
    ``tail_as_timed``.  ``keep_parity`` keeps every reply's hash and
    LoadReport for the traced run's parity check; timed runs keep none,
    so that the benchmark's own bookkeeping does not grow the heap the
    collector scans.
    """
    expect = "cold" if wl.cold else "hit" if wl.name == "warm" else "tracked"
    parity = []
    out_rows = 0

    def measure(op, expect, label):
        if host is None:
            kind, span, out, par = session.apply(op, expect, label_of, label)
            dt = None if span is None else span[1] - span[0]
            return kind, dt, dt, out, par
        host.tick()
        (kind, span, out, par), slowdown, alarms = host.call(
            session.apply, op, expect, label_of, label)
        if span is None:
            return kind, None, None, out, par
        return kind, host.at_reference(span, slowdown, alarms), span[1] - span[0], out, par

    def loop(stream, seconds, rounds, min_rounds, samples, as_timed, warm_up):
        nonlocal out_rows
        done = 0
        start = time.perf_counter()
        for op in stream:
            if op[0] == "round":
                if rounds is not None and done >= rounds:
                    break
                if (seconds is not None and done >= min_rounds
                        and time.perf_counter() - start >= seconds):
                    break
                done += 1
                continue
            rewarm = op[0] == "re-warm"
            kind, dt, raw, out, par = measure(
                op, "any" if rewarm else expect, "re-warm" if rewarm else None)
            if keep_parity:
                parity.append(par)
            if dt is None or rewarm or (warm_up and done == 1):
                continue
            out_rows += out
            samples.setdefault(kind, []).append(dt)
            as_timed.setdefault(kind, []).append(raw)
        return done

    gc.collect()  # set-up garbage is not the timed loop's to collect
    phase = {"samples": {}, "as_timed": {}, "tail": {}, "tail_as_timed": {}}
    reads = seconds if seconds is None or wl.name != "warm" else seconds * READ_SHARE
    phase["rounds"] = loop(wl.ops(), reads, rounds, wl.min_rounds,
                           phase["samples"], phase["as_timed"], not wl.cold)
    if wl.name == "warm":
        loop(wl.write_tail(), None if seconds is None else seconds - reads,
             None if rounds is None else TAIL_PASSES, TAIL_PASSES,
             phase["tail"], phase["tail_as_timed"], False)
    phase.update(out_rows=out_rows, parity=parity,
                 ops=sum(len(v) for v in phase["samples"].values()),
                 busy=sum(sum(v) for v in phase["as_timed"].values()))
    return phase


def calibration() -> dict:
    """A fixed pure-Python loop and a fixed numpy loop, best of three."""
    import numpy as np

    def py_loop():
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        return acc

    arr = np.random.default_rng(0).integers(0, 1 << 30, 200_000)

    def np_loop():
        for _ in range(5):
            np.sort(arr, kind="stable")

    out = {}
    for name, fn in (("python_loop_s", py_loop), ("numpy_sort_s", np_loop)):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def end_to_end(samples: dict, tail: dict, out_rows: int, setups: list[float],
               verified: dict, peak_kb: int) -> dict:
    """The end-to-end metrics of an untraced run from its samples.

    Query and write percentiles are those of the run's samples, all
    kinds pooled; ``ops_per_s`` and ``out_rows_per_s`` divide the timed
    loop's operations and output rows by the sum of their latencies.
    """
    q = [t * 1e3 for k, v in samples.items() if k[0] == "q" for t in v]
    w = [t * 1e3 for k, v in list(samples.items()) + list(tail.items())
         if k[0] == "w" for t in v]
    busy = sum(sum(v) for v in samples.values())
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(len(v) for v in samples.values()) / busy,
        "query_p50_ms": quantile(q, 50),
        "query_p90_ms": quantile(q, 90),
        "query_p99_ms": quantile(q, 99),
        "write_p50_ms": quantile(w, 50),
        "write_p90_ms": quantile(w, 90),
        "out_rows_per_s": out_rows / busy,
        "load_over_bound": verified["load_over_bound"],
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(log, labels, session: Session, delta: dict,
              traced_rate: float, untraced_rate: float, verified: dict) -> dict:
    """Per-layer metrics of the traced phase.

    ``*_s`` are self times, which add up with ``unattributed_s`` to the
    traced wall time; ``core.runner.algorithm_s`` alone is inclusive (all
    time inside the algorithm calls).  ``engine.recordings.bytes`` sums
    the ``pack_blob`` sizes ``Engine.execute`` priced, set-up included;
    load totals sum over the distinct (query, data version) answers.
    """
    selfs = log.self_times()
    sums: dict[str, list] = {}
    recording_bytes = 0
    algorithm_incl = 0.0
    for span, self_s in zip(log.spans, selfs):
        name, start, end, parent, request, size = span
        if name == "data.columns.pack_blob" and parent >= 0 and \
                log.spans[parent][0] == "engine.session.execute":
            recording_bytes += size
        if request not in labels:
            continue
        row = sums.setdefault(name, [0.0, 0])
        row[0] += self_s
        row[1] += 1
        if name.startswith("core.runner.") and not (
                parent >= 0 and log.spans[parent][0].startswith("core.runner.")):
            algorithm_incl += end - start

    def s(name):
        return sums.get(name, [0.0, 0])[0]

    def calls(name):
        return sums.get(name, [0.0, 0])[1]

    queries = delta["queries"]
    plan_total = delta["cache_hits"] + delta["cache_misses"]
    per_query = verified["per_query"]
    out = {
        "engine.parser.parse_s": s("engine.parser.parse"),
        "engine.parser.calls": calls("engine.parser.parse"),
        "engine.session.execute_s": s("engine.session.execute"),
        "engine.session.register_s": s("engine.session.register"),
        "engine.plan_cache.hit_ratio":
            delta["cache_hits"] / plan_total if plan_total else 0.0,
        "engine.result_cache.hit_ratio":
            delta["result_hits"] / queries if queries else 0.0,
        "engine.prepare_s": session.prepare_s,
        "data.stats.fingerprint_s": s("data.stats.fingerprint"),
        "core.planner.price_s": s("core.planner.price"),
        "core.planner.calls": calls("core.planner.price"),
        "mpc.distrel.distribute_s": s("mpc.distrel.distribute"),
        "mpc.distrel.calls": calls("mpc.distrel.distribute"),
        "core.runner.algorithm_s": algorithm_incl,
    }
    for alg in layers.ALGORITHMS:
        out[f"core.runner.{alg}_s"] = s(f"core.runner.{alg}")
    for prim in layers.PRIMITIVES:
        out[f"mpc.primitives.{prim}_s"] = s(f"mpc.primitives.{prim}")
        out[f"mpc.primitives.{prim}_calls"] = calls(f"mpc.primitives.{prim}")
    out.update({
        "core.binary_join.binary_join_s": s("core.binary_join.binary_join"),
        "core.common.align_to_schema_s": s("core.common.align_to_schema"),
        "data.columns.from_rows_s": s("data.columns.from_rows"),
        "data.columns.pack_blob_s": s("data.columns.pack_blob"),
        "data.columns.rows_s": s("data.columns.rows"),
        "plan.trace.finish_s": s("plan.trace.finish"),
        "mpc.backends.round_s": s("mpc.backends.round"),
        "mpc.backends.requests": delta["total_backend_requests"],
        "mpc.backends.wire_bytes": delta["total_wire_bytes"],
        "mpc.cluster.load_total": sum(v["load"] for v in per_query.values()),
        "mpc.cluster.steps": sum(v["steps"] for v in per_query.values()),
        "engine.recordings.bytes": recording_bytes,
        "unattributed_s": s(layers.REQUEST),
        "obs.trace_overhead_ratio": traced_rate / untraced_rate,
    })
    return out


def _parity(phase: dict) -> list:
    """Per operation: the reply's ordered hash and its LoadReport."""
    return [None if p is None else (p[0], p[1].as_dict()) for p in phase["parity"]]


#: ``EngineStats`` counters read before and after the traced phase.
_COUNTERS = ("queries", "cache_hits", "cache_misses", "result_hits",
             "total_backend_requests", "total_wire_bytes")


def _counters(engine) -> dict:
    stats = engine.stats()
    return {name: getattr(stats, name) for name in _COUNTERS}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, out_dir: str | None = None) -> dict:
    """Run one workload; returns the result record (``result`` = last line).

    ``scale`` multiplies the rows per relation (the tests run tiny
    inputs); a traced run writes its spans under ``out_dir`` if given.
    """
    wl = Workload(workload, seed, scale)
    checks = Checks(wl)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "p": P,
                    "rows_per_relation": wl.rows_per_relation(),
                    "calibration": calibration()}
    if not trace:
        host = Host()
        try:
            host.move()
            setups = []
            for _ in range(SETUPS):
                session = None  # the previous engine goes before the next set-up
                gc.collect()
                host.move()
                session, slowdown, alarms = host.call(Session, wl, checks)
                setups.append((host.at_reference(session.setup_span, slowdown, alarms),
                               session.setup_span[1] - session.setup_span[0]))
            phase = run_phase(session, wl, host, seconds=seconds)
        finally:
            host.close()
        # Read before the oracle pass, whose own peak is not the engine's.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verified = checks.verify()
        metrics = end_to_end(phase["samples"], phase["tail"], phase["out_rows"],
                             [s[0] for s in setups], verified, peak_kb)
        units = dict(END_TO_END)
        record["as_timed"] = end_to_end(phase["as_timed"], phase["tail_as_timed"],
                                        phase["out_rows"],
                                        [s[1] for s in setups], verified, peak_kb)
        record["rounds"] = phase["rounds"]
        record["kinds"] = {
            "/".join(k): {"median_ms": statistics.median(v) * 1e3,
                          "median_as_timed_ms": statistics.median(phase["as_timed"][k]) * 1e3,
                          "samples": len(v)}
            for k, v in sorted(phase["samples"].items())
        }
    else:
        session = Session(wl, checks)
        untraced = run_phase(session, wl, None, rounds=TRACE_ROUNDS[workload], keep_parity=True)
        gc.collect()
        log = layers.SpanLog()
        uninstall = layers.install(log, SerialBackend)
        try:
            session = Session(wl, checks, log)
            before = _counters(session.engine)
            labels: dict[int, str] = {}
            traced = run_phase(session, wl, None, rounds=TRACE_ROUNDS[workload],
                               label_of=labels, keep_parity=True)
            after = _counters(session.engine)
        finally:
            uninstall()
        for i, (a, b) in enumerate(zip(_parity(untraced), _parity(traced))):
            if a != b:
                checks.fail(f"traced operation {i} differs from the untraced run "
                            f"in its output or LoadReport")
        verified = checks.verify()
        metrics = per_layer(
            log, labels, session, {k: after[k] - before[k] for k in after},
            traced["ops"] / traced["busy"], untraced["ops"] / untraced["busy"],
            verified,
        )
        units = dict(per_layer_names())
        tables = layers.layer_table(log, labels)
        record["layer_tables"] = {
            k: {"total_s": v["total_s"], "ops": v["ops"], "rows": dict(v["rows"])}
            for k, v in tables.items()
        }
        if out_dir is not None:
            log.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
        print(layers.format_tables(tables))
    record["inputs"] = verified["per_query"]
    record["failures"] = checks.failures[:20]
    record["result"] = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=OUT_DIR)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"inputs: seed={args.seed} rows per relation={record['rows_per_relation']}")
    for key, v in record["inputs"].items():
        print(f"  {key}: IN={v['IN']} OUT={v['OUT']} load={v['load']}")
    print("calibration: " + ", ".join(f"{k}={v:.4f}" for k, v in record["calibration"].items()))
    for why in record["failures"]:
        print(f"FAILED: {why}")
    result = record["result"]
    print(f"error_rate={result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the helper process that importing ``repro`` starts.

    The shared-memory probe run when ``repro.mpc.backends`` is imported
    starts :mod:`multiprocessing`'s resource tracker; stop it and wait
    for it, so the benchmark leaves no process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
