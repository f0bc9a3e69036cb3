"""Outside-in layer tracing for the engine benchmark.

A :class:`SpanLog` keeps one span per wrapped call in memory: name,
start, end, parent span and request id.  :func:`install` wraps the public
functions of each layer wherever a ``repro`` module imported them (and
the named methods on their classes), and returns the function that puts
the originals back.  Nothing inside ``src/`` knows it is being traced.

A layer's self time is its spans' durations minus the part their child
spans cover.  Within one thread spans nest, so self times of every span
under a request, plus the request span's own self time (the benchmark
loop between calls, reported as ``unattributed``), add up to the
request's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

REQUEST = "request"

#: Primitives of the paper's Section 2, timed under ``mpc.primitives``.
PRIMITIVES = (
    "sample_sort", "multi_search", "search_rows", "semi_join",
    "attach_degrees", "sum_by_key", "fold_by_key", "count_by_key",
    "number_rows",
)

#: Algorithms timed under ``core.runner``; ``aggregate`` is
#: ``run_aggregate_algorithm``, the others ``run_join_algorithm``.
ALGORITHMS = ("line3", "rhierarchical", "acyclic", "aggregate")


class SpanLog:
    """In-memory spans: ``[name, start, end, parent, request, size]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append(
            [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
        )
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, sized: bool = False):
        """``fn`` timed as a span; ``name`` may be ``f(args, kwargs)``."""
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = log.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
                if sized:
                    log.spans[idx][5] = len(out)
                return out
            finally:
                log.close(idx)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request, size in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": request, "bytes": size}
                ) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _size in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]


def _algorithm_name(args, kwargs) -> str:
    algorithm = args[3] if len(args) > 3 else kwargs["algorithm"]
    return f"core.runner.{algorithm}"


def install(log: SpanLog, backend_cls: type) -> "callable":
    """Wrap every layer's public calls; returns the undo function."""
    # Modules by name: some packages re-export a function under its
    # module's name (``repro.core.binary_join``), shadowing the module.
    (binary_join, common, planner, runner, columns, stats, parser, session,
     distrel, primitives, trace) = (
        importlib.import_module(f"repro.{name}") for name in (
            "core.binary_join", "core.common", "core.planner", "core.runner",
            "data.columns", "data.stats", "engine.parser", "engine.session",
            "mpc.distrel", "mpc.primitives", "plan.trace",
        )
    )

    functions = [
        (parser.parse_query, "engine.parser.parse", False),
        (stats.stats_fingerprint, "data.stats.fingerprint", False),
        (planner.price_fold_orders, "core.planner.price", False),
        (distrel.distribute_relation, "mpc.distrel.distribute", False),
        (runner.run_join_algorithm, _algorithm_name, False),
        (runner.run_aggregate_algorithm, "core.runner.aggregate", False),
        (binary_join.binary_join, "core.binary_join.binary_join", False),
        (common.align_to_schema, "core.common.align_to_schema", False),
        (columns.pack_blob, "data.columns.pack_blob", True),
    ] + [
        (getattr(primitives, prim), f"mpc.primitives.{prim}", False)
        for prim in PRIMITIVES
    ]
    methods = [
        (session.Engine, "execute", "engine.session.execute"),
        (session.Engine, "register", "engine.session.register"),
        (trace.TraceRecorder, "finish", "plan.trace.finish"),
        (columns.ColumnBlock, "from_rows", "data.columns.from_rows"),
    ] + [
        (cls, attr, "mpc.backends.round")
        for cls in backend_cls.__mro__
        for attr in ("map_parts", "run_ops")
        if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False)
    ]

    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "repro" or n.startswith("repro.")]
    for fn, name, sized in functions:
        traced = log.wrap(fn, name, sized)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, traced)
    for cls, attr, name in methods:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            traced = classmethod(log.wrap(original.__func__, name))
        else:
            traced = log.wrap(original, name)
        undo.append((cls, attr, original))
        setattr(cls, attr, traced)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def layer_table(log: SpanLog, labels: dict[int, str]) -> dict[str, dict]:
    """Per query type: ``{"total_s", "ops", "rows": {layer: [self_s, calls]}}``.

    ``labels`` maps request ids to query types; spans of other requests
    (set-up) are left out.  Rows include ``unattributed``, and they add
    up to ``total_s``.
    """
    tables: dict[str, dict] = {}
    for span, self_s in zip(log.spans, log.self_times()):
        name, start, end, parent, request, _size = span
        label = labels.get(request)
        if label is None:
            continue
        table = tables.setdefault(
            label, {"total_s": 0.0, "ops": 0, "rows": defaultdict(lambda: [0.0, 0])}
        )
        if name == REQUEST:
            table["total_s"] += end - start
            table["ops"] += 1
            name = "unattributed"
        row = table["rows"][name]
        row[0] += self_s
        row[1] += 1
    return tables


def format_tables(tables: dict[str, dict]) -> str:
    lines = []
    for label, table in sorted(tables.items()):
        total = table["total_s"]
        lines.append(f"layer table [{label}]: {table['ops']} ops, "
                     f"traced wall {total:.4f} s")
        rows = sorted(table["rows"].items(), key=lambda kv: -kv[1][0])
        for name, (self_s, calls) in rows:
            share = self_s / total if total else 0.0
            lines.append(f"  {name:40s} {self_s:10.4f} s {share:7.1%} {calls:8d} calls")
        summed = sum(r[0] for r in table["rows"].values())
        lines.append(f"  {'sum of rows':40s} {summed:10.4f} s")
    return "\n".join(lines)
