"""Inputs, query decks and the RAM oracle for the engine benchmark.

Every base relation comes from :mod:`repro.data.generators` under a seed
derived from the benchmark's ``--seed``.  A deck entry is one prepared
plan: its atoms, head and aggregate are structured data, and both the
query texts sent to the engine and the oracle instance are built from
that structure, so the oracle never trusts the engine's parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.data.generators import add_dangling, line_trap_instance, random_instance
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.query import catalog
from repro.query.hypergraph import Hypergraph
from repro.ram.yannakakis import group_by_count, yannakakis

P = 8

#: Rows per generated base relation at scale 1.  ``cold`` uses 600, the
#: size at which a round takes about 2 s on a 2-CPU host; ``warm`` uses
#: smaller relations with join outputs of 1-3K rows; ``read-write``
#: halves them again, so that a 15 s run holds about 15 cycles of reads,
#: writes and re-executions rather than 7.
COLD_ROWS = 600
WARM_ROWS = 300
READ_WRITE_ROWS = 150

#: Data versions cycled by ``cold``: consecutive rounds always differ in
#: planning statistics, and each (query, version) answer is computed by
#: the oracle once per run.
COLD_VERSIONS = 3


@dataclass(frozen=True)
class Entry:
    """One plan of a deck.

    ``atoms`` are ``(relation, variables)`` pairs; ``head`` lists the head
    variables (``None`` = full join); ``agg`` is ``"count"`` or ``None``.
    ``orders`` lists atom permutations that become the entry's text
    variants: they share one plan-cache key because atom order is not
    part of it.
    """

    label: str
    qtype: str
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    head: tuple[str, ...] | None = None
    agg: str | None = None
    orders: tuple[tuple[int, ...], ...] = ()

    @property
    def kind(self) -> str:
        if self.agg is not None:
            return "aggregate"
        return "join" if self.head is None else "project"

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(rel for rel, _ in self.atoms)

    def text(self, order: tuple[int, ...] | None = None) -> str:
        atoms = self.atoms if order is None else [self.atoms[i] for i in order]
        body = ", ".join(f"{rel}({','.join(vs)})" for rel, vs in atoms)
        if self.agg is not None:
            head = f"{','.join(self.head or ())}; {self.agg}"
        elif self.head is None:
            head = ",".join(sorted({v for _, vs in self.atoms for v in vs}))
        else:
            head = ",".join(self.head)
        return f"Q({head}) :- {body}"

    def texts(self) -> list[str]:
        return [self.text()] + [self.text(o) for o in self.orders]


def _line3(a="A", b="B", c="C", d="D", rels=("R1", "R2", "R3")):
    return ((rels[0], (a, b)), (rels[1], (b, c)), (rels[2], (c, d)))


_FORK = (("F1", ("A", "B")), ("F2", ("B", "C")), ("F3", ("C", "D")), ("F4", ("C", "E")))
_BINARY = (("S1", ("A", "B")), ("S2", ("B", "C")))

#: The ``cold`` deck: one query per algorithm the paper gives,
#: spanning OUT/IN from about 0.1 (the aggregate) to about 100 (the fork).
COLD_DECK = (
    Entry("line3-trap", "line3", _line3()),
    Entry("binary", "binary", _BINARY),
    Entry("fork", "fork", _FORK),
    Entry("count-B-line3", "aggregate", _line3(), head=("B",), agg="count"),
)

#: The ``warm``/``read-write`` deck: 16 plans with small outputs.  Renamed
#: variables make distinct plans; atom orders are text variants of one
#: plan; deck order is popularity rank.
WARM_DECK = (
    Entry("line3", "join", _line3(), orders=((2, 0, 1),)),
    Entry("line3-xyzw", "join", _line3("X", "Y", "Z", "W"), orders=((1, 2, 0),)),
    Entry("binary", "join", _BINARY, orders=((1, 0),)),
    Entry("binary-uvw", "join", (("S1", ("U", "V")), ("S2", ("V", "W")))),
    Entry("r1r2", "join", _line3()[:2], orders=((1, 0),)),
    Entry("binary-AB", "project", _BINARY, head=("A", "B"), orders=((1, 0),)),
    Entry("line3-BC", "project", _line3(), head=("B", "C"), orders=((1, 2, 0),)),
    Entry("fork-CD", "project", _FORK, head=("C", "D"), orders=((3, 2, 1, 0),)),
    Entry("line3-count-B", "aggregate", _line3(), head=("B",), agg="count",
          orders=((2, 1, 0),)),
    Entry("line3-count-C", "aggregate", _line3(), head=("C",), agg="count"),
    Entry("line3-count", "aggregate", _line3(), head=(), agg="count"),
    Entry("binary-count-B", "aggregate", _BINARY, head=("B",), agg="count",
          orders=((1, 0),)),
    Entry("binary-count-AB", "aggregate", _BINARY, head=("A", "B"), agg="count"),
    Entry("fork-count-C", "aggregate", _FORK, head=("C",), agg="count",
          orders=((1, 0, 3, 2),)),
    Entry("fork-count", "aggregate", _FORK, head=(), agg="count"),
    Entry("fork-count-B", "aggregate", _FORK, head=("B",), agg="count"),
)


def _scaled(rows: int, scale: float) -> int:
    return max(16, int(rows * scale))


def _renamed(instance: Instance, prefix: str) -> dict[str, Relation]:
    """The instance's relations renamed ``R1..`` -> ``{prefix}1..``."""
    out = {}
    for name, rel in instance.relations.items():
        new = prefix + name[1:]
        out[new] = Relation(new, rel.attrs, rel.rows)
    return out


def cold_relations(seed: int, version: int, scale: float = 1.0) -> dict[str, Relation]:
    """One data version of the ``cold`` base relations.

    The line-3 trap (Figure 3, both directions) gets seeded dangling
    tuples, as many as set the version apart, so its statistics differ
    per version like those of the uniformly random binary and fork
    relations.  Its OUT is fixed: the trap's load over the Theorem 7
    bound moves with OUT, and it sets ``load_over_bound``.
    """
    n = _scaled(COLD_ROWS, scale)
    rng = random.Random(f"cold:{seed}:{version}")
    most = max(4, n // 3) ** 2  # line_trap_instance needs OUT <= (n/3)^2
    trap = line_trap_instance(3, n, min(5 * n // 2, most), doubled=True)
    # A dangling count per version: consecutive versions never share stats.
    step = max(1, n // 60)
    dangling = rng.randint(1, step) + version * step
    trap = add_dangling(trap, dangling, seed=rng.randrange(2**31))
    binary = random_instance(catalog.binary_join(), n, max(8, n // 40), seed=rng.randrange(2**31))
    fork = random_instance(catalog.fork_join(), n, max(8, n // 8), seed=rng.randrange(2**31))
    rels = dict(trap.relations)
    rels.update(_renamed(binary, "S"))
    rels.update(_renamed(fork, "F"))
    return rels


def cold_versions(seed: int, scale: float = 1.0) -> list[dict[str, Relation]]:
    """The ``COLD_VERSIONS`` data versions ``cold`` cycles through.

    Each query family (R: line-3 trap, S: binary, F: fork) gets relation
    sizes no other version has: rows are dropped from the family's first
    relation until they do.  Sizes are part of the planning statistics,
    so a round always finds its plans' statistics changed and prepares
    afresh; two independent random draws could otherwise agree on them.
    """
    versions = [cold_relations(seed, v, scale) for v in range(COLD_VERSIONS)]
    for family in sorted({name[0] for name in versions[0]}):
        names = sorted(n for n in versions[0] if n[0] == family)
        seen: set[tuple[int, ...]] = set()
        for rels in versions:
            first = rels[names[0]]
            rows = list(first.rows)
            while (len(rows),) + tuple(len(rels[n]) for n in names[1:]) in seen:
                rows.pop()
            seen.add((len(rows),) + tuple(len(rels[n]) for n in names[1:]))
            rels[names[0]] = Relation(first.name, first.attrs, rows)
    return versions


def warm_relations(seed: int, scale: float = 1.0, rows: int = WARM_ROWS) -> dict[str, Relation]:
    """The ``warm``/``read-write`` base relations (small join outputs)."""
    n = _scaled(rows, scale)
    rng = random.Random(f"warm:{seed}")
    line = random_instance(catalog.line3(), n, max(4, int(n / 2.6)), seed=rng.randrange(2**31))
    binary = random_instance(catalog.binary_join(), n, max(4, n // 8), seed=rng.randrange(2**31))
    fork = random_instance(catalog.fork_join(), n, max(4, n // 2), seed=rng.randrange(2**31))
    rels = dict(line.relations)
    rels.update(_renamed(binary, "S"))
    rels.update(_renamed(fork, "F"))
    return rels


def mutate(rel: Relation, share: float, rng: random.Random, keep_stats: bool) -> Relation:
    """A new version of ``rel`` with about ``share`` of its rows changed.

    ``keep_stats``: pairs of rows swap their first-column values, so every
    column keeps its multiset of values and the relation its size and
    degree profile, the statistics planning depends on; the engine can
    revalidate the plans that read it.  Otherwise rows are redrawn from
    the relation's own per-column domain and one row is added, so the size
    changes and those plans are prepared afresh.  Either way the new rows
    join like the old ones, and no row repeats.
    """
    rows = list(rel.rows)
    present = set(rows)
    domains = [sorted({r[i] for r in rows}) for i in range(len(rel.attrs))]

    def fresh() -> tuple | None:
        for _ in range(100):
            row = tuple(rng.choice(dom) for dom in domains)
            if row not in present:
                return row
        return None

    for _ in range(max(1, int(len(rows) * share))):
        i = rng.randrange(len(rows))
        if keep_stats:
            j = rng.randrange(len(rows))
            a = (rows[j][0],) + rows[i][1:]
            b = (rows[i][0],) + rows[j][1:]
            if a in present or b in present:
                continue
            present -= {rows[i], rows[j]}
            present |= {a, b}
            rows[i], rows[j] = a, b
        else:
            row = fresh()
            if row is not None:
                present.discard(rows[i])
                present.add(row)
                rows[i] = row
    if not keep_stats:
        row = fresh()
        if row is not None:
            rows.append(row)
    return Relation(rel.name, rel.attrs, rows)


def oracle_instance(entry: Entry, base: dict[str, Relation]) -> Instance:
    """The entry's instance, bound positionally exactly as the text binds."""
    query = Hypergraph({rel: vs for rel, vs in entry.atoms}, name=entry.label)
    return Instance(
        query, {rel: Relation(rel, vs, base[rel].rows) for rel, vs in entry.atoms}
    )


def answer_digest(entry: Entry, attrs, rows, anns=None, scalar=None) -> tuple:
    """Order-free digest of an answer: (rows, sum of row hashes mod 2**64).

    Each row is hashed in sorted attribute order, with its annotation if
    any, so engine replies and oracle answers in different column orders
    compare equal.  The digest keeps nothing of the rows: checking a
    245K-row reply adds no memory beyond one row at a time.  A reply with
    a duplicate row differs from the oracle's set even when the sets
    agree, because the row count is part of the digest.
    """
    if entry.agg is not None and not entry.head:
        return ("scalar", scalar)
    attrs = tuple(attrs)
    pos = [attrs.index(a) for a in sorted(attrs)]
    if pos == list(range(len(attrs))):
        keys = rows
    else:
        keys = (tuple(r[i] for i in pos) for r in rows)
    if anns is not None:
        keys = zip(keys, anns)
    total = 0
    for key in keys:
        total += hash(key)
    return (len(rows), total % 2**64)


def oracle_digest(entry: Entry, base: dict[str, Relation]) -> tuple[tuple, int, int]:
    """``(digest, IN, OUT)`` of the entry's answer by the RAM oracle."""
    inst = oracle_instance(entry, base)
    in_size = inst.input_size
    if entry.agg is not None:
        counts = group_by_count(inst, tuple(sorted(entry.head)))
        if not entry.head:
            return ("scalar", counts.get((), 0)), in_size, 1
        rows = list(counts)
        return answer_digest(entry, sorted(entry.head), rows, [counts[r] for r in rows]), in_size, len(rows)
    full = yannakakis(inst)
    if entry.head is None:
        return answer_digest(entry, full.attrs, full.rows), in_size, len(full)
    pos = full.positions(sorted(entry.head))
    rows = list({tuple(r[i] for i in pos) for r in full.rows})
    return answer_digest(entry, sorted(entry.head), rows), in_size, len(rows)
