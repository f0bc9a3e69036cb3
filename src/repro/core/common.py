"""Shared plumbing for the core MPC join algorithms.

Conventions used by every algorithm in :mod:`repro.core`:

* Distributed relations may carry *payload columns* beyond their edge's
  attributes (annotation pseudo-columns from Section 6 executions).  Join
  logic keys on edge attributes; payload columns ride along.
* Join results are returned as a :class:`~repro.mpc.distrel.DistRelation`
  whose schema is the *canonical* ordering: sorted real attributes followed
  by sorted payload columns.  Emission is local (the model's zero-cost
  ``emit``); only subsequent shuffles of results cost load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Sequence

from repro.data.relation import Row, project_row
from repro.errors import MPCError
from repro.mpc.cluster import LoadReport
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.query.hypergraph import Hypergraph, JoinTree, join_tree

__all__ = [
    "JoinResult",
    "canonical_attrs",
    "align_to_schema",
    "local_hash_join",
    "local_tree_join",
    "merge_result_parts",
    "concat_distrels",
]


@dataclass
class JoinResult:
    """Outcome of one simulated MPC join execution.

    Attributes:
        relation: The emitted results, distributed as produced.
        report: The cluster's load ledger at completion.
        meta: Algorithm-specific facts (OUT, thresholds, rounds, ...).
    """

    relation: DistRelation
    report: LoadReport
    meta: dict[str, Any] = field(default_factory=dict)

    def rows(self) -> list[Row]:
        return self.relation.all_rows()

    def row_set(self) -> set[Row]:
        return set(self.relation.all_rows())

    @property
    def output_size(self) -> int:
        return self.relation.total_size()


def canonical_attrs(attr_sets: Sequence[Sequence[str]]) -> tuple[str, ...]:
    """Canonical result schema: sorted real attrs, then sorted payload cols."""
    all_attrs = set()
    for attrs in attr_sets:
        all_attrs.update(attrs)
    real = sorted(a for a in all_attrs if not a.startswith("#"))
    payload = sorted(a for a in all_attrs if a.startswith("#"))
    return tuple(real + payload)


def align_to_schema(rows: list[Row], attrs: Sequence[str], target: Sequence[str]) -> list[Row]:
    """Reorder row columns from ``attrs`` order to ``target`` order.

    Returns ``rows`` itself when the orders agree.  ``itemgetter`` with
    one index yields a bare value, so a one-column target is re-wrapped
    into 1-tuples by ``zip``.
    """
    if tuple(attrs) == tuple(target):
        return rows
    idx = [list(attrs).index(a) for a in target]
    if len(idx) > 1:
        return list(map(itemgetter(*idx), rows))
    if idx:
        return list(zip(map(itemgetter(idx[0]), rows)))
    return [()] * len(rows)


def local_hash_join(
    attrs1: Sequence[str],
    rows1: list[Row],
    attrs2: Sequence[str],
    rows2: list[Row],
) -> tuple[tuple[str, ...], list[Row]]:
    """In-memory natural join on shared attributes (free local computation)."""
    set1 = set(attrs1)
    shared = tuple(a for a in attrs1 if a in set(attrs2))
    extra2 = tuple(a for a in attrs2 if a not in set1)
    out_attrs = tuple(attrs1) + extra2
    pos1 = tuple(list(attrs1).index(a) for a in shared)
    pos2 = tuple(list(attrs2).index(a) for a in shared)
    pos2_extra = tuple(list(attrs2).index(a) for a in extra2)
    index: dict[Row, list[Row]] = {}
    for r in rows2:
        index.setdefault(project_row(r, pos2), []).append(project_row(r, pos2_extra))
    out: list[Row] = []
    for r in rows1:
        for extra in index.get(project_row(r, pos1), ()):
            out.append(r + extra)
    return out_attrs, out


def local_tree_join(
    query: Hypergraph,
    schemas: dict[str, tuple[str, ...]],
    rows: dict[str, list[Row]],
    tree: JoinTree | None = None,
) -> tuple[tuple[str, ...], list[Row]]:
    """Join one sub-instance entirely locally, folding along a join tree.

    Used when a whole (light) sub-instance has been shipped to one server:
    the join happens there for free.  Relations may carry payload columns.

    Returns:
        ``(attrs, rows)`` in canonical schema order.
    """
    tree = tree or join_tree(query)
    cur_attrs = dict(schemas)
    cur_rows = {n: list(r) for n, r in rows.items()}
    for node in tree.bottom_up():
        par = tree.parent[node]
        if par is None:
            continue
        a, r = local_hash_join(
            cur_attrs[par], cur_rows[par], cur_attrs[node], cur_rows[node]
        )
        cur_attrs[par], cur_rows[par] = a, r
    root = tree.root
    target = canonical_attrs(list(schemas.values()))
    return target, align_to_schema(cur_rows[root], cur_attrs[root], target)


def merge_result_parts(
    group_size: int,
    placements: Sequence[tuple[int, list[Row]]],
) -> list[list[Row]]:
    """Assemble per-server result parts from (local_server, rows) pieces."""
    parts: list[list[Row]] = [[] for _ in range(group_size)]
    for idx, rows in placements:
        if not 0 <= idx < group_size:
            raise MPCError(f"result placement {idx} out of range")
        parts[idx].extend(rows)
    return parts


def concat_distrels(
    name: str,
    group: Group,
    pieces: Sequence[DistRelation],
) -> DistRelation:
    """Concatenate result relations that share a schema and distribution."""
    if not pieces:
        raise MPCError("nothing to concatenate")
    schema = pieces[0].attrs
    parts: list[list[Row]] = [[] for _ in range(group.size)]
    for piece in pieces:
        if len(piece.parts) != group.size:
            raise MPCError("result piece has mismatched part count")
        rows_parts = piece.parts
        if piece.attrs != schema:
            rows_parts = [
                align_to_schema(p, piece.attrs, schema) for p in piece.parts
            ]
        for i, p in enumerate(rows_parts):
            parts[i].extend(p)
    return DistRelation(name, schema, parts, owned=True)
