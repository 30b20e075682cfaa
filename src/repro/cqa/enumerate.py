"""Bounded repair enumeration: the certain-answer fallback.

Queries outside the rewritable class of :mod:`repro.cqa.rewrite` (boolean
queries, self-joins, cyclic key joins, non-key/non-key joins) are answered
by materialising candidate repairs and intersecting the query answers.
Under primary keys a repair keeps exactly one distinct tuple per block of
key-equal tuples, so the repair space is the cross product of per-block
choices. :meth:`RepairSpace.repairs` walks that product and yields each
candidate repair as a copy of the dirty base tables without the rows the
repair drops.

Two exact-preserving reductions keep the space small before any budget
kicks in: blocks with a single distinct tuple are fixed, and blocks where
no tuple matches any query atom's constant bindings are forced to their
first choice (their tuples can never join into an answer). Past
``max_repairs`` the enumeration switches to seeded sampling, which
over-approximates the certain answers (``exact=False``) — unless the
intersection empties, which is exact regardless of coverage, since it can
only shrink.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.cqa.query import ConjunctiveQuery, Var
from repro.cqa.rewrite import build_edb, naive_program
from repro.datalog.engine import query as run_query
from repro.datalog.program import Program
from repro.datalog.terms import Atom, Constant, Variable, hash_key

__all__ = [
    "EnumerationConfig",
    "EnumerationResult",
    "RepairSpace",
    "build_repair_space",
    "enumerate_certain",
    "query_answers",
]


@dataclass(frozen=True)
class EnumerationConfig:
    """Budget knobs for repair enumeration."""

    #: Exhaustive below this many repairs; seeded sampling of exactly this
    #: many above it.
    max_repairs: int = 512
    #: Wall-clock budget; ``None`` means unbounded.
    timeout_seconds: float | None = None
    #: Seed for the sampling fallback.
    seed: int = 0


@dataclass(frozen=True)
class EnumerationResult:
    """The intersection of query answers over the enumerated repairs."""

    answers: tuple[tuple, ...]
    #: True when ``answers`` is exactly the certain answers (full coverage,
    #: or an empty intersection, which cannot grow back).
    exact: bool
    repairs_evaluated: int
    total_repairs: int
    #: True when sampling replaced exhaustive enumeration.
    truncated: bool
    timed_out: bool
    seconds: float

    @property
    def holds(self) -> bool:
        """For boolean queries: whether the query is certainly true."""
        return bool(self.answers)


@dataclass(frozen=True)
class _Block:
    relation: str
    rows: tuple[int, ...]
    #: Row-index groups, one per distinct tuple value in the block.
    choices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RepairSpace:
    """The per-block choice structure of the repair space of a database."""

    edb: dict[str, list[tuple]]
    #: Removals shared by every candidate repair (irrelevant-block fixes).
    forced: tuple[tuple[str, tuple[int, ...]], ...]
    choice_blocks: tuple[_Block, ...]
    total_repairs: int

    def repairs(self, *, max_repairs: int, seed: int = 0) -> Iterator[dict[str, list[tuple]]]:
        """Candidate repairs, each as the repaired base tables (an EDB).

        Exhaustive when the space fits in ``max_repairs``, otherwise a
        seeded sample of ``max_repairs`` combinations.
        """
        widths = [len(block.choices) for block in self.choice_blocks]
        if self.total_repairs <= max_repairs:
            combos: Iterable[tuple[int, ...]] = itertools.product(
                *(range(width) for width in widths)
            )
        else:
            rng = random.Random(seed)
            combos = (
                tuple(rng.randrange(width) for width in widths)
                for _ in range(max_repairs)
            )
        forced: dict[str, set[int]] = {}
        for relation, indexes in self.forced:
            forced.setdefault(relation, set()).update(indexes)
        for combo in combos:
            removed = {relation: set(indexes) for relation, indexes in forced.items()}
            for block, choice in zip(self.choice_blocks, combo):
                keep = set(block.choices[choice])
                removed.setdefault(block.relation, set()).update(
                    index for index in block.rows if index not in keep
                )
            repaired: dict[str, list[tuple]] = {}
            for relation, rows in self.edb.items():
                dropped = removed.get(relation)
                repaired[relation] = (
                    [row for index, row in enumerate(rows) if index not in dropped]
                    if dropped
                    else rows
                )
            yield repaired


def _constant_tests(
    query: ConjunctiveQuery | None, schemas: Mapping[str, Sequence[str]]
) -> dict[str, list[list[tuple[int, Any]]]]:
    """Per relation, each atom's constant bindings as (position, key) tests."""
    tests: dict[str, list[list[tuple[int, Any]]]] = {}
    if query is None:
        return tests
    for atom in query.atoms:
        attrs = list(schemas.get(atom.relation, ()))
        if not attrs:
            continue
        atom_tests = [
            (attrs.index(attribute), hash_key(term))
            for attribute, term in atom.bindings
            if not isinstance(term, Var) and attribute in attrs
        ]
        tests.setdefault(atom.relation, []).append(atom_tests)
    return tests


def build_repair_space(
    tables: Mapping[str, Any],
    schemas: Mapping[str, Sequence[str]],
    keys: Mapping[str, Sequence[str]],
    query: ConjunctiveQuery | None = None,
) -> RepairSpace:
    """Group each keyed relation into key-equal blocks and find the choices.

    When ``query`` is given, blocks none of whose tuples can satisfy any of
    the query's constant bindings are forced to their first choice instead
    of multiplying the space — an exact-preserving reduction.
    """
    edb = build_edb(tables)
    tests = _constant_tests(query, schemas)
    relevant_relations = (
        set(query.relations()) if query is not None else set(edb)
    )
    forced: list[tuple[str, tuple[int, ...]]] = []
    choice_blocks: list[_Block] = []
    total = 1
    for relation in sorted(edb):
        key_attrs = tuple(keys.get(relation, ()))
        if not key_attrs or relation not in relevant_relations:
            continue
        attrs = list(schemas.get(relation, ()))
        if any(a not in attrs for a in key_attrs):
            continue
        positions = tuple(attrs.index(a) for a in key_attrs)
        blocks: dict[tuple, list[int]] = {}
        for index, row in enumerate(edb[relation]):
            blocks.setdefault(
                tuple(hash_key(row[p]) for p in positions), []
            ).append(index)
        atom_tests = tests.get(relation)
        for _key, indexes in sorted(blocks.items(), key=_block_order):
            groups: dict[tuple, list[int]] = {}
            for index in indexes:
                row = edb[relation][index]
                groups.setdefault(tuple(hash_key(v) for v in row), []).append(index)
            if len(groups) < 2:
                continue
            if atom_tests is not None:
                relevant = any(
                    all(
                        hash_key(edb[relation][index][p]) == expected
                        for p, expected in test
                    )
                    for index in indexes
                    for test in atom_tests
                )
                if not relevant:
                    kept = next(iter(groups.values()))
                    dropped = tuple(i for i in indexes if i not in set(kept))
                    forced.append((relation, dropped))
                    continue
            choice_blocks.append(
                _Block(
                    relation=relation,
                    rows=tuple(indexes),
                    choices=tuple(tuple(group) for group in groups.values()),
                )
            )
            total *= len(groups)
    return RepairSpace(
        edb=edb,
        forced=tuple(forced),
        choice_blocks=tuple(choice_blocks),
        total_repairs=total,
    )


def _block_order(item: tuple) -> tuple:
    """Deterministic block ordering; key tuples mix types (NULLs, strings)."""
    key, _indexes = item
    return tuple((tag,) + _order_key((value,)) for tag, value in key)


def _order_key(row: tuple) -> tuple:
    parts = []
    for value in row:
        if isinstance(value, bool):
            parts.append((2, str(value), 0.0))
        elif isinstance(value, (int, float)):
            parts.append((0, "", float(value)))
        elif value is None:
            parts.append((3, "", 0.0))
        else:
            parts.append((1, str(value), 0.0))
    return tuple(parts)


def _repair_answers(
    query: ConjunctiveQuery,
    schemas: Mapping[str, Sequence[str]],
    edb: Mapping[str, list[tuple]],
) -> set[tuple]:
    """Answers of ``query`` over one repaired instance; boolean queries
    report the empty tuple when satisfied."""
    witness_vars = query.head or tuple(query.variables())
    if witness_vars:
        program, goal = naive_program(query, schemas, head_vars=witness_vars)
        rows = run_query(program, goal, dict(edb))
        if query.head:
            return set(rows)
        return {()} if rows else set()
    # Ground boolean query: every atom must have a matching tuple.
    for atom in query.atoms:
        attrs = list(schemas[atom.relation])
        bound = dict(atom.bindings)
        pattern = Atom(
            atom.relation,
            tuple(
                Constant(bound[a]) if a in bound else Variable("_") for a in attrs
            ),
        )
        if not run_query(Program(), pattern, dict(edb)):
            return set()
    return {()}


def query_answers(
    query: ConjunctiveQuery,
    schemas: Mapping[str, Sequence[str]],
    tables: Mapping[str, Any],
) -> tuple[tuple, ...]:
    """Plain (single-instance) answers of ``query`` over ``tables``.

    Boolean queries report ``((),)`` when satisfied and ``()`` otherwise,
    matching the certain-answer convention.
    """
    answers = _repair_answers(query, schemas, build_edb(tables))
    return tuple(sorted(answers, key=_order_key))


def enumerate_certain(
    query: ConjunctiveQuery,
    schemas: Mapping[str, Sequence[str]],
    tables: Mapping[str, Any],
    keys: Mapping[str, Sequence[str]],
    config: EnumerationConfig | None = None,
) -> EnumerationResult:
    """Certain answers of ``query`` by (bounded) repair enumeration.

    This is also the brute-force ground truth the rewriting is tested
    against: with a large enough ``max_repairs`` budget the result is the
    exact intersection of the query's answers over every repair.
    """
    config = config or EnumerationConfig()
    space = build_repair_space(tables, schemas, keys, query)
    truncated = space.total_repairs > config.max_repairs
    started = time.monotonic()
    answers: set[tuple] | None = None
    evaluated = 0
    timed_out = False
    for repaired in space.repairs(max_repairs=config.max_repairs, seed=config.seed):
        per_repair = _repair_answers(query, schemas, repaired)
        answers = per_repair if answers is None else (answers & per_repair)
        evaluated += 1
        if not answers:
            break
        if (
            config.timeout_seconds is not None
            and time.monotonic() - started > config.timeout_seconds
        ):
            timed_out = True
            break
    seconds = time.monotonic() - started
    final = answers or set()
    covered = not truncated and not timed_out
    exact = covered or not final
    return EnumerationResult(
        answers=tuple(sorted(final, key=_order_key)),
        exact=exact,
        repairs_evaluated=evaluated,
        total_repairs=space.total_repairs,
        truncated=truncated,
        timed_out=timed_out,
        seconds=seconds,
    )
