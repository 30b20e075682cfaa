"""Consistent query answering (CQA) over unrepaired data.

The pipeline's default mode repairs first and answers questions over the
repaired result. This package adds the complementary mode: *certain
answers* computed directly over the inconsistent pre-repair tables, under
the primary keys and exact CFDs the pipeline has already learned. Queries
in the rewritable key-join forest class compile to stratified datalog
(:mod:`repro.cqa.rewrite`) and run over the dirty tables without ever
materialising a repair; everything else falls back to bounded repair
enumeration (:mod:`repro.cqa.enumerate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.cqa.enumerate import (
    EnumerationConfig,
    EnumerationResult,
    RepairSpace,
    _order_key,
    build_repair_space,
    enumerate_certain,
    query_answers,
)
from repro.cqa.query import (
    Classification,
    ConjunctiveQuery,
    PlanNode,
    QueryAtom,
    QueryParseError,
    RewritePlan,
    Var,
    classify,
    keys_from_cfds,
    parse_query,
)
from repro.cqa.rewrite import (
    CompiledQuery,
    RewriteError,
    build_edb,
    certain_answers,
    compile_certain,
    naive_program,
)

__all__ = [
    "Var",
    "QueryAtom",
    "ConjunctiveQuery",
    "QueryParseError",
    "parse_query",
    "keys_from_cfds",
    "PlanNode",
    "RewritePlan",
    "Classification",
    "classify",
    "CompiledQuery",
    "RewriteError",
    "compile_certain",
    "certain_answers",
    "naive_program",
    "build_edb",
    "EnumerationConfig",
    "EnumerationResult",
    "RepairSpace",
    "build_repair_space",
    "enumerate_certain",
    "query_answers",
    "CertainResult",
    "answer_certain",
]


@dataclass(frozen=True)
class CertainResult:
    """Certain answers plus how they were computed."""

    answers: tuple[tuple, ...]
    #: ``"rewriting"`` or ``"enumeration"``.
    method: str
    classification: Classification
    #: Enumeration diagnostics when the fallback ran, else ``None``.
    enumeration: EnumerationResult | None = None

    @property
    def exact(self) -> bool:
        """Whether ``answers`` is exactly the certain answers."""
        return self.enumeration.exact if self.enumeration is not None else True


def answer_certain(
    query: ConjunctiveQuery,
    schemas: Mapping[str, Sequence[str]],
    tables: Mapping[str, Any],
    keys: Mapping[str, Sequence[str]],
    *,
    enumeration: EnumerationConfig | None = None,
) -> CertainResult:
    """Certain answers of ``query``, choosing rewriting when it applies.

    ``tables`` holds the dirty (unrepaired) instances, ``keys`` the primary
    keys; relations without a key are treated as consistent.
    """
    classification = classify(query, keys)
    if classification.rewritable:
        assert classification.plan is not None
        compiled = compile_certain(classification.plan, schemas)
        rows = certain_answers(compiled, tables)
        return CertainResult(
            answers=tuple(sorted((tuple(row) for row in rows), key=_order_key)),
            method="rewriting",
            classification=classification,
        )
    result = enumerate_certain(query, schemas, tables, keys, enumeration)
    return CertainResult(
        answers=result.answers,
        method="enumeration",
        classification=classification,
        enumeration=result,
    )
