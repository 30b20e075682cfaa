"""The metadata vocabulary stored in the knowledge base.

The VADA knowledge base holds "information about the requirements of the
user (user context), the application domain (data context), and metadata
created and used by the transducers". This module fixes the predicate names
used for that metadata so that transducer dependencies, orchestration rules
and the benchmark harness all speak the same vocabulary.

Every predicate is documented with its argument layout. The helpers below
build ground tuples for the knowledge base (the KB stores plain tuples; the
relational payloads live in the catalog and are referenced by name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "Predicates",
    "schema_fact",
    "attribute_fact",
    "dataset_fact",
    "data_context_fact",
    "match_fact",
    "mapping_fact",
    "mapping_score_fact",
    "mapping_selected_fact",
    "metric_fact",
    "cfd_fact",
    "feedback_fact",
    "preference_fact",
    "criterion_weight_fact",
    "source_selected_fact",
    "repair_fact",
    "duplicate_fact",
    "result_fact",
    "result_relation_name",
    "Feedback",
]


class Predicates:
    """Names of the knowledge-base predicates (the KB vocabulary).

    Argument layouts:

    - ``schema(relation, role)`` — role is ``source``, ``target`` or
      ``context``.
    - ``attribute(relation, attribute, dtype, position)``
    - ``dataset(relation, role, row_count)`` — a table registered in the
      catalog; role mirrors ``schema``.
    - ``data_context(relation, kind, target_relation)`` — kind is
      ``reference``, ``master`` or ``example``; ``target_relation`` is the
      target-schema relation the context data is associated with.
    - ``match(source_relation, source_attribute, target_relation,
      target_attribute, score)``
    - ``mapping(mapping_id, target_relation, kind)`` — kind is e.g.
      ``union``, ``join``, ``direct``.
    - ``mapping_score(mapping_id, criterion, value)``
    - ``mapping_selected(mapping_id, rank)``
    - ``source_selected(relation, rank)``
    - ``metric(subject_kind, subject, criterion, value)`` — subject kind is
      ``source``, ``mapping`` or ``result``; criterion is ``completeness``,
      ``accuracy``, ``consistency`` or ``relevance``.
    - ``cfd(cfd_id, relation, lhs, rhs, support)`` — lhs/rhs are rendered
      attribute patterns; the structured CFD lives in the catalog-side model.
    - ``feedback(feedback_id, relation, row_key, attribute, verdict)`` —
      verdict is ``correct`` or ``incorrect``; attribute may be ``*`` for
      tuple-level feedback.
    - ``preference(criterion_a, criterion_b, strength)`` — the user-context
      pairwise comparison; strength follows the AHP verbal scale (1–9).
    - ``criterion_weight(criterion, weight)`` — derived from preferences.
    - ``repair(relation, row_key, attribute, old_value, new_value, cfd_id)``
    - ``duplicate(relation_a, key_a, relation_b, key_b, score)``
    - ``result(relation, mapping_id, row_count)`` — a materialised result.
    - ``user_context_set()`` / ``data_context_set()`` — flags raised when
      the corresponding context has been provided.
    """

    SCHEMA = "schema"
    ATTRIBUTE = "attribute"
    DATASET = "dataset"
    DATA_CONTEXT = "data_context"
    MATCH = "match"
    MAPPING = "mapping"
    MAPPING_SCORE = "mapping_score"
    MAPPING_SELECTED = "mapping_selected"
    SOURCE_SELECTED = "source_selected"
    METRIC = "metric"
    CFD = "cfd"
    FEEDBACK = "feedback"
    PREFERENCE = "preference"
    CRITERION_WEIGHT = "criterion_weight"
    REPAIR = "repair"
    DUPLICATE = "duplicate"
    RESULT = "result"
    USER_CONTEXT_SET = "user_context_set"
    DATA_CONTEXT_SET = "data_context_set"

    #: Roles a relation can play.
    ROLE_SOURCE = "source"
    ROLE_TARGET = "target"
    ROLE_CONTEXT = "context"

    #: Kinds of data context (paper §2.2).
    CONTEXT_REFERENCE = "reference"
    CONTEXT_MASTER = "master"
    CONTEXT_EXAMPLE = "example"

    #: Quality criteria used by metrics, preferences and selection.
    CRITERIA = ("completeness", "accuracy", "consistency", "relevance")

    #: Feedback verdicts.
    CORRECT = "correct"
    INCORRECT = "incorrect"

    #: Wildcard used for tuple-level feedback.
    ANY_ATTRIBUTE = "*"


# -- tuple builders -----------------------------------------------------------


def schema_fact(relation: str, role: str) -> tuple[str, tuple]:
    """``schema(relation, role)``."""
    return Predicates.SCHEMA, (relation, role)


def attribute_fact(relation: str, attribute: str, dtype: str, position: int) -> tuple[str, tuple]:
    """``attribute(relation, attribute, dtype, position)``."""
    return Predicates.ATTRIBUTE, (relation, attribute, dtype, position)


def dataset_fact(relation: str, role: str, row_count: int) -> tuple[str, tuple]:
    """``dataset(relation, role, row_count)``."""
    return Predicates.DATASET, (relation, role, row_count)


def data_context_fact(relation: str, kind: str, target_relation: str) -> tuple[str, tuple]:
    """``data_context(relation, kind, target_relation)``."""
    return Predicates.DATA_CONTEXT, (relation, kind, target_relation)


def match_fact(source_relation: str, source_attribute: str, target_relation: str,
               target_attribute: str, score: float) -> tuple[str, tuple]:
    """``match(src_rel, src_attr, tgt_rel, tgt_attr, score)``."""
    return Predicates.MATCH, (source_relation, source_attribute, target_relation,
                              target_attribute, round(float(score), 6))


def mapping_fact(mapping_id: str, target_relation: str, kind: str) -> tuple[str, tuple]:
    """``mapping(mapping_id, target_relation, kind)``."""
    return Predicates.MAPPING, (mapping_id, target_relation, kind)


def mapping_score_fact(mapping_id: str, criterion: str, value: float) -> tuple[str, tuple]:
    """``mapping_score(mapping_id, criterion, value)``."""
    return Predicates.MAPPING_SCORE, (mapping_id, criterion, round(float(value), 6))


def mapping_selected_fact(mapping_id: str, rank: int) -> tuple[str, tuple]:
    """``mapping_selected(mapping_id, rank)``."""
    return Predicates.MAPPING_SELECTED, (mapping_id, rank)


def source_selected_fact(relation: str, rank: int) -> tuple[str, tuple]:
    """``source_selected(relation, rank)``."""
    return Predicates.SOURCE_SELECTED, (relation, rank)


def metric_fact(subject_kind: str, subject: str, criterion: str, value: float) -> tuple[str, tuple]:
    """``metric(subject_kind, subject, criterion, value)``."""
    return Predicates.METRIC, (subject_kind, subject, criterion, round(float(value), 6))


def cfd_fact(cfd_id: str, relation: str, lhs: str, rhs: str, support: float) -> tuple[str, tuple]:
    """``cfd(cfd_id, relation, lhs, rhs, support)``."""
    return Predicates.CFD, (cfd_id, relation, lhs, rhs, round(float(support), 6))


def feedback_fact(feedback_id: str, relation: str, row_key: str, attribute: str,
                  verdict: str) -> tuple[str, tuple]:
    """``feedback(feedback_id, relation, row_key, attribute, verdict)``."""
    return Predicates.FEEDBACK, (feedback_id, relation, row_key, attribute, verdict)


def preference_fact(criterion_a: str, criterion_b: str, strength: float) -> tuple[str, tuple]:
    """``preference(criterion_a, criterion_b, strength)``."""
    return Predicates.PREFERENCE, (criterion_a, criterion_b, round(float(strength), 6))


def criterion_weight_fact(criterion: str, weight: float) -> tuple[str, tuple]:
    """``criterion_weight(criterion, weight)``."""
    return Predicates.CRITERION_WEIGHT, (criterion, round(float(weight), 6))


def repair_fact(relation: str, row_key: str, attribute: str, old_value: Any,
                new_value: Any, cfd_id: str) -> tuple[str, tuple]:
    """``repair(relation, row_key, attribute, old, new, cfd_id)``."""
    return Predicates.REPAIR, (relation, row_key, attribute,
                               _render(old_value), _render(new_value), cfd_id)


def duplicate_fact(relation_a: str, key_a: str, relation_b: str, key_b: str,
                   score: float) -> tuple[str, tuple]:
    """``duplicate(relation_a, key_a, relation_b, key_b, score)``."""
    return Predicates.DUPLICATE, (relation_a, key_a, relation_b, key_b,
                                  round(float(score), 6))


def result_fact(relation: str, mapping_id: str, row_count: int) -> tuple[str, tuple]:
    """``result(relation, mapping_id, row_count)``."""
    return Predicates.RESULT, (relation, mapping_id, row_count)


def result_relation_name(target_relation: str) -> str:
    """Canonical name of the materialised result table for a target relation."""
    return f"{target_relation}_result"


def _render(value: Any) -> str:
    """Render arbitrary payload values as strings for KB storage."""
    if value is None:
        return ""
    return str(value)


@dataclass(frozen=True)
class Feedback:
    """A single user feedback annotation (paper §2.3, §3 step 3).

    ``attribute`` is ``*`` for tuple-level feedback. ``row_key`` identifies
    the annotated tuple (the wrangler uses a stable surrogate key column).
    """

    feedback_id: str
    relation: str
    row_key: str
    attribute: str
    correct: bool

    @property
    def verdict(self) -> str:
        """The KB verdict constant for this annotation."""
        return Predicates.CORRECT if self.correct else Predicates.INCORRECT

    def to_fact(self) -> tuple[str, tuple]:
        """Render as a ``feedback`` KB fact."""
        return feedback_fact(self.feedback_id, self.relation, self.row_key,
                             self.attribute, self.verdict)
