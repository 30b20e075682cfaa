"""Feedback annotations on wrangling results.

§3 step 3: "The user views the result of the wrangling process … and
provides feedback to indicate that some of the results are correct or
incorrect – such feedback can be at the tuple level or the attribute
level." Feedback is asserted into the knowledge base as ``feedback`` facts,
which makes the mapping-evaluation transducer runnable.

:class:`FeedbackCollector` also simulates a user annotating results by
comparing them against ground truth (used by the examples, benchmarks and
the pay-as-you-go experiment, where no human is in the loop).
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.core.facts import Feedback, Predicates
from repro.core.knowledge_base import KnowledgeBase
from repro.mapping.model import PROVENANCE_ROW_ID
from repro.quality.stats import build_reference_index, cell_equal
from repro.relational.keys import normalise_key_tuple
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = ["FeedbackCollector", "simulate_feedback"]


class FeedbackCollector:
    """Creates and asserts feedback annotations."""

    def __init__(self, kb: KnowledgeBase):
        self._kb = kb
        self._counter = 0

    def _next_id(self) -> str:
        self._counter += 1
        return f"fb_{self._counter}"

    def annotate_attribute(
        self, relation: str, row_key: str, attribute: str, *, correct: bool
    ) -> Feedback:
        """Attribute-level feedback on one result cell."""
        feedback = Feedback(self._next_id(), relation, row_key, attribute, correct)
        self._kb.assert_tuple(feedback.to_fact())
        return feedback

    def annotate_tuple(self, relation: str, row_key: str, *, correct: bool) -> Feedback:
        """Tuple-level feedback on one result row."""
        feedback = Feedback(self._next_id(), relation, row_key, Predicates.ANY_ATTRIBUTE, correct)
        self._kb.assert_tuple(feedback.to_fact())
        return feedback

    def annotate_many(self, annotations: Iterable[Feedback]) -> int:
        """Assert pre-built feedback annotations; returns how many were new."""
        added = 0
        for annotation in annotations:
            added += int(self._kb.assert_tuple(annotation.to_fact()))
        return added


def simulate_feedback(
    result: Table,
    ground_truth: Table,
    key: Sequence[str],
    *,
    attributes: Sequence[str] | None = None,
    budget: int = 50,
    seed: int = 0,
    strategy: str = "random",
    id_prefix: str = "sim",
) -> list[Feedback]:
    """Simulate a user annotating ``budget`` result cells against ground truth.

    Cells are sampled from the checkable cells (rows whose key appears in the
    ground truth, attributes present in both tables) and marked correct or
    incorrect according to the ground truth — what a knowledgeable user (the
    paper's data scientist) would report.

    ``strategy`` controls how the user spends the annotation budget:

    - ``"random"`` — cells are sampled uniformly (an unbiased audit);
    - ``"targeted"`` — erroneous cells are annotated first (the paper's
      motivating behaviour: values that are "clearly not correct", such as a
      bedroom count of 250, catch the user's eye), with the remaining budget
      spent confirming correct cells.
    """
    if strategy not in ("random", "targeted"):
        raise ValueError(f"unknown feedback strategy {strategy!r}")
    rng = random.Random(seed)
    if attributes is None:
        attributes = [
            name
            for name in result.schema.attribute_names
            if name in ground_truth.schema and name not in key and not name.startswith("_")
        ]
    # A key attribute the ground truth lacks matches no row.
    truth_index = (
        build_reference_index(ground_truth, key)
        if all(k in ground_truth.schema for k in key)
        else {}
    )

    candidates: list[tuple[str, str, bool]] = []
    has_row_id = PROVENANCE_ROW_ID in result.schema
    for index, row in enumerate(result.rows()):
        result_key = normalise_key_tuple(row.get(k) for k in key)
        expected = truth_index.get(result_key)
        if expected is None:
            continue
        row_key = str(row[PROVENANCE_ROW_ID]) if has_row_id else str(index)
        for attribute in attributes:
            expected_value = expected.get(attribute)
            if is_null(expected_value):
                continue
            actual = row.get(attribute)
            if is_null(actual):
                # The user can tell a missing value is wrong at tuple level,
                # but attribute feedback targets observed values.
                continue
            correct = cell_equal(actual, expected_value)
            candidates.append((row_key, attribute, correct))

    rng.shuffle(candidates)
    if strategy == "targeted":
        candidates.sort(key=lambda item: item[2])  # incorrect (False) first
    annotations = []
    for counter, (row_key, attribute, correct) in enumerate(candidates[:budget], start=1):
        annotations.append(
            Feedback(
                feedback_id=f"{id_prefix}_{counter}",
                relation=result.name,
                row_key=row_key,
                attribute=attribute,
                correct=correct,
            )
        )
    return annotations
