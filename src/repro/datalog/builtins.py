"""Evaluation of built-in comparison literals.

Vadalog-lite supports the usual comparison operators plus ``=`` which doubles
as equality test and as assignment when one side is an unbound variable
(handled by the engine before reaching :func:`evaluate_comparison`).
"""

from __future__ import annotations

import operator
from decimal import InvalidOperation
from typing import Any, Callable, Mapping

from repro.datalog.errors import EvaluationError
from repro.datalog.terms import (
    Comparison,
    Constant,
    Substitution,
    Term,
    Variable,
    constants_match,
)

__all__ = ["COMPARISONS", "evaluate_comparison", "try_bind_assignment", "resolve_term"]


def resolve_term(term: Term, binding: Mapping[str, Any]) -> tuple[bool, Any]:
    """Resolve a term under a binding.

    Returns ``(True, value)`` when the term is ground (constant or bound
    variable) and ``(False, None)`` when it is an unbound variable.
    """
    if isinstance(term, Constant):
        return True, term.value
    if isinstance(term, Variable):
        if term.name in binding:
            return True, binding[term.name]
        return False, None
    raise EvaluationError(f"unsupported term type {type(term).__name__}")  # pragma: no cover


def try_bind_assignment(comparison: Comparison, binding: Substitution) -> Substitution | None:
    """Treat ``X = value`` (or ``value = X``) as an assignment.

    Returns an extended binding when exactly one side is an unbound variable
    and the other side is ground; returns None when the comparison is not an
    assignment under the current binding.
    """
    if comparison.op not in ("=", "=="):
        return None
    left_ground, left_value = resolve_term(comparison.left, binding)
    right_ground, right_value = resolve_term(comparison.right, binding)
    if left_ground and not right_ground and isinstance(comparison.right, Variable):
        extended = dict(binding)
        extended[comparison.right.name] = left_value
        return extended
    if right_ground and not left_ground and isinstance(comparison.left, Variable):
        extended = dict(binding)
        extended[comparison.left.name] = right_value
        return extended
    return None


def _ordering(compare: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def test(left: Any, right: Any) -> Any:
        try:
            return compare(left, right)
        except (TypeError, InvalidOperation):
            # Incomparable types never satisfy an ordering comparison, nor
            # does a Decimal ordered against a NaN (which signals instead).
            return False

    return test


#: The test of a fully bound comparison, by operator.
COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "=": constants_match,
    "==": constants_match,
    "!=": lambda left, right: not constants_match(left, right),
    "<": _ordering(operator.lt),
    "<=": _ordering(operator.le),
    ">": _ordering(operator.gt),
    ">=": _ordering(operator.ge),
}


def evaluate_comparison(comparison: Comparison, binding: Mapping[str, Any]) -> bool:
    """Evaluate a fully bound comparison literal."""
    left_ground, left = resolve_term(comparison.left, binding)
    right_ground, right = resolve_term(comparison.right, binding)
    if not (left_ground and right_ground):
        raise EvaluationError(
            f"comparison {comparison} has unbound variables under {dict(binding)!r}")
    test = COMPARISONS.get(comparison.op)
    if test is None:
        raise EvaluationError(f"unknown comparison operator {comparison.op!r}")
    return test(left, right)
