"""Abstract syntax of Vadalog-lite programs.

The reasoner implements stratified Datalog with negation and comparison /
arithmetic built-ins, which is the fragment the VADA architecture exercises
for transducer dependencies, orchestration conditions and schema mappings.

Terms are either :class:`Variable` or :class:`Constant`. An :class:`Atom`
is a predicate applied to terms. A body :class:`Literal` is an atom, a
negated atom, or a built-in comparison. A :class:`Rule` is a head atom with
a list of body literals; a rule with an empty body and a ground head is a
fact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.datalog.errors import SafetyError

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Literal",
    "Comparison",
    "Rule",
    "fact",
    "Substitution",
    "constants_match",
    "hash_key",
    "row_key",
]

#: A substitution maps variable names to constant values.
Substitution = dict[str, Any]


def constants_match(left: Any, right: Any) -> bool:
    """Whether two constants are equal under the reasoner's semantics.

    Booleans never equal numbers, numbers are equal across int/float
    (through ``float``; ints beyond float range compare exactly) and every
    other value uses ``==``. Joins, negation and the ``=``/``!=`` built-ins
    all test equality with this function.
    """
    if type(left) is str or left is None:
        return left == right
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        try:
            return float(left) == float(right)
        except OverflowError:  # ints beyond float range compare exactly
            return left == right
    return left == right


def hash_key(value: Any) -> tuple[str, Any]:
    """A hashable index key matching the engine's constant-equality semantics.

    Plain Python hashing conflates ``True``/``1``/``1.0`` as dict keys, while
    the reasoner treats booleans as distinct from numbers and numbers as
    equal across int/float. Tagging the value keeps hash-index probes
    aligned with :func:`constants_match`: booleans get their own key space
    and numbers are canonicalised through ``float``. Equal keys do not imply
    a match (NaN, or a ``Decimal`` against the float it rounds to), so the
    engine verifies every index hit with :func:`constants_match`.
    """
    kind = type(value)
    if kind is str or value is None:
        return ("v", value)
    if kind is bool:
        return ("b", value)
    if kind is float or kind is int or isinstance(value, numbers.Number):
        # All numeric types share one key space so cross-type matches
        # (1 / 1.0 / Decimal("1") / Fraction(1)) land in one bucket. Values
        # float() cannot canonicalise keep their exact identity — Python's
        # numeric hashing still makes ==-equal keys collide correctly.
        try:
            return ("n", float(value))  # type: ignore[arg-type]
        except (OverflowError, TypeError):
            return ("n", value)
    return ("v", value)


def row_key(row: tuple, positions: tuple[int, ...]) -> tuple[tuple[str, Any], ...]:
    """The composite index key of ``row`` on a column subset."""
    return tuple([hash_key(row[position]) for position in positions])


class Term:
    """Base class for terms appearing in atoms."""

    __slots__ = ()

    def substitute(self, binding: Mapping[str, Any]) -> "Term":
        """Apply a substitution, returning a possibly-ground term."""
        raise NotImplementedError

    @property
    def is_ground(self) -> bool:
        """Whether the term contains no variables."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A logic variable (written with a leading uppercase letter or ``_``)."""

    name: str

    def substitute(self, binding: Mapping[str, Any]) -> Term:
        if self.name in binding:
            return Constant(binding[self.name])
        return self

    @property
    def is_ground(self) -> bool:
        return False

    @property
    def is_anonymous(self) -> bool:
        """Anonymous variables (``_``) never join with anything."""
        return self.name == "_"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """A ground value: string, number or boolean."""

    value: Any

    def substitute(self, binding: Mapping[str, Any]) -> Term:
        return self

    @property
    def is_ground(self) -> bool:
        return True

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to a tuple of terms."""

    predicate: str
    terms: tuple[Term, ...]

    def __init__(self, predicate: str, terms: Sequence[Term | Any] = ()):
        object.__setattr__(self, "predicate", predicate)
        normalised = tuple(t if isinstance(t, Term) else Constant(t) for t in terms)
        object.__setattr__(self, "terms", normalised)

    @property
    def arity(self) -> int:
        """Number of terms."""
        return len(self.terms)

    @property
    def is_ground(self) -> bool:
        """Whether every term is a constant."""
        return all(t.is_ground for t in self.terms)

    def variables(self) -> set[str]:
        """Names of all variables appearing in the atom."""
        return {t.name for t in self.terms if isinstance(t, Variable) and not t.is_anonymous}

    def substitute(self, binding: Mapping[str, Any]) -> "Atom":
        """Apply a substitution to every term."""
        return Atom(self.predicate, tuple(t.substitute(binding) for t in self.terms))

    def as_tuple(self) -> tuple[Any, ...]:
        """The constant values of a ground atom."""
        if not self.is_ground:
            raise SafetyError(f"atom {self} is not ground")
        return tuple(t.value for t in self.terms)  # type: ignore[union-attr]

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({', '.join(str(t) for t in self.terms)})"


#: Comparison operators supported in rule bodies.
COMPARISON_OPERATORS = ("==", "!=", "<=", ">=", "<", ">", "=")


@dataclass(frozen=True, slots=True)
class Comparison:
    """A built-in comparison literal, e.g. ``X > 3`` or ``Y = Z``."""

    left: Term
    op: str
    right: Term

    def variables(self) -> set[str]:
        """Variables referenced by either side."""
        names = set()
        for term in (self.left, self.right):
            if isinstance(term, Variable) and not term.is_anonymous:
                names.add(term.name)
        return names

    def substitute(self, binding: Mapping[str, Any]) -> "Comparison":
        """Apply a substitution to both sides."""
        return Comparison(self.left.substitute(binding), self.op, self.right.substitute(binding))

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class Literal:
    """A body literal: an atom, possibly negated, or a comparison."""

    atom: Atom | None = None
    comparison: Comparison | None = None
    negated: bool = False

    def __post_init__(self) -> None:
        if (self.atom is None) == (self.comparison is None):
            raise SafetyError("a literal must be exactly one of atom or comparison")
        if self.comparison is not None and self.negated:
            raise SafetyError("comparisons cannot be negated; use the inverse operator")

    @property
    def is_positive_atom(self) -> bool:
        """True for non-negated relational atoms."""
        return self.atom is not None and not self.negated

    @property
    def is_negated_atom(self) -> bool:
        """True for negated relational atoms."""
        return self.atom is not None and self.negated

    @property
    def is_comparison(self) -> bool:
        """True for built-in comparison literals."""
        return self.comparison is not None

    def variables(self) -> set[str]:
        """All variable names in the literal."""
        if self.atom is not None:
            return self.atom.variables()
        assert self.comparison is not None
        return self.comparison.variables()

    def __str__(self) -> str:
        if self.comparison is not None:
            return str(self.comparison)
        prefix = "not " if self.negated else ""
        return f"{prefix}{self.atom}"


@dataclass(frozen=True, slots=True)
class Rule:
    """A Datalog rule ``head :- body``; an empty body makes it a fact."""

    head: Atom
    body: tuple[Literal, ...] = ()

    def __init__(self, head: Atom, body: Iterable[Literal] = ()):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        self._check_safety()

    def _check_safety(self) -> None:
        """Range restriction: head, negated and comparison variables must be
        bound by a positive body atom (comparison of form ``X = constant`` or
        ``X = Y op Z`` with bound right side also binds)."""
        if not self.body:
            if not self.head.is_ground:
                raise SafetyError(f"fact {self.head} must be ground")
            return
        positive_vars: set[str] = set()
        for literal in self.body:
            if literal.is_positive_atom:
                positive_vars |= literal.variables()
        # Assignment comparisons (X = expr) can bind a new variable when the
        # right-hand side is ground or bound; we approximate by allowing '='
        # with a left variable to bind it when the right side is bound.
        changed = True
        while changed:
            changed = False
            for literal in self.body:
                if literal.is_comparison and literal.comparison.op in ("=", "=="):
                    comparison = literal.comparison
                    left, right = comparison.left, comparison.right
                    if isinstance(left, Variable) and left.name not in positive_vars:
                        if right.is_ground or (
                                isinstance(right, Variable) and right.name in positive_vars):
                            positive_vars.add(left.name)
                            changed = True
                    if isinstance(right, Variable) and right.name not in positive_vars:
                        if left.is_ground or (
                                isinstance(left, Variable) and left.name in positive_vars):
                            positive_vars.add(right.name)
                            changed = True
        unsafe = self.head.variables() - positive_vars
        if unsafe:
            raise SafetyError(
                f"rule {self}: head variables {sorted(unsafe)} are not bound by the body")
        for literal in self.body:
            if literal.is_negated_atom or literal.is_comparison:
                unbound = literal.variables() - positive_vars
                if unbound:
                    raise SafetyError(
                        f"rule {self}: variables {sorted(unbound)} in {literal} are unbound")

    @property
    def is_fact(self) -> bool:
        """True when the rule has an empty body (and therefore a ground head)."""
        return not self.body

    def negated_body_atoms(self) -> list[Atom]:
        """The negated relational atoms of the body."""
        return [lit.atom for lit in self.body if lit.is_negated_atom]  # type: ignore[misc]

    def comparisons(self) -> list[Comparison]:
        """The built-in comparison literals of the body."""
        return [lit.comparison for lit in self.body if lit.is_comparison]  # type: ignore[misc]

    def body_predicates(self) -> set[str]:
        """All predicate names referenced in the body."""
        return {lit.atom.predicate for lit in self.body if lit.atom is not None}

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(lit) for lit in self.body)}."


def fact(predicate: str, *values: Any) -> Rule:
    """Convenience constructor for a ground fact rule."""
    return Rule(Atom(predicate, tuple(Constant(v) for v in values)))
