"""Conditional functional dependencies (CFDs).

A CFD is a functional dependency ``LHS → RHS`` extended with a *pattern
tuple* that restricts where it applies and/or fixes constant values
(Fan & Geerts, "Foundations of Data Quality Management" — reference [4] of
the paper). The paper uses CFDs learned from data-context reference data to
establish the consistency of address information and to repair mapping
results.

The pattern tuple maps attributes to either the wildcard ``"_"`` or a
constant. Attributes of the LHS with constants restrict applicability;
an RHS constant prescribes the value, an RHS wildcard requires agreement
with the dependency's witness (the reference value for the row's LHS
values, built by :mod:`repro.quality.cfd_learning`).

:class:`CFDCheck` is the one evaluation of a CFD: bound to a row layout, it
tells whether a row tuple is in scope, what its RHS should be and whether
it satisfies the dependency. Consistency statistics count with it and the
repairer rewrites with it, both through :func:`group_checks`: the checks
over one LHS attribute tuple share each row's NULL test and normalised LHS
key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.relational.keys import normalise_key
from repro.relational.types import is_null

__all__ = ["WILDCARD", "CFD", "CFDCheck", "CFDGroup", "group_checks"]

#: Pattern wildcard.
WILDCARD = "_"


@dataclass(frozen=True)
class CFD:
    """One conditional functional dependency with a single pattern tuple."""

    cfd_id: str
    relation: str
    lhs: tuple[str, ...]
    rhs: str
    #: Pattern over LHS attributes: attribute → constant or ``WILDCARD``.
    lhs_pattern: tuple[tuple[str, Any], ...] = ()
    #: RHS pattern value: a constant, or ``WILDCARD`` for variable CFDs.
    rhs_pattern: Any = WILDCARD
    #: Fraction of reference tuples supporting the dependency.
    support: float = 1.0
    #: Confidence of the underlying FD in the reference data.
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("a CFD needs at least one LHS attribute")
        if self.rhs in self.lhs:
            raise ValueError(f"CFD RHS {self.rhs!r} cannot also be a LHS attribute")
        pattern_attrs = {name for name, _ in self.lhs_pattern}
        unknown = pattern_attrs - set(self.lhs)
        if unknown:
            raise ValueError(f"pattern mentions non-LHS attributes: {sorted(unknown)}")

    @property
    def is_constant(self) -> bool:
        """True when the RHS pattern prescribes a constant value."""
        return self.rhs_pattern != WILDCARD

    @property
    def is_variable(self) -> bool:
        """True when the RHS pattern is the wildcard (classic FD semantics)."""
        return not self.is_constant

    def lhs_pattern_dict(self) -> dict[str, Any]:
        """The LHS pattern as a dictionary (missing attributes are wildcards)."""
        pattern = {name: WILDCARD for name in self.lhs}
        pattern.update(dict(self.lhs_pattern))
        return pattern

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``([postcode] -> street, (_ || _))``."""
        lhs_pattern = self.lhs_pattern_dict()
        lhs_part = ", ".join(f"{name}={lhs_pattern[name]}" for name in self.lhs)
        return f"{self.relation}: [{lhs_part}] -> {self.rhs}={self.rhs_pattern}"

    def to_fact_fields(self) -> tuple[str, str, str, str, float]:
        """Fields for the ``cfd`` KB fact (id, relation, lhs, rhs, support)."""
        lhs_pattern = self.lhs_pattern_dict()
        lhs_text = ",".join(f"{name}:{lhs_pattern[name]}" for name in self.lhs)
        rhs_text = f"{self.rhs}:{self.rhs_pattern}"
        return self.cfd_id, self.relation, lhs_text, rhs_text, self.support


class CFDCheck:
    """One CFD evaluated over row tuples laid out as ``names``.

    Attribute positions and the LHS pattern constants are resolved once per
    (CFD, layout). A row is in scope when the layout has every LHS
    attribute, none of those values is NULL and each LHS constant matches.
    :meth:`expected_at` and :meth:`satisfied_at` take a row already in scope
    plus its normalised LHS key (:meth:`key`), which they read only when the
    check :attr:`reads_witness`: a :class:`CFDGroup` computes that key once
    for every check over the same LHS. :meth:`applies`, :meth:`expected`
    and :meth:`satisfied` are the same evaluation for a single row.
    """

    __slots__ = (
        "cfd",
        "witness",
        "rhs_position",
        "lhs_positions",
        "reads_witness",
        "_constants",
        "_constant",
    )

    def __init__(
        self,
        cfd: CFD,
        names: Sequence[str],
        witness: Mapping[tuple, Any] | None = None,
    ) -> None:
        index = {name: position for position, name in enumerate(names)}
        lhs = tuple(index.get(attribute) for attribute in cfd.lhs)
        self.cfd = cfd
        #: Normalised LHS values → expected RHS value (variable CFDs).
        self.witness = witness
        #: Position of the RHS attribute; None when the layout lacks it.
        self.rhs_position = index.get(cfd.rhs)
        #: Positions of the LHS attributes; None when the layout lacks one
        #: (then no row is in scope).
        self.lhs_positions = None if None in lhs else lhs
        #: Whether the expected value is looked up by the LHS key (a
        #: variable CFD with a witness).
        self.reads_witness = not cfd.is_constant and witness is not None
        self._constants = tuple(
            (index.get(attribute), constant)
            for attribute, constant in cfd.lhs_pattern
            if constant != WILDCARD
        )
        self._constant = cfd.is_constant

    def matches(self, values: Sequence[Any]) -> bool:
        """Whether each LHS constant of the pattern matches (LHS not NULL)."""
        for position, constant in self._constants:
            if not _values_equal(values[position], constant):
                return False
        return True

    def key(self, values: Sequence[Any]) -> tuple:
        """The row's normalised LHS values, the key its witness is read by."""
        return _lhs_key(values, self.lhs_positions)

    def expected_at(self, key: tuple | None) -> Any:
        """The value the RHS should have: the constant pattern, or the
        witness's value for the LHS ``key`` (None when unknown)."""
        if self._constant:
            return self.cfd.rhs_pattern
        if self.witness is None:
            return None
        return self.witness.get(key)

    def satisfied_at(self, values: Sequence[Any], key: tuple | None) -> bool:
        """Whether the row's RHS equals :meth:`expected_at` for ``key``.

        A variable CFD holds where the witness knows no value; a constant
        one never holds with a NULL pattern. A layout without the RHS
        attribute reads it as NULL.
        """
        expected = self.expected_at(key)
        if expected is None and not self._constant:
            return True
        position = self.rhs_position
        return _values_equal(None if position is None else values[position], expected)

    def applies(self, values: Sequence[Any]) -> bool:
        """Whether the row is in scope (rows NULL on the LHS never are)."""
        lhs = self.lhs_positions
        return lhs is not None and not _lhs_null(values, lhs) and self.matches(values)

    def expected(self, values: Sequence[Any]) -> Any:
        """:meth:`expected_at` for a row in scope."""
        return self.expected_at(self.key(values) if self.reads_witness else None)

    def satisfied(self, values: Sequence[Any]) -> bool:
        """:meth:`satisfied_at` for a row in scope."""
        return self.satisfied_at(values, self.key(values) if self.reads_witness else None)


class CFDGroup:
    """The checks of one row layout whose LHS reads the same positions.

    CFDs learned from one context table share LHS attribute tuples, so a
    row is NULL-tested once per group, and its normalised LHS key is
    computed once and shared by every check of the group that reads a
    witness.
    """

    __slots__ = ("positions", "members")

    def __init__(self, positions: tuple[int, ...], members: tuple[tuple[int, CFDCheck], ...]):
        #: The LHS positions, in the CFDs' LHS attribute order.
        self.positions = positions
        #: (index among the grouped checks, check) pairs, in index order.
        self.members = members

    def null(self, values: Sequence[Any]) -> bool:
        """Whether one of the row's LHS values is NULL (no check applies)."""
        return _lhs_null(values, self.positions)

    def key(self, values: Sequence[Any]) -> tuple:
        """The row's normalised LHS values (:meth:`CFDCheck.key`)."""
        return _lhs_key(values, self.positions)


def group_checks(checks: Sequence[CFDCheck]) -> tuple[CFDGroup, ...]:
    """The checks grouped by LHS positions, in the order of each group's first
    check. A check whose layout lacks an LHS attribute never applies and is
    left out."""
    groups: dict[tuple[int, ...], list[tuple[int, CFDCheck]]] = {}
    for index, check in enumerate(checks):
        if check.lhs_positions is not None:
            groups.setdefault(check.lhs_positions, []).append((index, check))
    return tuple(CFDGroup(positions, tuple(members)) for positions, members in groups.items())


def _lhs_null(values: Sequence[Any], positions: tuple[int, ...]) -> bool:
    for position in positions:
        if is_null(values[position]):
            return True
    return False


def _lhs_key(values: Sequence[Any], positions: tuple[int, ...]) -> tuple:
    return tuple([normalise_key(values[position]) for position in positions])


def _values_equal(left: Any, right: Any) -> bool:
    if is_null(left) or is_null(right):
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left.strip().lower() == right.strip().lower()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right
