"""Conjunctive queries over catalog relations, and the rewritability test.

Consistent query answering (CQA) asks which answers a query returns in
*every* repair of an inconsistent database. Under primary-key constraints a
repair picks exactly one tuple from each group of key-equal tuples, so the
certain answers are the intersection of the query results over an
exponential space of repairs. For a well-known class of self-join-free
conjunctive queries that intersection is first-order rewritable and runs in
logspace over the dirty tables directly (Fuxman & Miller's ``Cforest``;
Koutris & Wijsen, "Consistent Query Answering for Primary Keys in
Logspace"; Koutris, Ouyang & Wijsen for rooted tree queries).

This module holds the query model and the *classifier*: the compact text
form (``q(Name) :- product(sku=S, name=Name), depots(origin_depot=S)``),
key derivation from the exact CFDs learned by :mod:`repro.quality`, and
:func:`classify`, which decides per query whether the rewriting of
:mod:`repro.cqa.rewrite` applies or whether :mod:`repro.cqa.enumerate`
must fall back to bounded repair enumeration.

The accepted class is a key-join forest: the query must be self-join-free,
and every existential variable shared between atoms must have a unique
*hub* atom that owns it — the only keyed atom holding it at a non-key
position, or else a consistent (unkeyed) atom, or, when the variable only
ever appears at key positions, the first atom containing it. Every other
atom containing the variable becomes a child of the hub and, if keyed, may
hold it at key positions only. Each atom may acquire at most one parent
this way and the parent relation must be acyclic. Head variables are
treated as constants and never create edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.quality.cfd import CFD, WILDCARD

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
]


class QueryParseError(ValueError):
    """Raised for malformed query text or an ill-formed query model."""


@dataclass(frozen=True, slots=True)
class Var:
    """A query variable (written with a leading uppercase letter)."""

    name: str

    def __str__(self) -> str:
        return self.name


def _format_term(term: Any) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, str):
        return f'"{term}"'
    if term is None:
        return "null"
    if isinstance(term, bool):
        return "true" if term else "false"
    return str(term)


@dataclass(frozen=True)
class QueryAtom:
    """One body atom: a relation with attribute-to-term bindings.

    Terms are :class:`Var` instances or plain constants (str, number, bool,
    ``None``). Attributes the atom does not mention are unconstrained.
    """

    relation: str
    bindings: tuple[tuple[str, Any], ...]

    def __init__(
        self,
        relation: str,
        bindings: Mapping[str, Any] | Iterable[tuple[str, Any]] = (),
    ):
        pairs = tuple(bindings.items()) if isinstance(bindings, Mapping) else tuple(bindings)
        seen: set[str] = set()
        for attribute, _term in pairs:
            if attribute in seen:
                raise QueryParseError(
                    f"atom over {relation!r} binds attribute {attribute!r} twice"
                )
            seen.add(attribute)
        if not pairs:
            raise QueryParseError(f"atom over {relation!r} binds no attributes")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "bindings", pairs)

    @property
    def attributes(self) -> tuple[str, ...]:
        """The mentioned attribute names, in binding order."""
        return tuple(attribute for attribute, _ in self.bindings)

    def term(self, attribute: str) -> Any:
        """The term bound to ``attribute`` (raises ``KeyError`` if absent)."""
        for name, term in self.bindings:
            if name == attribute:
                return term
        raise KeyError(attribute)

    def variables(self) -> list[str]:
        """Distinct variable names, in first-occurrence order."""
        ordered: list[str] = []
        for _attribute, term in self.bindings:
            if isinstance(term, Var) and term.name not in ordered:
                ordered.append(term.name)
        return ordered

    def attributes_of(self, name: str) -> tuple[str, ...]:
        """The attributes that bind the variable ``name`` in this atom."""
        return tuple(
            attribute
            for attribute, term in self.bindings
            if isinstance(term, Var) and term.name == name
        )

    def __str__(self) -> str:
        inner = ", ".join(f"{a}={_format_term(t)}" for a, t in self.bindings)
        return f"{self.relation}({inner})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: head variables over a tuple of body atoms."""

    head: tuple[str, ...]
    atoms: tuple[QueryAtom, ...]
    name: str = "q"

    def __init__(
        self,
        head: Iterable[str | Var],
        atoms: Iterable[QueryAtom],
        name: str = "q",
    ):
        head_names = tuple(h.name if isinstance(h, Var) else str(h) for h in head)
        body = tuple(atoms)
        if len(set(head_names)) != len(head_names):
            raise QueryParseError("head variables must be distinct")
        if not body:
            raise QueryParseError("a query needs at least one body atom")
        body_vars = {v for atom in body for v in atom.variables()}
        missing = [h for h in head_names if h not in body_vars]
        if missing:
            raise QueryParseError(f"head variables {missing} do not occur in the body")
        object.__setattr__(self, "head", head_names)
        object.__setattr__(self, "atoms", body)
        object.__setattr__(self, "name", name)

    @property
    def is_boolean(self) -> bool:
        """True for queries with an empty head (yes/no questions)."""
        return not self.head

    def relations(self) -> tuple[str, ...]:
        """Relation names in atom order (duplicates kept for self-joins)."""
        return tuple(atom.relation for atom in self.atoms)

    def variables(self) -> list[str]:
        """Distinct variable names across the body, in occurrence order."""
        ordered: list[str] = []
        for atom in self.atoms:
            for v in atom.variables():
                if v not in ordered:
                    ordered.append(v)
        return ordered

    def __str__(self) -> str:
        head = ", ".join(self.head)
        body = ", ".join(str(atom) for atom in self.atoms)
        return f"{self.name}({head}) :- {body}"


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(
    r"""[ \t\r\n]*(?:
          (?P<entails>:-)
        | (?P<lparen>\()
        | (?P<rparen>\))
        | (?P<comma>,)
        | (?P<eq>=)
        | (?P<dot>\.)
        | (?P<string>"[^"]*"|'[^']*')
        | (?P<number>-?\d+(?:\.\d+)?)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)

_NULL_WORDS = ("null", "none")
_BOOL_WORDS = {"true": True, "false": False}


def _tokenise(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise QueryParseError(f"cannot parse query at: {remainder[:30]!r}")
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
        position = match.end()
    return tokens


def _term_from_token(kind: str, value: str) -> Any:
    if kind == "string":
        return value[1:-1]
    if kind == "number":
        return float(value) if "." in value else int(value)
    if kind == "ident":
        if value == "_":
            raise QueryParseError(
                "anonymous variables are not supported; omit the attribute instead"
            )
        if value[0].isupper() or value.startswith("_"):
            return Var(value)
        if value in _NULL_WORDS:
            return None
        if value in _BOOL_WORDS:
            return _BOOL_WORDS[value]
        return value
    raise QueryParseError(f"unexpected token {value!r} where a term was expected")


class _Cursor:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.index = 0

    @property
    def done(self) -> bool:
        return self.index >= len(self.tokens)

    def peek(self) -> tuple[str, str] | None:
        return None if self.done else self.tokens[self.index]

    def take(self, kind: str, what: str) -> str:
        if self.done:
            raise QueryParseError(f"query ends where {what} was expected")
        actual_kind, value = self.tokens[self.index]
        if actual_kind != kind:
            raise QueryParseError(f"expected {what}, found {value!r}")
        self.index += 1
        return value


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse the compact text form of a conjunctive query.

    ``q(Name, Price) :- product(sku="SKU-1", name=Name, price=Price)``.
    Capitalised identifiers are variables; quoted text, numbers, ``true``/
    ``false`` and ``null`` are constants; a bare lowercase word is a string
    constant. A trailing ``.`` is allowed.
    """
    cursor = _Cursor(_tokenise(text))
    name = cursor.take("ident", "a query name")
    cursor.take("lparen", "'('")
    head: list[Var] = []
    while cursor.peek() and cursor.peek()[0] != "rparen":
        if head:
            cursor.take("comma", "','")
        term = _term_from_token("ident", cursor.take("ident", "a head variable"))
        if not isinstance(term, Var):
            raise QueryParseError("head terms must be variables")
        head.append(term)
    cursor.take("rparen", "')'")
    cursor.take("entails", "':-'")
    atoms: list[QueryAtom] = []
    while True:
        relation = cursor.take("ident", "a relation name")
        cursor.take("lparen", "'('")
        bindings: list[tuple[str, Any]] = []
        while cursor.peek() and cursor.peek()[0] != "rparen":
            if bindings:
                cursor.take("comma", "','")
            attribute = cursor.take("ident", "an attribute name")
            cursor.take("eq", "'='")
            token = cursor.peek()
            if token is None or token[0] not in ("string", "number", "ident"):
                raise QueryParseError(f"expected a term for attribute {attribute!r}")
            cursor.index += 1
            bindings.append((attribute, _term_from_token(*token)))
        cursor.take("rparen", "')'")
        atoms.append(QueryAtom(relation, bindings))
        token = cursor.peek()
        if token is None:
            break
        if token[0] == "comma":
            cursor.index += 1
            continue
        if token[0] == "dot":
            cursor.index += 1
            if not cursor.done:
                raise QueryParseError("trailing tokens after final '.'")
            break
        raise QueryParseError(f"unexpected token {token[1]!r} after an atom")
    return ConjunctiveQuery(head, atoms, name=name)


# -- keys from learned CFDs ----------------------------------------------------


def _closure(start: Iterable[str], fds: Sequence[tuple[frozenset[str], str]]) -> set[str]:
    closed = set(start)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if rhs not in closed and lhs <= closed:
                closed.add(rhs)
                changed = True
    return closed


def keys_from_cfds(
    cfds: Iterable[CFD],
    schemas: Mapping[str, Sequence[str]],
    *,
    exclude: Sequence[str] = ("_row_id",),
) -> dict[str, tuple[str, ...]]:
    """Derive a primary key per relation from exact variable CFDs.

    Only variable CFDs with confidence 1.0 and an all-wildcard pattern are
    genuine functional dependencies over the whole relation; constant and
    approximate CFDs restrict or hedge and cannot witness a key. The key is
    the attribute-closure minimisation of the full schema (bookkeeping
    columns in ``exclude`` are ignored); relations whose dependencies do
    not determine every attribute from a proper subset get no key and are
    treated as consistent.
    """
    by_relation: dict[str, list[tuple[frozenset[str], str]]] = {}
    for cfd in cfds:
        if cfd.relation not in schemas or not cfd.is_variable or cfd.confidence < 1.0:
            continue
        if any(pattern != WILDCARD for _attribute, pattern in cfd.lhs_pattern):
            continue
        by_relation.setdefault(cfd.relation, []).append((frozenset(cfd.lhs), cfd.rhs))
    keys: dict[str, tuple[str, ...]] = {}
    for relation, fds in by_relation.items():
        attributes = [a for a in schemas[relation] if a not in exclude]
        if not attributes:
            continue
        target = set(attributes)
        candidate = list(attributes)
        for attribute in list(candidate):
            trimmed = [a for a in candidate if a != attribute]
            if trimmed and _closure(trimmed, fds) >= target:
                candidate = trimmed
        if len(candidate) < len(attributes):
            keys[relation] = tuple(candidate)
    return keys


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class PlanNode:
    """One atom of a rewritable query, placed in the key-join forest."""

    index: int
    relation: str
    keyed: bool
    key_attrs: tuple[str, ...]
    parent: int | None
    children: tuple[int, ...]
    owned_vars: tuple[str, ...]


@dataclass(frozen=True)
class RewritePlan:
    """The key-join forest of a rewritable query, parents before children."""

    query: ConjunctiveQuery
    nodes: tuple[PlanNode, ...]
    #: Every existential variable's owning atom index (shared and local).
    owners: tuple[tuple[str, int], ...]

    def node(self, index: int) -> PlanNode:
        """The plan node for atom ``index``."""
        for node in self.nodes:
            if node.index == index:
                return node
        raise KeyError(index)

    @property
    def roots(self) -> tuple[PlanNode, ...]:
        """The parentless nodes, one per tree of the forest."""
        return tuple(node for node in self.nodes if node.parent is None)


@dataclass(frozen=True)
class Classification:
    """Whether the certain-answer rewriting applies, and the plan if so."""

    rewritable: bool
    reason: str
    plan: RewritePlan | None = None


def classify(
    query: ConjunctiveQuery, keys: Mapping[str, Sequence[str]]
) -> Classification:
    """Decide whether ``query`` is in the rewritable key-join forest class.

    ``keys`` maps relation names to primary-key attribute tuples; relations
    without an entry are taken to be consistent. A negative answer carries
    the reason and routes the query to :mod:`repro.cqa.enumerate`.
    """
    if query.is_boolean:
        return Classification(
            False, "boolean queries are answered by repair enumeration"
        )
    relations = query.relations()
    if len(set(relations)) != len(relations):
        return Classification(
            False, "the rewriting requires self-join-free queries"
        )
    key_map = {r: tuple(k) for r, k in dict(keys).items() if k}
    head = set(query.head)
    count = len(query.atoms)
    keyed = [atom.relation in key_map for atom in query.atoms]
    key_attrs = [key_map.get(atom.relation, ()) for atom in query.atoms]

    occurrences: dict[str, list[int]] = {}
    value_occurrences: dict[str, list[int]] = {}
    for i, atom in enumerate(query.atoms):
        for v in atom.variables():
            if v in head:
                continue
            occurrences.setdefault(v, []).append(i)
            if not keyed[i] or any(
                a not in key_attrs[i] for a in atom.attributes_of(v)
            ):
                value_occurrences.setdefault(v, []).append(i)

    parent: dict[int, int] = {}
    owner: dict[str, int] = {}
    for v, atoms_of_v in occurrences.items():
        value_occs = value_occurrences.get(v, [])
        if len(atoms_of_v) < 2:
            owner[v] = atoms_of_v[0]
            continue
        keyed_value = [i for i in value_occs if keyed[i]]
        if len(keyed_value) > 1:
            first, second = (query.atoms[i].relation for i in keyed_value[:2])
            return Classification(
                False,
                f"variable {v!r} joins non-key positions of two keyed atoms"
                f" ({first!r} and {second!r})",
            )
        if keyed_value:
            hub = keyed_value[0]
        elif value_occs:
            hub = value_occs[0]
        else:
            hub = atoms_of_v[0]
        owner[v] = hub
        for i in atoms_of_v:
            if i == hub:
                continue
            existing = parent.get(i)
            if existing is not None and existing != hub:
                return Classification(
                    False,
                    f"atom {query.atoms[i].relation!r} would need two parents"
                    f" ({query.atoms[existing].relation!r} and"
                    f" {query.atoms[hub].relation!r})",
                )
            parent[i] = hub

    children: dict[int, list[int]] = {i: [] for i in range(count)}
    for child, hub in parent.items():
        children[hub].append(child)
    order: list[int] = []
    queue = [i for i in range(count) if i not in parent]
    while queue:
        i = queue.pop(0)
        order.append(i)
        queue.extend(sorted(children[i]))
    if len(order) != count:
        return Classification(False, "the key-join structure is cyclic")

    owned: dict[int, list[str]] = {i: [] for i in range(count)}
    for v, hub in owner.items():
        if len(occurrences.get(v, [])) > 1:
            owned[hub].append(v)
    nodes = tuple(
        PlanNode(
            index=i,
            relation=query.atoms[i].relation,
            keyed=keyed[i],
            key_attrs=key_attrs[i],
            parent=parent.get(i),
            children=tuple(sorted(children[i])),
            owned_vars=tuple(sorted(owned[i])),
        )
        for i in order
    )
    plan = RewritePlan(query=query, nodes=nodes, owners=tuple(sorted(owner.items())))
    return Classification(True, "key-join forest", plan)
