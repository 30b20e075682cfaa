"""In-memory relational tables.

A :class:`Table` couples a :class:`~repro.relational.schema.Schema` with an
ordered list of rows. Rows are plain tuples aligned with the schema order;
:class:`Row` is a light mapping view used when callers want name-based access.

Tables are *logically immutable*: the wrangling components never mutate a
table in place, they derive new tables (this is what makes the orchestration
trace reproducible). Builder-style helpers (:meth:`Table.append_row`) return
new tables as well.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.relational.errors import ArityError, SchemaError, UnknownAttributeError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import coerce_value, infer_common_type, infer_type, is_null

__all__ = ["ROW_KEY_ATTRIBUTE", "Row", "Table"]

#: Name of the bookkeeping column carrying a stable per-row identity
#: (``source:index``). Mapping execution adds it to every materialised
#: result; provenance, fusion and feedback all key row-level state on it so
#: their annotations survive derivations that reorder or drop rows.
ROW_KEY_ATTRIBUTE = "_row_id"


class Row(Mapping[str, Any]):
    """A read-only, name-addressable view over one tuple of a table."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: tuple[Any, ...]):
        if len(values) != schema.arity:
            raise ArityError(
                f"row has {len(values)} values but schema {schema.name!r} has arity {schema.arity}")
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> Schema:
        """Schema the row conforms to."""
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        """The underlying value tuple (schema order)."""
        return self._values

    def __getitem__(self, name: str) -> Any:
        return self._values[self._schema.position(name)]

    def __contains__(self, name: object) -> bool:
        return name in self._schema

    def get(self, name: str, default: Any = None) -> Any:
        if name not in self._schema:
            return default
        return self[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.attribute_names)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values and self._schema == other._schema
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def to_dict(self) -> dict[str, Any]:
        """Materialise the row as a plain dict."""
        return dict(zip(self._schema.attribute_names, self._values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"Row({pairs})"


class Table:
    """A named relation: a schema plus an ordered collection of tuples."""

    __slots__ = ("_schema", "_rows")

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any]] = (), *,
                 coerce: bool = True, validate: bool = True):
        self._schema = schema
        materialised: list[tuple[Any, ...]] = []
        for raw in rows:
            values = tuple(raw)
            if validate and len(values) != schema.arity:
                raise ArityError(
                    f"row {values!r} has {len(values)} values but schema "
                    f"{schema.name!r} has arity {schema.arity}")
            if coerce:
                values = tuple(
                    coerce_value(v, a.dtype) for v, a in zip(values, schema.attributes))
            materialised.append(values)
        self._rows = materialised

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Schema, records: Iterable[Mapping[str, Any]], *,
                   strict: bool = False) -> "Table":
        """Build a table from dict records; missing attributes become NULL.

        When ``strict`` is true a record containing unknown attributes raises
        :class:`UnknownAttributeError`.
        """
        names = schema.attribute_names
        known = set(names)
        rows = []
        for record in records:
            if strict:
                for key in record:
                    if key not in known:
                        raise UnknownAttributeError(key, names)
            rows.append(tuple(record.get(name) for name in names))
        return cls(schema, rows)

    @classmethod
    def infer(cls, name: str, records: Sequence[Mapping[str, Any]]) -> "Table":
        """Build a table from records, inferring the schema from the data."""
        if not records:
            raise SchemaError("cannot infer a schema from zero records")
        names: list[str] = []
        for record in records:
            for key in record:
                if key not in names:
                    names.append(key)
        attributes = []
        for attr_name in names:
            observed = [infer_type(r.get(attr_name)) for r in records]
            attributes.append(Attribute(attr_name, infer_common_type(observed)))
        schema = Schema(name, attributes)
        return cls.from_dicts(schema, records)

    # -- accessors ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name (from the schema)."""
        return self._schema.name

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return True

    def __iter__(self) -> Iterator[Row]:
        schema = self._schema
        return (Row(schema, values) for values in self._rows)

    def __getitem__(self, index: int) -> Row:
        return Row(self._schema, self._rows[index])

    def rows(self) -> list[Row]:
        """All rows as :class:`Row` views."""
        return [Row(self._schema, values) for values in self._rows]

    def tuples(self) -> list[tuple[Any, ...]]:
        """All rows as raw value tuples (schema order)."""
        return list(self._rows)

    def column(self, name: str) -> list[Any]:
        """All values of the attribute ``name``, in row order."""
        position = self._schema.position(name)
        return [values[position] for values in self._rows]

    def distinct_values(self, name: str, *, drop_null: bool = True) -> set[Any]:
        """The set of distinct values of attribute ``name``."""
        values = self.column(name)
        if drop_null:
            return {v for v in values if not is_null(v)}
        return set(values)

    def null_count(self, name: str) -> int:
        """Number of NULL values in attribute ``name``."""
        return sum(1 for v in self.column(name) if is_null(v))

    # -- row identity ---------------------------------------------------------

    def row_key(self, index: int) -> str:
        """Stable identity of one row.

        The value of the :data:`ROW_KEY_ATTRIBUTE` bookkeeping column when
        the table carries it (materialised results do), else the positional
        index rendered as a string (only stable while rows are not
        reordered or removed).
        """
        if ROW_KEY_ATTRIBUTE in self._schema:
            position = self._schema.position(ROW_KEY_ATTRIBUTE)
            value = self._rows[index][position]
            if value is not None:
                return str(value)
        if index < 0:
            index += len(self._rows)
        return str(index)

    def row_keys(self) -> list[str]:
        """Stable identities of all rows, in row order (see :meth:`row_key`)."""
        if ROW_KEY_ATTRIBUTE in self._schema:
            position = self._schema.position(ROW_KEY_ATTRIBUTE)
            return [str(values[position]) if values[position] is not None else str(index)
                    for index, values in enumerate(self._rows)]
        return [str(index) for index in range(len(self._rows))]

    # -- derivation helpers ---------------------------------------------------

    def append_row(self, values: Sequence[Any] | Mapping[str, Any]) -> "Table":
        """Return a new table with one extra row."""
        if isinstance(values, Mapping):
            values = tuple(values.get(n) for n in self._schema.attribute_names)
        table = Table(self._schema, (), coerce=False, validate=False)
        table._rows = list(self._rows)
        coerced = tuple(
            coerce_value(v, a.dtype) for v, a in zip(tuple(values), self._schema.attributes))
        if len(coerced) != self._schema.arity:
            raise ArityError(
                f"row {values!r} has {len(coerced)} values but schema has arity "
                f"{self._schema.arity}")
        table._rows.append(coerced)
        return table

    def extend(self, rows: Iterable[Sequence[Any]]) -> "Table":
        """Return a new table with the extra ``rows`` appended."""
        table = Table(self._schema, rows)
        merged = Table(self._schema, (), coerce=False, validate=False)
        merged._rows = list(self._rows) + list(table._rows)
        return merged

    def extends(self, other: "Table") -> bool:
        """Whether this table is ``other`` with rows appended.

        :meth:`extend` keeps the earlier row tuples, so this is a pointer
        compare of ``other``'s rows against this table's prefix.
        """
        if self._schema != other._schema or len(self._rows) < len(other._rows):
            return False
        return all(mine is theirs for mine, theirs in zip(self._rows, other._rows))

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> "Table":
        """Return a table with the same schema but entirely new rows."""
        return Table(self._schema, rows)

    def rename(self, name: str) -> "Table":
        """Return the same table under a different relation name."""
        renamed = Table(self._schema.rename(name), (), coerce=False, validate=False)
        renamed._rows = list(self._rows)
        return renamed

    def map_column(self, name: str, func: Callable[[Any], Any]) -> "Table":
        """Return a table with ``func`` applied to every value of ``name``."""
        position = self._schema.position(name)
        new_rows = []
        for values in self._rows:
            mutable = list(values)
            mutable[position] = func(mutable[position])
            new_rows.append(tuple(mutable))
        return Table(self._schema, new_rows)

    def head(self, count: int) -> "Table":
        """Return the first ``count`` rows."""
        sliced = Table(self._schema, (), coerce=False, validate=False)
        sliced._rows = list(self._rows[:count])
        return sliced

    # -- equality / display -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self._schema, tuple(self._rows)))

    def __repr__(self) -> str:
        return f"Table({self._schema.name!r}, rows={len(self._rows)})"

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width text rendering of up to ``limit`` rows."""
        names = list(self._schema.attribute_names)
        sample = self._rows[:limit]
        rendered = [[("" if is_null(v) else str(v)) for v in row] for row in sample]
        widths = [len(n) for n in names]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        divider = "-+-".join("-" * w for w in widths)
        body = [" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rendered]
        footer = []
        if len(self._rows) > limit:
            footer.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join([header, divider, *body, *footer])
