"""Relation schemas: named, typed attribute lists.

A :class:`Schema` describes the shape of a :class:`~repro.relational.table.Table`
and is also the unit exchanged between the matching and mapping components
(the knowledge base stores source and target schemas as metadata facts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.relational.errors import DuplicateAttributeError, SchemaError, UnknownAttributeError
from repro.relational.types import DataType

__all__ = ["Attribute", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """A single named, typed attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name; unique within its schema.
    dtype:
        Declared :class:`DataType`. ``ANY`` means "not yet known".
    nullable:
        Whether NULL values are admissible. Wrangling sources are almost
        always nullable; target schemas may declare required attributes.
    description:
        Optional human-readable documentation carried into the knowledge base.
    """

    name: str
    dtype: DataType = DataType.ANY
    nullable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.dtype, DataType):
            object.__setattr__(self, "dtype", DataType.from_name(str(self.dtype)))

    def with_name(self, name: str) -> "Attribute":
        """Return a copy of this attribute under a different name."""
        return Attribute(name=name, dtype=self.dtype, nullable=self.nullable,
                         description=self.description)

    def with_type(self, dtype: DataType) -> "Attribute":
        """Return a copy of this attribute with a different declared type."""
        return Attribute(name=self.name, dtype=dtype, nullable=self.nullable,
                         description=self.description)

    def __str__(self) -> str:
        return f"{self.name}:{self.dtype.value}"


class Schema:
    """An ordered collection of uniquely named attributes.

    Schemas are immutable; transformation helpers return new instances.
    """

    __slots__ = ("_name", "_attributes", "_index", "_key")

    def __init__(self, name: str, attributes: Sequence[Attribute | str],
                 key: Sequence[str] = ()):
        if not name:
            raise SchemaError("schema name must be a non-empty string")
        normalised: list[Attribute] = []
        for attribute in attributes:
            if isinstance(attribute, str):
                normalised.append(Attribute(attribute))
            elif isinstance(attribute, Attribute):
                normalised.append(attribute)
            else:
                raise SchemaError(
                    f"attributes must be Attribute or str, got {type(attribute).__name__}")
        names = [a.name for a in normalised]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise DuplicateAttributeError(
                f"schema {name!r} declares duplicate attributes: {sorted(duplicates)}")
        self._name = name
        self._attributes = tuple(normalised)
        self._index = {a.name: i for i, a in enumerate(self._attributes)}
        key_names = tuple(key)
        for key_name in key_names:
            if key_name not in self._index:
                raise UnknownAttributeError(key_name, tuple(self._index))
        self._key = key_names

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        """Name of the relation this schema describes."""
        return self._name

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The ordered attributes."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The ordered attribute names."""
        return tuple(a.name for a in self._attributes)

    @property
    def key(self) -> tuple[str, ...]:
        """Declared key attributes (possibly empty)."""
        return self._key

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Attribute:
        return self.attribute(name)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``."""
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise UnknownAttributeError(name, self.attribute_names) from None

    def position(self, name: str) -> int:
        """Return the ordinal position of attribute ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(name, self.attribute_names) from None

    def dtype(self, name: str) -> DataType:
        """Return the declared type of attribute ``name``."""
        return self.attribute(name).dtype

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (self._name == other._name and self._attributes == other._attributes
                and self._key == other._key)

    def __hash__(self) -> int:
        return hash((self._name, self._attributes, self._key))

    def __repr__(self) -> str:
        attrs = ", ".join(str(a) for a in self._attributes)
        return f"Schema({self._name}: {attrs})"

    # -- transformation helpers ---------------------------------------------

    def rename(self, name: str) -> "Schema":
        """Return a copy of this schema with a different relation name."""
        return Schema(name, self._attributes, self._key)

    def rename_attributes(self, mapping: Mapping[str, str]) -> "Schema":
        """Return a schema with attributes renamed per ``mapping``."""
        for old in mapping:
            if old not in self._index:
                raise UnknownAttributeError(old, self.attribute_names)
        renamed = [a.with_name(mapping.get(a.name, a.name)) for a in self._attributes]
        new_key = tuple(mapping.get(k, k) for k in self._key)
        return Schema(self._name, renamed, new_key)

    def project(self, names: Sequence[str], relation_name: str | None = None) -> "Schema":
        """Return a schema containing only ``names`` (in the given order)."""
        attrs = [self.attribute(n) for n in names]
        key = tuple(k for k in self._key if k in names)
        return Schema(relation_name or self._name, attrs, key)

    def add(self, attribute: Attribute) -> "Schema":
        """Return a schema with ``attribute`` appended."""
        return Schema(self._name, (*self._attributes, attribute), self._key)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dictionary (used by the knowledge base)."""
        return {
            "name": self._name,
            "attributes": [
                {
                    "name": a.name,
                    "dtype": a.dtype.value,
                    "nullable": a.nullable,
                    "description": a.description,
                }
                for a in self._attributes
            ],
            "key": list(self._key),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Schema":
        """Inverse of :meth:`to_dict`."""
        attributes = [
            Attribute(
                name=item["name"],
                dtype=DataType.from_name(item.get("dtype", "any")),
                nullable=item.get("nullable", True),
                description=item.get("description", ""),
            )
            for item in payload["attributes"]
        ]
        return cls(payload["name"], attributes, tuple(payload.get("key", ())))
