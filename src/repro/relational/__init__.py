"""Relational substrate: schemas, tables, typed values, keys, CSV I/O and a catalog.

This package is the storage layer of the reproduction. It plays the role of
the "external file systems or databases" that hold extensional data in the
VADA architecture, while the knowledge base holds metadata about them.
"""

from repro.relational.catalog import Catalog
from repro.relational.csvio import read_csv, read_csv_text, write_csv, write_csv_text
from repro.relational.errors import (
    ArityError,
    CatalogError,
    CsvFormatError,
    DuplicateAttributeError,
    RelationalError,
    SchemaError,
    TableAlreadyExistsError,
    TableNotFoundError,
    TypeCoercionError,
    UnknownAttributeError,
)
from repro.relational.keys import normalise_key, normalise_key_tuple
from repro.relational.schema import Attribute, Schema
from repro.relational.table import Row, Table
from repro.relational.types import NULL, DataType, coerce_value, infer_type, is_null

__all__ = [
    "Attribute",
    "Schema",
    "Row",
    "Table",
    "Catalog",
    "DataType",
    "NULL",
    "is_null",
    "coerce_value",
    "infer_type",
    "normalise_key",
    "normalise_key_tuple",
    "read_csv",
    "write_csv",
    "read_csv_text",
    "write_csv_text",
    "RelationalError",
    "SchemaError",
    "TypeCoercionError",
    "UnknownAttributeError",
    "DuplicateAttributeError",
    "ArityError",
    "CatalogError",
    "TableNotFoundError",
    "TableAlreadyExistsError",
    "CsvFormatError",
]
