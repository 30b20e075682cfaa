"""Unit tests for repro.relational.schema and repro.relational.table."""

from __future__ import annotations

import pytest

from repro.relational import (
    ArityError,
    Attribute,
    DataType,
    DuplicateAttributeError,
    Schema,
    SchemaError,
    Table,
    UnknownAttributeError,
)


class TestAttribute:
    def test_string_dtype_is_parsed(self):
        attribute = Attribute("price", "float")
        assert attribute.dtype is DataType.FLOAT

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_with_name_and_type(self):
        attribute = Attribute("price", DataType.FLOAT, description="asking price")
        renamed = attribute.with_name("cost")
        assert renamed.name == "cost"
        assert renamed.dtype is DataType.FLOAT
        assert renamed.description == "asking price"
        retyped = attribute.with_type(DataType.INTEGER)
        assert retyped.dtype is DataType.INTEGER
        assert retyped.name == "price"


class TestSchema:
    def test_string_attributes_are_promoted(self):
        schema = Schema("t", ["a", "b"])
        assert schema.attribute("a").dtype is DataType.ANY

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateAttributeError):
            Schema("t", ["a", "a"])

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownAttributeError):
            Schema("t", ["a"], key=["b"])

    def test_position_and_contains(self, person_schema):
        assert person_schema.position("age") == 1
        assert "age" in person_schema
        assert "salary" not in person_schema

    def test_unknown_attribute_raises(self, person_schema):
        with pytest.raises(UnknownAttributeError):
            person_schema.attribute("salary")

    def test_project_preserves_order(self, person_schema):
        projected = person_schema.project(["city", "name"])
        assert projected.attribute_names == ("city", "name")

    def test_rename_attributes(self, person_schema):
        renamed = person_schema.rename_attributes({"name": "full_name"})
        assert "full_name" in renamed
        assert "name" not in renamed

    def test_rename_unknown_attribute_raises(self, person_schema):
        with pytest.raises(UnknownAttributeError):
            person_schema.rename_attributes({"salary": "pay"})

    def test_round_trip_dict(self, person_schema):
        assert Schema.from_dict(person_schema.to_dict()) == person_schema

    def test_equality_and_hash(self, person_schema):
        clone = Schema.from_dict(person_schema.to_dict())
        assert clone == person_schema
        assert hash(clone) == hash(person_schema)


class TestTable:
    def test_values_are_coerced_to_schema_types(self, person_schema):
        table = Table(person_schema, [("eve", "55", "Bolton")])
        assert table[0]["age"] == 55

    def test_arity_mismatch_raises(self, person_schema):
        with pytest.raises(ArityError):
            Table(person_schema, [("eve", 55)])

    def test_from_dicts_fills_missing_with_null(self, person_schema):
        table = Table.from_dicts(person_schema, [{"name": "eve"}])
        assert table[0]["age"] is None

    def test_from_dicts_strict_rejects_unknown(self, person_schema):
        with pytest.raises(UnknownAttributeError):
            Table.from_dicts(person_schema, [{"name": "eve", "salary": 1}], strict=True)

    def test_infer_schema_from_records(self):
        table = Table.infer("t", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.schema.dtype("a") is DataType.INTEGER
        assert table.schema.dtype("b") is DataType.STRING

    def test_infer_requires_records(self):
        with pytest.raises(SchemaError):
            Table.infer("t", [])

    def test_column_and_distinct(self, person_table):
        assert person_table.column("city") == ["Manchester", "Salford", "Manchester", "Leeds"]
        assert person_table.distinct_values("city") == {"Manchester", "Salford", "Leeds"}

    def test_null_count(self, person_table):
        assert person_table.null_count("age") == 1
        assert person_table.null_count("name") == 0

    def test_append_row_returns_new_table(self, person_table):
        grown = person_table.append_row({"name": "erin", "age": 22, "city": "York"})
        assert len(grown) == len(person_table) + 1
        assert len(person_table) == 4

    def test_extend(self, person_table):
        grown = person_table.extend([("frank", 31, "Hull")])
        assert len(grown) == 5

    def test_extends_holds_only_for_appends(self, person_table):
        grown = person_table.extend([("frank", 31, "Hull")])
        assert grown.extends(person_table)
        assert grown.extend([]).extends(person_table)
        assert person_table.extends(person_table)
        assert not person_table.extends(grown)
        # Equal rows are not enough: the prefix must be the same row tuples.
        assert not person_table.replace_rows(person_table.tuples()).extends(person_table)
        assert not grown.head(3).extend(grown.tuples()[3:]).extends(person_table)

    def test_map_column(self, person_table):
        upper = person_table.map_column("city", lambda c: c.upper() if c else c)
        assert upper[0]["city"] == "MANCHESTER"

    def test_rows_as_mapping(self, person_table):
        row = person_table[1]
        assert dict(row)["name"] == "bob"
        assert row.get("missing", "default") == "default"
        assert "city" in row

    def test_head_and_rename(self, person_table):
        assert len(person_table.head(2)) == 2
        assert person_table.rename("people").name == "people"

    def test_equality(self, person_schema):
        rows = [("a", 1, "X")]
        assert Table(person_schema, rows) == Table(person_schema, rows)

    def test_pretty_renders_header_and_rows(self, person_table):
        text = person_table.pretty(limit=2)
        assert "name" in text
        assert "alice" in text
        assert "more rows" in text
