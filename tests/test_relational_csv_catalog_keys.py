"""Unit tests for CSV I/O, the table catalog and key normalisation."""

from __future__ import annotations

import pytest

from repro.relational import (
    Catalog,
    CsvFormatError,
    TableAlreadyExistsError,
    TableNotFoundError,
    normalise_key,
    normalise_key_tuple,
    read_csv,
    read_csv_text,
    write_csv,
    write_csv_text,
)


class TestCsvIo:
    def test_round_trip_text(self, person_table):
        text = write_csv_text(person_table)
        parsed = read_csv_text(text, name="person")
        assert parsed.column("name") == person_table.column("name")
        assert parsed[3]["age"] is None

    def test_round_trip_file(self, tmp_path, person_table):
        path = tmp_path / "people.csv"
        write_csv(person_table, path)
        loaded = read_csv(path)
        assert loaded.name == "people"
        assert len(loaded) == 4

    def test_empty_input_raises(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("", name="empty")

    def test_ragged_row_raises(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("a,b\n1\n", name="bad")

    def test_duplicate_header_raises(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("a,a\n1,2\n", name="bad")

    def test_explicit_schema_must_match_header(self, person_schema):
        with pytest.raises(CsvFormatError):
            read_csv_text("x,y,z\n1,2,3\n", name="person", schema=person_schema)


class TestCatalog:
    def test_register_and_get(self, person_table):
        catalog = Catalog()
        catalog.register(person_table)
        assert catalog.get("person") is person_table
        assert "person" in catalog
        assert catalog.total_rows() == 4

    def test_duplicate_registration_raises(self, person_table):
        catalog = Catalog()
        catalog.register(person_table)
        with pytest.raises(TableAlreadyExistsError):
            catalog.register(person_table)
        catalog.replace(person_table)

    def test_missing_table_raises(self):
        with pytest.raises(TableNotFoundError):
            Catalog().get("nope")

    def test_register_under_alias(self, person_table):
        catalog = Catalog()
        catalog.register(person_table, name="people")
        assert catalog.get("people").name == "people"

    def test_flush_and_reload(self, tmp_path, person_table):
        catalog = Catalog(tmp_path)
        catalog.register(person_table)
        written = catalog.flush()
        assert len(written) == 1
        fresh = Catalog(tmp_path)
        assert fresh.load_directory() == ["person"]
        assert len(fresh.get("person")) == 4


class TestKeys:
    def test_strings_lose_case_and_whitespace(self):
        assert normalise_key("M1  1AA") == "m11aa"
        assert normalise_key(" Oak Street ") == "oakstreet"

    def test_integral_floats_become_ints(self):
        assert normalise_key(325000.0) == 325000

    def test_null_maps_to_none(self):
        assert normalise_key(None) is None
        assert normalise_key(float("nan")) is None

    def test_tuple_helper(self):
        assert normalise_key_tuple(["M1 1AA", 3.0]) == ("m11aa", 3)
