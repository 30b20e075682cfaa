"""Unit tests for the real-estate scenario generator and the manual-ETL baseline."""

from __future__ import annotations

import pytest

from repro.baselines import ManualEtlConfig, ManualEtlPipeline, default_real_estate_etl
from repro.quality import build_stats, functional_dependency_confidence
from repro.relational.types import is_null
from repro.scenarios import ScenarioConfig, generate_scenario, target_schema


class TestScenarioGeneration:
    def test_determinism(self):
        left = generate_scenario(ScenarioConfig(properties=60, postcodes=20, seed=3))
        right = generate_scenario(ScenarioConfig(properties=60, postcodes=20, seed=3))
        assert left.rightmove.tuples() == right.rightmove.tuples()
        assert left.ground_truth.tuples() == right.ground_truth.tuples()

    def test_different_seeds_differ(self):
        left = generate_scenario(ScenarioConfig(properties=60, postcodes=20, seed=3))
        right = generate_scenario(ScenarioConfig(properties=60, postcodes=20, seed=4))
        assert left.rightmove.tuples() != right.rightmove.tuples()

    def test_schemas_match_figure_2(self, small_scenario):
        assert small_scenario.target.attribute_names == (
            "type", "description", "street", "postcode", "bedrooms", "price", "crimerank")
        assert small_scenario.rightmove.schema.attribute_names == (
            "price", "street", "postcode", "bedrooms", "type", "description")
        assert small_scenario.onthemarket.schema.attribute_names == (
            "asking_price", "address_street", "post_code", "beds", "property_type", "summary")
        assert small_scenario.deprivation.schema.attribute_names == ("postcode", "crime")
        assert small_scenario.address_reference.schema.attribute_names == (
            "street", "city", "postcode")

    def test_coverage_fractions(self, small_scenario):
        config = small_scenario.config
        total = config.properties
        assert len(small_scenario.ground_truth) == total
        assert 0.5 * config.rightmove_coverage <= len(small_scenario.rightmove) / total <= 1.0
        assert 0.4 * config.onthemarket_coverage <= len(small_scenario.onthemarket) / total <= 1.0

    def test_postcode_determines_street_in_reference(self, small_scenario):
        confidence = functional_dependency_confidence(
            small_scenario.address_reference, ["postcode"], "street")
        assert confidence == 1.0

    def test_ground_truth_crimerank_comes_from_deprivation(self, small_scenario):
        crime = {row["postcode"]: row["crime"] for row in small_scenario.deprivation.rows()}
        for row in small_scenario.ground_truth.rows():
            if row["crimerank"] is not None:
                assert crime[row["postcode"]] == row["crimerank"]

    def test_sources_are_noisy_but_related_to_truth(self, small_scenario):
        accuracy = build_stats(
            small_scenario.rightmove, reference=small_scenario.ground_truth,
            reference_key=["postcode", "price"]).finalise().accuracy
        assert 0.5 < accuracy < 1.0

    def test_noise_scaling(self):
        config = ScenarioConfig(properties=50, postcodes=20, seed=1).with_noise_scale(2.0)
        assert config.rightmove_noise.bedroom_area_rate == pytest.approx(0.30)
        zero = ScenarioConfig(properties=50, postcodes=20, seed=1).with_noise_scale(0.0)
        scenario = generate_scenario(zero)
        # with zero noise every listed price appears verbatim in the ground truth
        truth_prices = set(scenario.ground_truth.column("price"))
        assert set(v for v in scenario.rightmove.column("price") if v is not None) <= truth_prices

    def test_web_pages_round_trip_row_counts(self, tiny_scenario):
        pages = tiny_scenario.web_pages()
        assert set(pages) == {"rightmove", "onthemarket"}
        assert sum(len(p) for p in pages["rightmove"]) == len(tiny_scenario.rightmove)

    def test_target_schema_helper(self):
        assert target_schema("t").name == "t"


class TestManualEtlBaseline:
    def test_manual_actions_counted(self):
        pipeline = default_real_estate_etl()
        # 6 + 6 + 2 attribute mappings, 2 union sources, 1 join (x2), 7 target attributes
        assert pipeline.manual_actions() == 14 + 2 + 2 + 7

    def test_runs_over_scenario(self, small_scenario):
        pipeline = default_real_estate_etl()
        sources = {table.name: table for table in small_scenario.sources()}
        result = pipeline.run(sources, small_scenario.target)
        assert len(result) == len(small_scenario.rightmove) + len(small_scenario.onthemarket)
        assert result.schema.attribute_names == small_scenario.target.attribute_names
        # the deprivation join fills crimerank for most rows with a clean postcode
        filled = sum(1 for v in result.column("crimerank") if not is_null(v))
        assert filled > 0.5 * len(result)

    def test_missing_sources_are_skipped(self, small_scenario):
        pipeline = default_real_estate_etl()
        result = pipeline.run({"rightmove": small_scenario.rightmove}, small_scenario.target)
        assert len(result) == len(small_scenario.rightmove)
        assert all(is_null(v) for v in result.column("crimerank"))

    def test_empty_configuration_gives_empty_result(self, small_scenario):
        pipeline = ManualEtlPipeline(ManualEtlConfig(
            attribute_mappings={}, union_sources=(), target_attributes=()))
        result = pipeline.run({}, small_scenario.target)
        assert len(result) == 0

    def test_quality_comparable_to_sources(self, small_scenario):
        pipeline = default_real_estate_etl()
        sources = {table.name: table for table in small_scenario.sources()}
        result = pipeline.run(sources, small_scenario.target)
        accuracy = build_stats(
            result, reference=small_scenario.ground_truth,
            reference_key=["postcode", "price"]).finalise().accuracy
        assert accuracy > 0.5
