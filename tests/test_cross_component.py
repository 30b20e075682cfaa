"""Cross-component integration tests that tie the substrates together."""

from __future__ import annotations


from repro.datalog import parse_program, query
from repro.mapping import MappingGenerator
from repro.matching import SchemaMatcher
from repro.relational import Catalog, write_csv
from repro.scenarios import ScenarioConfig, generate_scenario
from repro.wrangler import Wrangler, build_default_registry
from repro.wrangler.result import WranglingResult


class TestMappingsAsVadalog:
    """The paper represents schema mappings in Vadalog; the rendered rules
    must be parseable by the reasoner and evaluate to the mapped tuples."""

    def test_generated_mappings_render_to_parseable_rules(self, tiny_scenario):
        matcher = SchemaMatcher()
        matches = matcher.match_many(
            [tiny_scenario.rightmove.schema, tiny_scenario.deprivation.schema],
            tiny_scenario.target)
        catalog = Catalog()
        for table in tiny_scenario.sources():
            catalog.register(table)
        candidates = MappingGenerator().generate(matches, tiny_scenario.target, catalog)
        assert candidates
        for mapping in candidates:
            text = mapping.to_vadalog(tiny_scenario.target.attribute_names)
            rules = parse_program(text)
            assert rules, f"mapping {mapping.mapping_id} rendered no rules"
            assert all(rule.head.predicate == tiny_scenario.target.name for rule in rules)

    def test_direct_mapping_rule_evaluates_over_edb(self):
        mapping_rule = 'product(T, P) :- shop(T, P, _).'
        results = query(mapping_rule, "product(T, P)",
                        {"shop": [("cable", 7.99, "cables"), ("mouse", 19.5, "peripherals")]})
        assert set(results) == {("cable", 7.99), ("mouse", 19.5)}


class TestKnowledgeBaseReasoning:
    """Datalog rules over the KB's metadata vocabulary (orchestration-style views)."""

    def test_runnable_view_over_match_facts(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        rows = wrangler.kb.query(
            "covered(T, A)",
            "covered(T, A) :- match(S, B, T, A, Sc), Sc >= 0.5.")
        covered = {attribute for _target, attribute in rows}
        assert {"price", "postcode", "street"} <= covered


class TestScenarioPersistence:
    """The catalog's CSV backing makes a wrangling session reproducible from disk."""

    def test_scenario_round_trips_through_csv(self, tmp_path, tiny_scenario):
        for table in (*tiny_scenario.sources(), tiny_scenario.address_reference):
            write_csv(table, tmp_path / f"{table.name}.csv")
        catalog = Catalog(tmp_path)
        loaded = catalog.load_directory()
        assert set(loaded) == {"rightmove", "onthemarket", "deprivation", "address"}

        wrangler = Wrangler()
        wrangler.add_sources([catalog.get("rightmove"), catalog.get("onthemarket"),
                              catalog.get("deprivation")])
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.add_reference_data(catalog.get("address"))
        outcome = wrangler.run("from_disk", ground_truth=tiny_scenario.ground_truth)
        assert outcome.row_count > 0
        assert outcome.quality.overall() > 0.5


class TestWranglerConfiguration:
    def test_disabled_components_never_execute(self, tiny_scenario):
        registry = build_default_registry()
        for name in ("duplicate_detection", "data_fusion", "data_repair"):
            registry.deregister(name)
        wrangler = Wrangler(registry=registry)
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.add_reference_data(tiny_scenario.address_reference)
        wrangler.run("all")
        counts = wrangler.trace.execution_counts()
        assert "data_fusion" not in counts
        assert "data_repair" not in counts
        assert "cfd_learning" in counts

    def test_result_summary_is_serialisable(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        outcome = wrangler.run("bootstrap", ground_truth=tiny_scenario.ground_truth)
        summary = outcome.summary()
        assert summary["phase"] == "bootstrap"
        assert summary["rows"] == outcome.row_count
        assert "quality_completeness" in summary
        assert isinstance(outcome, WranglingResult)

    def test_scenario_config_sweeps_compose(self):
        base = ScenarioConfig(properties=50, postcodes=20, seed=2)
        noisier = base.with_noise_scale(1.5)
        assert noisier.properties == base.properties
        assert noisier.rightmove_noise.bedroom_area_rate > base.rightmove_noise.bedroom_area_rate
        scenario = generate_scenario(noisier)
        assert len(scenario.ground_truth) == 50
