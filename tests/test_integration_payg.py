"""End-to-end reproduction check: the pay-as-you-go demonstration (paper §3).

This is the integration test behind the Figure-3 benchmark: running the four
stages on a seeded scenario must show the paper's qualitative shape —
providing more information (data context, feedback, user context) never
makes the result worse, and the user context tailors the result to the
user's stated priorities.
"""

from __future__ import annotations

import pytest

from repro import (
    ACCURACY,
    COMPLETENESS,
    CONSISTENCY,
    UserContext,
    Wrangler,
    generate_scenario,
    ScenarioConfig,
)

#: Small tolerance: stages interact (e.g. clearing a wrong value trades
#: completeness for accuracy), so strict monotonicity per criterion is not
#: expected — but the overall score must not regress materially.
SLACK = 0.02


@pytest.fixture(scope="module")
def payg_results():
    scenario = generate_scenario(ScenarioConfig(properties=250, postcodes=50, seed=13))
    wrangler = Wrangler()
    wrangler.add_sources(scenario.sources())
    wrangler.set_target_schema(scenario.target)

    stage1 = wrangler.run("bootstrap", ground_truth=scenario.ground_truth)

    wrangler.add_reference_data(scenario.address_reference)
    wrangler.add_master_data(scenario.master)
    stage2 = wrangler.run("data_context", ground_truth=scenario.ground_truth)

    wrangler.simulate_feedback(scenario.ground_truth, budget=80, seed=1)
    stage3 = wrangler.run("feedback", ground_truth=scenario.ground_truth)

    context = UserContext()
    context.prefer(COMPLETENESS("crimerank"), ACCURACY("type"), "very strongly")
    context.prefer(CONSISTENCY(), COMPLETENESS("bedrooms"), "strongly")
    context.prefer(COMPLETENESS("street"), COMPLETENESS("postcode"), "moderately")
    wrangler.set_user_context(context)
    stage4 = wrangler.run("user_context", ground_truth=scenario.ground_truth)

    return {"wrangler": wrangler, "context": context, "scenario": scenario,
            "stages": [stage1, stage2, stage3, stage4]}


class TestPayAsYouGoShape:
    def test_every_stage_produces_a_result(self, payg_results):
        for stage in payg_results["stages"]:
            assert stage.table is not None
            assert stage.quality is not None
            assert stage.row_count > 0

    def test_overall_quality_never_regresses_through_stage_three(self, payg_results):
        stages = payg_results["stages"]
        overall = [stage.quality.overall() for stage in stages[:3]]
        assert overall[1] >= overall[0] - SLACK
        assert overall[2] >= overall[1] - SLACK

    def test_data_context_improves_coverage_or_accuracy(self, payg_results):
        stage1, stage2 = payg_results["stages"][0], payg_results["stages"][1]
        improved_relevance = stage2.quality.relevance >= stage1.quality.relevance - SLACK
        improved_accuracy = stage2.quality.accuracy >= stage1.quality.accuracy - SLACK
        assert improved_relevance and improved_accuracy
        assert (stage2.quality.relevance > stage1.quality.relevance
                or stage2.quality.accuracy > stage1.quality.accuracy)

    def test_feedback_does_not_hurt_accuracy(self, payg_results):
        stage2, stage3 = payg_results["stages"][1], payg_results["stages"][2]
        assert stage3.quality.accuracy >= stage2.quality.accuracy - SLACK

    def test_user_context_improves_the_user_weighted_score(self, payg_results):
        stage3, stage4 = payg_results["stages"][2], payg_results["stages"][3]
        weights = payg_results["context"].dimension_weights()
        assert stage4.quality.overall(weights) >= stage3.quality.overall(weights) - SLACK

    def test_later_stages_execute_additional_transducers(self, payg_results):
        wrangler = payg_results["wrangler"]
        counts = wrangler.trace.execution_counts()
        for name in ("schema_matching", "instance_matching", "cfd_learning",
                     "mapping_generation", "mapping_quality", "mapping_selection",
                     "result_materialisation", "mapping_evaluation", "criterion_weighting"):
            assert counts.get(name, 0) >= 1, f"{name} never executed"

    def test_reruns_happen_because_of_new_information(self, payg_results):
        wrangler = payg_results["wrangler"]
        reruns = wrangler.trace.reruns()
        assert reruns.get("mapping_generation", 0) >= 1
        assert reruns.get("mapping_selection", 0) >= 2

    def test_phases_are_labelled_in_the_trace(self, payg_results):
        phases = payg_results["wrangler"].trace.phase_counts()
        assert set(phases) == {"bootstrap", "data_context", "feedback", "user_context"}


class TestAgainstManualEtlBaseline:
    def test_vada_needs_fewer_manual_actions_for_comparable_quality(self, payg_results):
        from repro.baselines import default_real_estate_etl
        from repro.quality import build_stats

        scenario = payg_results["scenario"]
        pipeline = default_real_estate_etl()
        sources = {table.name: table for table in scenario.sources()}
        etl_result = pipeline.run(sources, scenario.target)
        etl_quality = build_stats(
            etl_result, reference=scenario.ground_truth, reference_key=["postcode", "price"],
            master=scenario.ground_truth, master_key=["postcode", "price"]).finalise()
        vada_bootstrap_actions = 4  # three sources + target schema
        assert vada_bootstrap_actions < pipeline.manual_actions()
        # bootstrap quality is in the same ballpark as the hand-written ETL
        bootstrap = payg_results["stages"][0]
        assert bootstrap.quality.overall() >= etl_quality.overall() - 0.15
        # and the fully-paid result is at least as good as the static pipeline
        final = payg_results["stages"][3]
        weights = payg_results["context"].dimension_weights()
        assert final.quality.overall(weights) >= etl_quality.overall(weights) - SLACK
