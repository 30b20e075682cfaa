"""The manual-ETL baseline's exact outputs and join semantics.

The fingerprints were recorded from the pipeline's output over the shared
real-estate scenarios; any change to a value, its Python type, the row
order or the output schema changes them.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil

import pytest

import repro
from repro.baselines import ManualEtlConfig, ManualEtlPipeline, default_real_estate_etl
from repro.relational import Attribute, DataType, Schema, Table
from repro.relational.types import is_null

SOURCE_SUBSETS = {
    "all": ("rightmove", "onthemarket", "deprivation"),
    "rightmove_only": ("rightmove",),
    "without_deprivation": ("rightmove", "onthemarket"),
}

FINGERPRINTS = {
    ("small", "all"): (208, "a342aa97691a41a1540c37ac3fd1b2c5f07c1a7714fcc2c8c37f02aaf714c4e5"),
    ("small", "rightmove_only"): (
        113, "a7bb68e359a2ea0027ada5a6fbcc7a833e768e08c83bf97a24a9d00470d812a6"),
    ("small", "without_deprivation"): (
        208, "529f9d386b7ec35e2cc0e411ffe28fb8c56401f9127e7ce24d847a202d382ff5"),
    ("tiny", "all"): (120, "249c4d147681c06c0f130db33f38d4aaf571b7154e630ea35985cc60d7a6bd47"),
    ("tiny", "rightmove_only"): (
        64, "66e5230496cf669b4adff0935a7c7da03c04474dcf4e9c5324f19571ccf2865f"),
    ("tiny", "without_deprivation"): (
        120, "5fa0a972b5ca807d43d085a2ad4b154d7dc085c14484dd1be79a4db999ec17da"),
}


def fingerprint(table: Table) -> str:
    """A digest of the schema and of every cell's type and repr, in row order."""
    schema = table.schema
    payload = repr((
        schema.name,
        [(a.name, a.dtype.value, a.nullable) for a in schema.attributes],
        schema.key,
        [tuple((type(v).__name__, repr(v)) for v in row) for row in table.tuples()],
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_etl(scenario, names=SOURCE_SUBSETS["all"], *, pipeline=None):
    sources = {table.name: table for table in scenario.sources() if table.name in names}
    return (pipeline or default_real_estate_etl()).run(sources, scenario.target)


@pytest.mark.parametrize("scenario_name,subset", sorted(FINGERPRINTS))
def test_outputs_match_recorded_fingerprints(request, scenario_name, subset):
    scenario = request.getfixturevalue(f"{scenario_name}_scenario")
    result = run_etl(scenario, SOURCE_SUBSETS[subset])
    rows, digest = FINGERPRINTS[(scenario_name, subset)]
    assert len(result) == rows
    assert fingerprint(result) == digest


def test_enrichment_join_semantics():
    target = Schema("t", [
        Attribute("code", DataType.STRING),
        Attribute("name", DataType.STRING),
        Attribute("rank", DataType.INTEGER),
    ])
    listings = Table(Schema("listings", ["code", "name"]), [
        ("M1 1AA", "alpha"),
        ("m1 1aa", "beta"),
        (None, "gamma"),
        ("Z9 9ZZ", None),
        ("Q1 1QQ", "delta"),
    ])
    ranks = Table(Schema("ranks", ["code", "rank", "name"]), [
        ("M1 1AA", 1, "enriched-a"),
        ("M1 1AA", 2, "enriched-b"),
        ("Z9 9ZZ", 3, "zed"),
        (None, 4, "null-key"),
    ])
    pipeline = ManualEtlPipeline(ManualEtlConfig(
        attribute_mappings={"listings": {"code": "code", "name": "name"}},
        union_sources=("listings",),
        enrichment_joins=(("ranks", "code", "code"),),
        target_attributes=("code", "name", "rank"),
    ))
    result = pipeline.run({"listings": listings, "ranks": ranks}, target)
    assert result.tuples() == [
        # every matching enrichment row yields one output row
        ("M1 1AA", "alpha", 1),
        ("M1 1AA", "alpha", 2),
        # keys match by exact value, so case drift finds no partner
        ("m1 1aa", "beta", None),
        # a NULL key never matches, not even the enrichment's NULL key
        (None, "gamma", None),
        # the clashing enrichment attribute fills only the NULL feed cell
        ("Z9 9ZZ", "zed", 3),
        ("Q1 1QQ", "delta", None),
    ]


def test_dirty_enrichment_value_becomes_null(small_scenario):
    clean = run_etl(small_scenario)
    deprivation = small_scenario.deprivation
    dirty_rows = deprivation.tuples()
    dirty_postcode = dirty_rows[0][0]
    dirty_rows[0] = (dirty_postcode, "n/a")
    dirty = Table(deprivation.schema, dirty_rows, coerce=False)
    sources = {table.name: table for table in small_scenario.sources()}
    sources["deprivation"] = dirty
    result = default_real_estate_etl().run(sources, small_scenario.target)

    assert result.schema == clean.schema
    crimerank = result.schema.position("crimerank")
    postcode = result.schema.position("postcode")
    affected = 0
    for got, expected in zip(result.tuples(), clean.tuples(), strict=True):
        if expected[postcode] == dirty_postcode:
            affected += 1
            assert is_null(got[crimerank])
            assert got[:crimerank] == expected[:crimerank]
        else:
            assert got == expected
    assert affected > 0


def test_empty_result_has_the_projected_schema(small_scenario):
    pipeline = ManualEtlPipeline(ManualEtlConfig(
        attribute_mappings=default_real_estate_etl().config.attribute_mappings,
        union_sources=("rightmove", "onthemarket"),
        target_attributes=("postcode", "price"),
    ))
    with_sources = run_etl(small_scenario, pipeline=pipeline)
    without_sources = pipeline.run({}, small_scenario.target)
    assert len(without_sources) == 0
    assert without_sources.schema.attribute_names == ("postcode", "price")
    assert without_sources.schema == with_sources.schema


def _packages():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.ispkg:
            names.append(module.name)
    return names


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing
    assert len(set(exported)) == len(exported)
