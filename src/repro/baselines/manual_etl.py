"""A static, manually configured ETL pipeline (the comparison baseline).

The paper positions VADA against "typical Extract-Transform-Load (ETL)
systems [12]" in which "skilled application developers are required to
configure individual components and to specify the dependencies between
them". This baseline is that alternative: every correspondence, join key
and transformation is spelled out by hand, nothing reacts to data context,
feedback or user priorities, and the pipeline runs as a fixed sequence.

The cost-effectiveness benchmark (DESIGN.md experiment E5) compares the
number of manual configuration actions and the resulting quality of this
baseline against the pay-as-you-go wrangler.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Mapping

from repro.relational.errors import TypeCoercionError
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce_value, is_null

__all__ = ["ManualEtlConfig", "ManualEtlPipeline", "default_real_estate_etl"]


@dataclass(frozen=True)
class ManualEtlConfig:
    """The hand-written configuration of the static pipeline.

    Every entry of every mapping dictionary counts as one manual
    configuration action, as does every join specification — this is the
    work a developer must do up front, before seeing any output.
    """

    #: source relation → {source attribute → target attribute}.
    attribute_mappings: Mapping[str, Mapping[str, str]]
    #: Relations to union (after renaming) into the property feed.
    union_sources: tuple[str, ...]
    #: (enrichment relation, feed join attribute, enrichment join attribute).
    enrichment_joins: tuple[tuple[str, str, str], ...] = ()
    #: Target attributes, in output order.
    target_attributes: tuple[str, ...] = ()

    def manual_actions(self) -> int:
        """The number of configuration decisions the developer had to make."""
        actions = sum(len(mapping) for mapping in self.attribute_mappings.values())
        actions += len(self.union_sources)
        actions += 2 * len(self.enrichment_joins)  # the join key on each side
        actions += len(self.target_attributes)
        return actions


class ManualEtlPipeline:
    """Runs the fixed extract-transform-load sequence."""

    def __init__(self, config: ManualEtlConfig):
        self._config = config

    @property
    def config(self) -> ManualEtlConfig:
        """The pipeline configuration."""
        return self._config

    def manual_actions(self) -> int:
        """Manual configuration actions required by this pipeline."""
        return self._config.manual_actions()

    def run(
        self, sources: Mapping[str, Table], target_schema: Schema, *, result_name: str | None = None
    ) -> Table:
        """Execute the pipeline over ``sources`` and produce the target table."""
        config = self._config
        target_attributes = list(config.target_attributes or target_schema.attribute_names)
        name = result_name or f"{target_schema.name}_etl"
        schema = target_schema.project(target_attributes, name)

        # Transform and load stage 1: rename each union source onto the
        # target vocabulary and take the bag union of the property feeds.
        feed: list[tuple] = []
        for source_name in config.union_sources:
            if source_name in sources:
                mapping = config.attribute_mappings.get(source_name, {})
                source, _ = _renamed(sources[source_name], mapping)
                feed.extend(_project_onto(source, schema))

        # Load stage 2: enrich by joining the open-government relations.
        for enrichment_name, feed_key, enrichment_key in config.enrichment_joins:
            if enrichment_name not in sources or feed_key not in schema:
                continue
            mapping = config.attribute_mappings.get(enrichment_name, {})
            enrichment, renaming = _renamed(sources[enrichment_name], mapping)
            enrichment_key = renaming.get(enrichment_key, enrichment_key)
            if enrichment_key in enrichment.schema:
                feed = _enrich(feed, schema, feed_key, enrichment, enrichment_key)

        return Table(schema, feed, coerce=False)


def _renamed(table: Table, mapping: Mapping[str, str]) -> tuple[Table, dict[str, str]]:
    """``table`` with the attributes that ``mapping`` names renamed, and that renaming."""
    usable = {old: new for old, new in mapping.items() if old in table.schema}
    return Table(table.schema.rename_attributes(usable), table.tuples(), coerce=False), usable


def _coerce_or_null(value: Any, dtype: DataType) -> Any:
    """``value`` as ``dtype``, or NULL when it cannot be represented in that type."""
    try:
        return coerce_value(value, dtype)
    except TypeCoercionError:
        return None


def _project_onto(table: Table, schema: Schema) -> list[tuple]:
    """The rows of ``table`` over the attributes of ``schema``, each value coerced
    to its target type or NULL; attributes ``table`` lacks are NULL."""
    columns = [
        (table.schema.position(a.name) if a.name in table.schema else None, a.dtype)
        for a in schema.attributes
    ]
    return [
        tuple(
            None if position is None else _coerce_or_null(values[position], dtype)
            for position, dtype in columns
        )
        for values in table.tuples()
    ]


def _enrich(
    feed: list[tuple], schema: Schema, feed_key: str, enrichment: Table, enrichment_key: str
) -> list[tuple]:
    """Left outer join of the feed rows (over ``schema``) with ``enrichment``.

    Keys match by exact value and NULL keys never match. Every matching
    enrichment row yields one output row; unmatched feed rows are kept as
    they are. An enrichment attribute named like a feed attribute fills
    only the feed's NULL cells, coerced to the target type or NULL.
    """
    key_position = enrichment.schema.position(enrichment_key)
    index: dict[Any, list[tuple]] = defaultdict(list)
    for values in enrichment.tuples():
        if not is_null(values[key_position]):
            index[values[key_position]].append(values)
    fills = [
        (i, enrichment.schema.position(a.name), a.dtype)
        for i, a in enumerate(schema.attributes)
        if a.name in enrichment.schema and a.name != enrichment_key
    ]
    feed_position = schema.position(feed_key)
    joined = []
    for row in feed:
        key = row[feed_position]
        matches = () if is_null(key) else index.get(key, ())
        if not matches:
            joined.append(row)
        for match in matches:
            merged = list(row)
            for i, position, dtype in fills:
                if is_null(merged[i]):
                    merged[i] = _coerce_or_null(match[position], dtype)
            joined.append(tuple(merged))
    return joined


def default_real_estate_etl() -> ManualEtlPipeline:
    """The hand-written ETL configuration for the real-estate scenario.

    This is what a developer would write after studying the three source
    schemas: explicit attribute-by-attribute mappings for Rightmove,
    Onthemarket and Deprivation, the union of the two property feeds, and
    the postcode join against Deprivation.
    """
    config = ManualEtlConfig(
        attribute_mappings={
            "rightmove": {
                "price": "price",
                "street": "street",
                "postcode": "postcode",
                "bedrooms": "bedrooms",
                "type": "type",
                "description": "description",
            },
            "onthemarket": {
                "asking_price": "price",
                "address_street": "street",
                "post_code": "postcode",
                "beds": "bedrooms",
                "property_type": "type",
                "summary": "description",
            },
            "deprivation": {
                "postcode": "postcode",
                "crime": "crimerank",
            },
        },
        union_sources=("rightmove", "onthemarket"),
        enrichment_joins=(("deprivation", "postcode", "postcode"),),
        target_attributes=(
            "type",
            "description",
            "street",
            "postcode",
            "bedrooms",
            "price",
            "crimerank",
        ),
    )
    return ManualEtlPipeline(config)
