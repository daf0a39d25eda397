"""Table I statistics of an assembled OpenBG (Spark aggregations).

Produces the same blocks Table I prints:

- *Overall*: core classes / core concepts / relation types / products /
  triples (entities come out of the rdf:type identity);
- *Core class-concept*: per-level node counts + all/leaf per taxonomy;
- *Core relation*: triple counts per named relation and per family.

Every number that comes from the triple store is a DataFrame
aggregation; tests oracle-check these against DuckDB over the same
rows.
"""
from __future__ import annotations

from typing import Dict, List

import pandas as pd
import pyspark.sql.functions as F

from repro.core import schema as S
from repro.construction.assemble import OpenBG


def overall_stats(kg: OpenBG) -> Dict[str, int]:
    """The Table I 'Overall' block, measured from the assembled KG."""
    n_entities = (
        kg.triples.filter(F.col("r") == S.RDF_TYPE).select("h").distinct().count()
    )
    return {
        "n_core_classes": kg.onto.n_core_classes,
        "n_core_concepts": kg.onto.n_core_concepts,
        "n_relation_types": kg.onto.n_relation_types,
        "n_products": kg.catalog.n_products,
        "n_triples": kg.triples.count(),
        "n_entities": n_entities,
    }


def taxonomy_stats(kg: OpenBG) -> pd.DataFrame:
    """The per-level taxonomy block: root, level counts, all, leaf."""
    rows: List[dict] = []
    for root, tax in kg.onto.taxonomies.items():
        rows.append(
            {
                "root": root,
                "levels": tax.level_counts(),
                "all": tax.n_nodes,
                "leaf": tax.n_leaves,
            }
        )
    return pd.DataFrame(rows)


def relation_stats(kg: OpenBG) -> Dict[str, int]:
    """Triple counts for every named relation + the two families
    (inMarket* and the attr:* product attributes collapsed to one name)."""
    rows = (
        kg.triples.withColumn(
            "rel",
            F.when(F.col("r").startswith("inMarket:"), F.lit("inMarket*"))
            .when(F.col("r").startswith("attr:"), F.lit("productAttributes"))
            .otherwise(F.col("r")),
        )
        .groupBy("rel")
        .agg(F.count("*").alias("n"))
        .collect()
    )
    return {r["rel"]: r["n"] for r in rows}


def kind_stats(kg: OpenBG) -> Dict[str, int]:
    """Triple counts per rel_kind (object/data/meta)."""
    rows = kg.triples.groupBy("rel_kind").agg(F.count("*").alias("n")).collect()
    return {r["rel_kind"]: r["n"] for r in rows}


def relation_frequency_distribution(kg: OpenBG) -> pd.DataFrame:
    """Per-relation triple counts sorted descending.

    Used to assert Fig. 5's qualitative finding: the relation
    distribution of the KG (and hence of every benchmark sampled from
    it) is long-tailed.
    """
    return (
        kg.triples.groupBy("r")
        .agg(F.count("*").alias("n"))
        .orderBy(F.desc("n"))
        .toPandas()
    )
