"""Full OpenBG assembly: raw catalogue + ontology → triple DataFrame.

Mirrors Sec. II's population step ("populate the OpenBG ontology by
linking large-scale multimodal product triples to the pre-defined
classes/concepts"), emitting every triple family Table I counts:

meta    axioms (subClassOf/broader/equivalentClass/…), taxonomy-node
        typing, product rdf:type (instantiation), item rdf:type
object  brandIs/placeOfOrigin (from the *schema-mapping pipeline
        output*, not ground truth), concept links (annotated), the
        inMarket* family (Spark-native generation — the 1.65B-triple
        elephant, scaled)
data    rdfs:label / labelEn / skos:prefLabel / skos:altLabel /
        rdfs:comment / imageIs / attr:* product attributes

Generation of the two high-volume families (inMarket*, items) is
Spark-native (``spark.range`` + deterministic xxhash64 picks + joins
against small dimension tables), so the pipeline's shape survives
scales where pandas would not.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core import schema as S
from repro.core.config import CLASS_TYPES, ScaledConfig
from repro.construction.category import instantiate_products
from repro.construction.schema_mapping import build_matcher, link_surfaces
from repro.corpus.products import RawCatalog
from repro.corpus.vocab import SurfaceForms
from repro.ontology.model import Ontology


@dataclasses.dataclass
class OpenBG:
    """One assembled (scaled) OpenBG instance."""

    triples: DataFrame
    onto: Ontology
    catalog: RawCatalog
    cfg: ScaledConfig

    def entity_labels(self) -> pd.DataFrame:
        """(entity, text) surface text for text-based KGE models:
        products → their titles, taxonomy nodes → their labels."""
        prods = self.catalog.products[["product_id", "title"]].rename(
            columns={"product_id": "entity", "title": "text"}
        )
        nodes = self.onto.all_nodes()[["node_id", "label"]].rename(
            columns={"node_id": "entity", "label": "text"}
        )
        return pd.concat([prods, nodes], ignore_index=True)

    def multimodal_products(self) -> pd.DataFrame:
        """Products carrying an imageIs triple (the multimodal subset)."""
        p = self.catalog.products
        return p[p["has_image"]][["product_id", "category"]].reset_index(drop=True)


def _pdf_triples(rows: pd.DataFrame, kind: str) -> pd.DataFrame:
    rows = rows.copy()
    rows.columns = ["h", "r", "t"]
    rows["rel_kind"] = kind
    return rows


def _item_type_triples(spark: SparkSession, products: pd.DataFrame) -> DataFrame:
    """⟨item, rdf:type, product⟩ — Spark-native explode over item counts."""
    base = spark.createDataFrame(products[["product_id", "n_items"]])
    return (
        base.filter(F.col("n_items") > 0)
        .withColumn("i", F.explode(F.sequence(F.lit(0), F.col("n_items") - 1)))
        .select(
            F.format_string("item:%s#%d", F.col("product_id"), F.col("i")).alias("h"),
            F.lit(S.RDF_TYPE).alias("r"),
            F.col("product_id").alias("t"),
            F.lit(S.KIND_META).alias("rel_kind"),
        )
    )


def _inmarket_triples(
    spark: SparkSession, onto: Ontology, products: pd.DataFrame, cfg: ScaledConfig
) -> DataFrame:
    """The inMarket* family, generated Spark-natively.

    inMarket* is *declared* between Category and MarketSegment (Fig. 2),
    and — exactly like brandIs, also Category-domained, whose instance
    triples hang off products (⟨iPhone 14 Pro, brandIs, Apple⟩) — its
    instance triples head at products.  Heading at category *nodes*
    would saturate the (category × segment × relation) space at small
    scales and collapse the paper's dominant triple family.

    Structure: 70% of links land on one of K_SPREAD segments determined
    by (product category, relation); 30% are uniform noise.  Without
    category structure the KG's dominant triple family is unlearnable
    and every Table III/IV model scores at chance.

    count = paper-rate(≈540/product) × n_products rows; each row picks a
    product, a MarketSegment leaf and an inMarket:* relation by
    deterministic xxhash64 of the row id, then joins the small dimension
    tables (shuffle joins — broadcast is disabled session-wide).
    Relation types follow a zipf law (Fig. 5's long tail is a property
    of the KG, so every benchmark sampled from it inherits it).
    Duplicates are dropped so the KG stays a set of triples.
    """
    rate = cfg.object_property_rate("inMarket*")
    total = max(1, int(rate * cfg.n_products))
    seed = cfg.derived_seed("inmarket")
    STRUCTURED_PCT, K_SPREAD = 85, 5

    prods = products[["product_id", "category"]].rename(columns={"product_id": "h"})
    prods = prods.assign(p_idx=np.arange(len(prods)))
    prod_dim = spark.createDataFrame(prods)

    msegs = (
        onto.taxonomies["MarketSegment"].leaves()[["node_id"]].reset_index(drop=True)
    )
    msegs["ms_idx"] = range(len(msegs))
    ms_dim = spark.createDataFrame(msegs.rename(columns={"node_id": "t"}))

    # zipf relation types via an inverse-CDF bucket dimension table
    from repro.corpus.products import zipf_probs

    n_rel = cfg.n_inmarket_rel_types
    cdf = np.cumsum(zipf_probs(n_rel))
    buckets = 1000
    rel_dim = spark.createDataFrame(
        pd.DataFrame(
            {
                "rel_bucket": range(buckets),
                "r": [
                    S.inmarket_rel(int(np.searchsorted(cdf, (b + 0.5) / buckets)))
                    for b in range(buckets)
                ],
            }
        )
    )

    rows = (
        spark.range(total)
        .withColumn("p_idx", F.pmod(F.xxhash64("id", F.lit(seed)), F.lit(cfg.n_products)))
        .withColumn(
            "rel_bucket", F.pmod(F.xxhash64("id", F.lit(seed + 2)), F.lit(buckets))
        )
        .withColumn(
            "structured",
            F.pmod(F.xxhash64("id", F.lit(seed + 3)), F.lit(100)) < STRUCTURED_PCT,
        )
        .withColumn(
            "noise_ms", F.pmod(F.xxhash64("id", F.lit(seed + 1)), F.lit(len(msegs)))
        )
        .withColumn(
            "spread", F.pmod(F.xxhash64("id", F.lit(seed + 4)), F.lit(K_SPREAD))
        )
    )
    joined = rows.join(prod_dim, on="p_idx").join(rel_dim, on="rel_bucket")
    with_ms = joined.withColumn(
        "ms_idx",
        F.when(
            F.col("structured"),
            F.pmod(
                F.xxhash64("category", "r", F.lit(seed + 5)) + F.col("spread"),
                F.lit(len(msegs)),
            ),
        ).otherwise(F.col("noise_ms")),
    )
    return (
        with_ms.join(ms_dim, on="ms_idx")
        .select("h", "r", "t")
        .dropDuplicates()
        .withColumn("rel_kind", F.lit(S.KIND_OBJECT))
    )


def assemble_openbg(
    spark: SparkSession,
    onto: Ontology,
    forms: SurfaceForms,
    catalog: RawCatalog,
    cfg: ScaledConfig,
) -> OpenBG:
    """Run the full population pipeline and return the assembled KG."""
    p = catalog.products
    pandas_parts = []

    # -- meta: ontology axioms + taxonomy-node typing -----------------------
    pandas_parts.append(onto.axiom_triples())
    nodes = onto.all_nodes()
    node_types = pd.DataFrame(
        {
            "h": nodes["node_id"],
            "r": S.RDF_TYPE,
            "t": [
                "owl:Class" if root in CLASS_TYPES else S.SKOS_CONCEPT
                for root in nodes["root"]
            ],
        }
    )
    node_types["rel_kind"] = S.KIND_META
    pandas_parts.append(node_types)

    # -- object: brand/place via the schema-mapping pipeline ----------------
    prod_sdf = spark.createDataFrame(
        p[["product_id", "brand_surface", "place_surface"]]
    )
    links = [
        link_surfaces(spark, prod_sdf, build_matcher(forms, which), surface_col)
        .filter(F.col("node_id").isNotNull())
        .select(
            F.col("product_id").alias("h"),
            F.lit(rel).alias("r"),
            F.col("node_id").alias("t"),
            F.lit(S.KIND_OBJECT).alias("rel_kind"),
        )
        for which, surface_col, rel in (
            ("Brand", "brand_surface", S.BRAND_IS),
            ("Place", "place_surface", S.PLACE_OF_ORIGIN),
        )
    ]

    # -- object: concept links (annotated ground truth; Sec. II-C output) ---
    pandas_parts.append(
        _pdf_triples(catalog.concept_links[["product_id", "r", "t"]], S.KIND_OBJECT)
    )

    # -- data properties ----------------------------------------------------
    def data_rows(h, r, t):
        return _pdf_triples(pd.DataFrame({"h": h, "r": r, "t": t}), S.KIND_DATA)

    pandas_parts.append(data_rows(p["product_id"], S.RDFS_LABEL, p["title"]))
    pandas_parts.append(
        data_rows(
            p["product_id"], S.LABEL_EN, "en_" + p["product_id"].str[5:]
        )
    )
    concepts = pd.concat(
        [t.nodes for t in onto.concept_taxonomies.values()], ignore_index=True
    )
    pandas_parts.append(
        data_rows(concepts["node_id"], S.SKOS_PREFLABEL, concepts["label"])
    )
    pandas_parts.append(
        data_rows(concepts["node_id"], S.SKOS_ALTLABEL, concepts["label"] + "_alt")
    )
    pandas_parts.append(data_rows(p["product_id"], S.RDFS_COMMENT, p["comment"]))
    with_img = p[p["has_image"]]
    pandas_parts.append(
        data_rows(with_img["product_id"], S.IMAGE_IS, "img://" + with_img["product_id"])
    )
    pandas_parts.append(
        _pdf_triples(catalog.attributes[["product_id", "r", "value"]], S.KIND_DATA)
    )

    pandas_df = pd.concat(pandas_parts, ignore_index=True)
    small = spark.createDataFrame(pandas_df[["h", "r", "t", "rel_kind"]])

    triples = (
        small.unionByName(links[0])
        .unionByName(links[1])
        .unionByName(instantiate_products(spark, p))
        .unionByName(_item_type_triples(spark, p))
        .unionByName(_inmarket_triples(spark, onto, p, cfg))
        .dropDuplicates(["h", "r", "t"])
    )
    return OpenBG(triples=triples, onto=onto, catalog=catalog, cfg=cfg)


def build_world(spark: SparkSession, cfg: ScaledConfig) -> OpenBG:
    """Convenience: ontology → surface forms → catalogue → assembled KG."""
    from repro.corpus import build_surface_forms, generate_catalog
    from repro.ontology import build_core_ontology

    onto = build_core_ontology(cfg)
    forms = build_surface_forms(onto)
    catalog = generate_catalog(onto, forms, cfg)
    return assemble_openbg(spark, onto, forms, catalog, cfg)

