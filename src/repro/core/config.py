"""Paper constants and the scale model of the reproduction.

Every number the paper reports in Tables I and II is recorded here as a
module-level constant, and :class:`ScaledConfig` maps those numbers to a
synthetic target at a given ``scale`` (entity/triple volume) and
``rel_scale`` (relation-type count).  Tests run at ``scale=1e-4``
(~260K triples) and benchmarks at ``scale=1e-3`` (~2.6M triples).

The scaling model is documented in DESIGN.md ("Scaling model"): taxonomy
sizes and product counts are design *inputs* scaled from the paper;
relation-instance counts *emerge* from per-product link rates derived
from paper ratios, so measured Table-I values are an output of the
construction pipeline, not dialed per cell.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List

# ---------------------------------------------------------------------------
# Paper constants — Table I (statistics of OpenBG at the time of writing)
# ---------------------------------------------------------------------------

#: Per-level node counts for each core class/concept taxonomy (Table I,
#: middle block).  Order is level1, level2, ... as printed in the paper.
PAPER_TAXONOMY_LEVELS: Dict[str, List[int]] = {
    "Category": [93, 889, 3069, 3049],
    "Brand": [45, 411234],
    "Place": [208, 266, 333, 2847, 38773],
    "Scene": [19, 4027, 617, 729],
    "Crowd": [8, 37, 45105, 57],
    "Theme": [14, 5219, 143, 143],
    "Time": [3, 55],
    "MarketSegment": [614598],
}

#: Which taxonomy roots are OWL classes (subClassOf) vs SKOS concepts
#: (skos:broader).  Paper Sec. II-A.
CLASS_TYPES = ("Category", "Brand", "Place")
CONCEPT_TYPES = ("Time", "Scene", "Theme", "Crowd", "MarketSegment")

#: Table I top block.
PAPER_N_CORE_CLASSES = 460_805
PAPER_N_CORE_CONCEPTS = 670_774
PAPER_N_RELATION_TYPES = 2_681
PAPER_N_PRODUCTS = 3_062_313
PAPER_N_TRIPLES = 2_603_046_837
PAPER_N_ENTITIES = 88_881_723  # == rdf:type count: every entity is typed once

#: Table I bottom block — relation-instance counts per core relation.
PAPER_OBJECT_PROPERTY_COUNTS: Dict[str, int] = {
    "brandIs": 1_900_673,
    "placeOfOrigin": 2_155_721,
    "relatedScene": 28_766_037,
    "forCrowd": 3_966_635,
    "aboutTheme": 132_135,
    "appliedTime": 773_371,
    "inMarket*": 1_654_057_075,
}
PAPER_DATA_PROPERTY_COUNTS: Dict[str, int] = {
    "rdfs:label": 3_062_313,
    "labelEn": 3_072_337,
    "skos:prefLabel": 670_774,
    "skos:altLabel": 670_774,
    "rdfs:comment": 3_062_300,
    "imageIs": 102_504,
    "productAttributes": 75_486_855,
}
PAPER_META_PROPERTY_COUNTS: Dict[str, int] = {
    "rdfs:subClassOf": 460_760,
    "skos:broader": 670_774,
    "rdf:type": 88_881_723,
    "owl:equivalentClass": 496_086,
    "rdfs:subPropertyOf": 1_018,
    "owl:equivalentPropertyOf": 2_448,
}

#: Decomposition of the 2,681 relation types (paper gives the total and
#: names ~20 relations explicitly; the remainder is the inMarket* family
#: plus product-attribute data properties).  600/2000 is our documented
#: estimate used only to shape the synthetic relation vocabulary.
PAPER_N_INMARKET_REL_TYPES = 600
PAPER_N_ATTRIBUTE_REL_TYPES = 2_000

#: Items (商品) per product (产品): footnote 11 — an item is an instance
#: of a product.  (entities - products - taxonomy nodes) / products.
PAPER_ITEMS_PER_PRODUCT = (
    PAPER_N_ENTITIES - PAPER_N_PRODUCTS - PAPER_N_CORE_CLASSES - PAPER_N_CORE_CONCEPTS
) / PAPER_N_PRODUCTS

# ---------------------------------------------------------------------------
# Paper constants — Table II (benchmark statistics)
# ---------------------------------------------------------------------------

PAPER_BENCHMARKS: Dict[str, Dict[str, int]] = {
    "OpenBG-IMG": {
        "n_ent": 27_910,
        "n_ent_multimodal": 14_718,
        "n_rel": 136,
        "n_train": 230_087,
        "n_dev": 5_000,
        "n_test": 14_675,
    },
    "OpenBG500": {
        "n_ent": 249_743,
        "n_rel": 500,
        "n_train": 1_242_550,
        "n_dev": 5_000,
        "n_test": 5_000,
    },
    "OpenBG500-L": {
        "n_ent": 2_782_223,
        "n_rel": 500,
        "n_train": 47_410_032,
        "n_dev": 10_000,
        "n_test": 10_000,
    },
}


def _scaled(n: int, f: float) -> int:
    """Scale a paper count by factor ``f`` with a floor of 1."""
    return max(1, int(round(n * f)))


@dataclasses.dataclass(frozen=True)
class ScaledConfig:
    """All generator targets for one synthetic OpenBG at a given scale.

    ``scale``      multiplies entity/triple *volumes* (taxonomy sizes,
                   product counts, per-benchmark split sizes).
    ``rel_scale``  multiplies relation-*type* counts, kept independent so
                   tiny KGs still have enough relations for the 500-/136-
                   relation benchmark refinement step to be meaningful.
    ``seed``       master seed; every sub-generator derives its own.
    """

    scale: float = 1e-4
    rel_scale: float = 0.05
    seed: int = 7

    # ---- taxonomy ---------------------------------------------------------
    def taxonomy_levels(self, root: str) -> List[int]:
        """Scaled per-level node counts for one taxonomy root."""
        return [_scaled(n, self.scale) for n in PAPER_TAXONOMY_LEVELS[root]]

    @property
    def n_products(self) -> int:
        return _scaled(PAPER_N_PRODUCTS, self.scale)

    @property
    def items_per_product(self) -> float:
        """Mean items per product (Poisson rate); paper ratio ~27.6."""
        return PAPER_ITEMS_PER_PRODUCT

    # ---- relation vocabulary ---------------------------------------------
    @property
    def n_inmarket_rel_types(self) -> int:
        return _scaled(PAPER_N_INMARKET_REL_TYPES, self.rel_scale)

    @property
    def n_attribute_rel_types(self) -> int:
        return _scaled(PAPER_N_ATTRIBUTE_REL_TYPES, self.rel_scale)

    # ---- per-product link rates (emergent relation-instance counts) ------
    def object_property_rate(self, rel: str) -> float:
        """Mean links per product for one object property (paper ratio).

        inMarket* links live between Category and MarketSegment nodes but
        their paper count still scales with catalogue size; we keep the
        same per-product normalization so total triples track ``scale``.
        """
        return PAPER_OBJECT_PROPERTY_COUNTS[rel] / PAPER_N_PRODUCTS

    @property
    def attributes_per_product(self) -> float:
        """Mean attribute (data-property) triples per product, ~24.6."""
        return PAPER_DATA_PROPERTY_COUNTS["productAttributes"] / PAPER_N_PRODUCTS

    @property
    def image_fraction(self) -> float:
        """Fraction of products carrying an imageIs triple, ~3.3%.

        The IMG benchmark needs multimodal entities, so the generator
        also guarantees images for products under IMG-selected relations.
        """
        return PAPER_DATA_PROPERTY_COUNTS["imageIs"] / PAPER_N_PRODUCTS

    # ---- benchmarks -------------------------------------------------------
    def benchmark_targets(self, name: str, boost: float = 1.0) -> Dict[str, int]:
        """Scaled volume targets for one benchmark (Table II row): paper ×
        ``scale`` × ``boost`` (the KGE tables' inflated extraction, see
        :class:`repro.benchmark.build.BenchmarkSpec`), with a floor of 1."""
        return {
            k: max(1, int(round(v * self.scale * boost)))
            for k, v in PAPER_BENCHMARKS[name].items()
        }

    def benchmark_n_rel(self, name: str) -> int:
        """Scaled relation-subset size for one benchmark.

        Relation counts scale with ``rel_scale`` (not ``scale``): the
        refinement step keeps the paper's *proportion* of relation types.
        """
        return _scaled(PAPER_BENCHMARKS[name]["n_rel"], self.rel_scale)

    # ---- derived ----------------------------------------------------------
    def derived_seed(self, tag: str) -> int:
        """A stable per-component seed derived from the master seed.

        Uses crc32, not ``hash()`` — the builtin is salted per process
        and would make runs non-reproducible across invocations.
        """
        import zlib

        return (self.seed * 1_000_003 + zlib.crc32(tag.encode())) % (2**31 - 1)


#: Default configs used across tests and benchmarks.
TEST_CONFIG = ScaledConfig(scale=1e-4, rel_scale=0.05, seed=7)
BENCH_CONFIG = ScaledConfig(scale=1e-3, rel_scale=0.1, seed=7)
#: Experiment scale for Tables III–VII: large enough that taxonomy/label
#: spaces make the learning tasks non-trivial (unseen-value
#: generalization), small enough that the whole table suite runs in
#: minutes on one machine.
EXP_CONFIG = ScaledConfig(scale=5e-3, rel_scale=0.1, seed=7)
