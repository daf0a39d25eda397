"""Triple-store schema and relation namespaces for the synthetic OpenBG.

OpenBG is materialized as one Spark DataFrame of triples with columns:

=========  =======  =====================================================
column     type     meaning
=========  =======  =====================================================
h          string   head entity / class / concept / property IRI-like id
r          string   relation id (see namespaces below)
t          string   tail entity id or literal value
rel_kind   string   one of {object, data, meta} — Sec. II-A's R_obj /
                    R_data / R_meta split, denormalized for cheap stats
=========  =======  =====================================================

Identifiers are readable prefixed strings, e.g. ``cat:L3_00017``,
``prod:000042``, ``brand:000007``, mirroring RDF IRIs without dragging a
full IRI machinery into every join.
"""
from __future__ import annotations

from pyspark.sql.types import StringType, StructField, StructType

#: Spark schema of the canonical triple DataFrame.
TRIPLE_SCHEMA = StructType(
    [
        StructField("h", StringType(), False),
        StructField("r", StringType(), False),
        StructField("t", StringType(), False),
        StructField("rel_kind", StringType(), False),
    ]
)

#: rel_kind values.
KIND_OBJECT = "object"
KIND_DATA = "data"
KIND_META = "meta"

# ---------------------------------------------------------------------------
# Meta-properties (W3C axioms the paper imports — Sec. II-A, R_meta)
# ---------------------------------------------------------------------------
RDF_TYPE = "rdf:type"
RDFS_SUBCLASSOF = "rdfs:subClassOf"
SKOS_BROADER = "skos:broader"
OWL_EQUIVALENTCLASS = "owl:equivalentClass"
RDFS_SUBPROPERTYOF = "rdfs:subPropertyOf"
OWL_EQUIVALENTPROPERTY = "owl:equivalentPropertyOf"
META_PROPERTIES = (
    RDFS_SUBCLASSOF,
    SKOS_BROADER,
    RDF_TYPE,
    OWL_EQUIVALENTCLASS,
    RDFS_SUBPROPERTYOF,
    OWL_EQUIVALENTPROPERTY,
)

#: Ontology root nodes.
OWL_THING = "owl:Thing"
SKOS_CONCEPT = "skos:Concept"

# ---------------------------------------------------------------------------
# Object properties (Sec. II-A, R_obj) — named core relations.  inMarket*
# is a family inMarket:0000..inMarket:NNNN (config.n_inmarket_rel_types).
# ---------------------------------------------------------------------------
BRAND_IS = "brandIs"
PLACE_OF_ORIGIN = "placeOfOrigin"
RELATED_SCENE = "relatedScene"
FOR_CROWD = "forCrowd"
ABOUT_THEME = "aboutTheme"
APPLIED_TIME = "appliedTime"
INMARKET_PREFIX = "inMarket:"
NAMED_OBJECT_PROPERTIES = (
    BRAND_IS,
    PLACE_OF_ORIGIN,
    RELATED_SCENE,
    FOR_CROWD,
    ABOUT_THEME,
    APPLIED_TIME,
)

#: Object property → tail taxonomy root (the relation's *range*); the
#: domain of each is Category (products are instances of categories).
OBJECT_PROPERTY_RANGE = {
    BRAND_IS: "Brand",
    PLACE_OF_ORIGIN: "Place",
    RELATED_SCENE: "Scene",
    FOR_CROWD: "Crowd",
    ABOUT_THEME: "Theme",
    APPLIED_TIME: "Time",
}

# ---------------------------------------------------------------------------
# Data properties (Sec. II-A, R_data).  Product attributes are a family
# attr:0000..attr:NNNN (config.n_attribute_rel_types).
# ---------------------------------------------------------------------------
RDFS_LABEL = "rdfs:label"
LABEL_EN = "labelEn"
SKOS_PREFLABEL = "skos:prefLabel"
SKOS_ALTLABEL = "skos:altLabel"
RDFS_COMMENT = "rdfs:comment"
IMAGE_IS = "imageIs"
ATTR_PREFIX = "attr:"
NAMED_DATA_PROPERTIES = (
    RDFS_LABEL,
    LABEL_EN,
    SKOS_PREFLABEL,
    SKOS_ALTLABEL,
    RDFS_COMMENT,
    IMAGE_IS,
)

# ---------------------------------------------------------------------------
# Entity id prefixes
# ---------------------------------------------------------------------------
PRODUCT_PREFIX = "prod:"
#: Taxonomy node prefix per root type (Category → ``cat:``, ...).
TAXONOMY_PREFIX = {
    "Category": "cat:",
    "Brand": "brand:",
    "Place": "place:",
    "Scene": "scene:",
    "Crowd": "crowd:",
    "Theme": "theme:",
    "Time": "time:",
    "MarketSegment": "mseg:",
}


def taxonomy_node_id(root: str, level: int, idx: int) -> str:
    """Readable id for taxonomy node #idx at a 1-based level, e.g. ``cat:L2_00012``."""
    return f"{TAXONOMY_PREFIX[root]}L{level}_{idx:05d}"


def product_id(i: int) -> str:
    return f"{PRODUCT_PREFIX}{i:07d}"


def inmarket_rel(i: int) -> str:
    return f"{INMARKET_PREFIX}{i:04d}"


def attr_rel(i: int) -> str:
    return f"{ATTR_PREFIX}{i:04d}"


def node_root(node_id: str) -> str:
    """Inverse of TAXONOMY_PREFIX lookup: ``cat:L2_00012`` → ``Category``."""
    prefix = node_id.split(":", 1)[0] + ":"
    for root, p in TAXONOMY_PREFIX.items():
        if p == prefix:
            return root
    raise ValueError(f"not a taxonomy node id: {node_id}")
