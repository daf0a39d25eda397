"""Tests for bottom-up concept extraction (Sec. II-C pipeline)."""
import pytest

from repro.core.config import TEST_CONFIG
from repro.construction.lexicon import Lexicon
from repro.construction.concepts import (
    CONCEPT_TAGS,
    ROOT_TO_RELATION,
    annotation_split,
    extract_concept_links,
    extraction_quality,
    tagger_quality,
    train_concept_tagger,
)
from repro.corpus import build_surface_forms, generate_catalog
from repro.ontology import build_core_ontology


@pytest.fixture(scope="module")
def world():
    onto = build_core_ontology(TEST_CONFIG)
    forms = build_surface_forms(onto)
    cat = generate_catalog(onto, forms, TEST_CONFIG)
    return onto, forms, cat


@pytest.fixture(scope="module")
def trained(world):
    _, _, cat = world
    ann, rest = annotation_split(cat, frac=0.5)
    tagger = train_concept_tagger(ann, epochs=4, seed=0)
    return ann, rest, tagger


def test_annotation_split_partitions(world):
    _, _, cat = world
    ann, rest = annotation_split(cat, frac=0.5)
    assert len(ann) + len(rest) == len(cat.products)
    assert not set(ann["product_id"]) & set(rest["product_id"])


def test_tag_inventory_covers_generator_tags(world):
    _, _, cat = world
    used = set(" ".join(cat.products["title_tags"]).split())
    assert used <= set(CONCEPT_TAGS)


def test_tagger_f1_on_heldout(trained):
    """BERT-CRF substitute must actually learn the task: F1 ≥ 0.8."""
    _, rest, tagger = trained
    q = tagger_quality(tagger, rest)
    assert q["f1"] >= 0.8, q


def test_concept_lexicon_covers_all_concepts(world):
    onto, _, _ = world
    lex = Lexicon.of(onto).concept_label_node
    assert len(lex) == onto.n_core_concepts
    assert all(v.split(":")[0] in ("scene", "crowd", "theme", "time", "mseg") for v in lex.values())


def test_distributed_extraction_quality(spark, world, trained):
    """Extraction P/R vs title-mentioned ground truth ≥ 0.75."""
    onto, _, cat = world
    _, _, tagger = trained
    titles = spark.createDataFrame(cat.products[["product_id", "title"]])
    links = extract_concept_links(spark, titles, tagger, Lexicon.of(onto).concept_label_node)

    # ground truth restricted to concepts that appear in the title
    label_of = {}
    for tax in onto.concept_taxonomies.values():
        label_of.update(dict(tax.nodes[["node_id", "label"]].itertuples(index=False)))
    truth = cat.concept_links.copy()
    title_of = cat.products.set_index("product_id")["title"]
    mentioned = [
        label_of[t] in title_of[p].split()
        for p, t in truth[["product_id", "t"]].itertuples(index=False)
    ]
    truth = truth[mentioned]

    q = extraction_quality(links, truth)
    assert q["precision"] >= 0.75, q
    assert q["recall"] >= 0.75, q


def test_extracted_relations_match_roots(spark, world, trained):
    onto, _, cat = world
    _, _, tagger = trained
    titles = spark.createDataFrame(cat.products[["product_id", "title"]].head(50))
    links = extract_concept_links(
        spark, titles, tagger, Lexicon.of(onto).concept_label_node
    ).toPandas()
    assert links["r"].isin(set(ROOT_TO_RELATION.values())).all()
    # relation ↔ target taxonomy consistency
    from repro.core import schema as S

    for rel, root in [("relatedScene", "Scene"), ("forCrowd", "Crowd")]:
        sub = links[links["r"] == rel]
        if len(sub):
            assert sub["t"].str.startswith(S.TAXONOMY_PREFIX[root]).all()
