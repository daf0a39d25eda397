"""Tests for the synthetic raw-corpus substrate."""
import numpy as np
import pytest

from repro.core import schema as S
from repro.core.config import TEST_CONFIG, ScaledConfig
from repro.corpus import build_surface_forms, generate_catalog, generate_reviews
from repro.corpus.products import zipf_probs
from repro.corpus.vocab import N_VALUES_PER_ATTR, _misspell
from repro.ontology import build_core_ontology


@pytest.fixture(scope="module")
def world():
    onto = build_core_ontology(TEST_CONFIG)
    forms = build_surface_forms(onto)
    cat = generate_catalog(onto, forms, TEST_CONFIG)
    return onto, forms, cat


# ---- vocab ----------------------------------------------------------------

def test_misspell_is_deterministic_and_differs():
    assert _misspell("brandname") == _misspell("brandname")
    assert _misspell("brandname") != "brandname"


def test_surface_forms_cover_all_leaves(world):
    onto, forms, _ = world
    for which in ("Brand", "Place"):
        leaves = onto.taxonomies[which].leaves()
        tbl = forms.synonym_table(which)
        assert set(tbl["node_id"]) == set(leaves["node_id"])
        # canonical + alias + misspelled per leaf
        assert len(tbl) == 3 * len(leaves)


def test_surface_forms_unique_per_node(world):
    _, forms, _ = world
    canon = forms.canonical("Brand")
    assert canon["surface"].is_unique


def test_attr_value_vocab_sizes(world):
    _, forms, _ = world
    assert len(forms.attr_values) == TEST_CONFIG.n_attribute_rel_types
    for vals in forms.attr_values.values():
        assert len(vals) == N_VALUES_PER_ATTR


def test_zipf_probs_normalized_and_decreasing():
    p = zipf_probs(100)
    assert np.isclose(p.sum(), 1.0)
    assert (np.diff(p) < 0).all()


# ---- catalog --------------------------------------------------------------

def test_catalog_size_matches_config(world):
    _, _, cat = world
    assert cat.n_products == TEST_CONFIG.n_products


def test_categories_are_leaves(world):
    onto, _, cat = world
    leaves = set(onto.taxonomies["Category"].leaves()["node_id"])
    assert cat.products["category"].isin(leaves).all()


def test_brand_presence_rate(world):
    _, _, cat = world
    rate = cat.products["brand_node"].notna().mean()
    assert abs(rate - TEST_CONFIG.object_property_rate(S.BRAND_IS)) < 0.12


def test_brand_surface_consistent_with_node(world):
    onto, forms, cat = world
    tbl = forms.synonym_table("Brand").set_index(["node_id", "form"])["surface"]
    with_brand = cat.products.dropna(subset=["brand_node"])
    for _, row in with_brand.head(50).iterrows():
        assert tbl[(row["brand_node"], row["brand_form"])] == row["brand_surface"]


def test_concept_links_target_right_taxonomy(world):
    onto, _, cat = world
    for rel, root in S.OBJECT_PROPERTY_RANGE.items():
        if rel in (S.BRAND_IS, S.PLACE_OF_ORIGIN):
            continue
        sub = cat.concept_links[cat.concept_links["r"] == rel]
        prefix = S.TAXONOMY_PREFIX[root]
        assert sub["t"].str.startswith(prefix).all()


def test_concept_links_unique(world):
    _, _, cat = world
    assert not cat.concept_links.duplicated().any()


def test_attributes_reference_declared_vocab(world):
    _, forms, cat = world
    for r, value in cat.attributes[["r", "value"]].head(200).itertuples(index=False):
        assert value in forms.attr_values[r]


def test_attribute_rate_in_band(world):
    _, _, cat = world
    per_prod = len(cat.attributes) / cat.n_products
    # dedup trims the Poisson(24.65) draw; stays within a sane band
    assert 12 < per_prod < 26


def test_titles_and_tags_aligned(world):
    _, _, cat = world
    for title, tags in cat.products[["title", "title_tags"]].itertuples(index=False):
        assert len(title.split()) == len(tags.split())


def test_title_tags_vocabulary(world):
    _, _, cat = world
    tags = set(" ".join(cat.products["title_tags"]).split())
    allowed = {"O", "B-Brand", "B-Category", "B-Attr", "B-Scene", "B-Crowd",
               "B-Theme", "B-Time", "B-MarketSegment"}
    assert tags <= allowed
    assert "B-Category" in tags and "O" in tags


def test_catalog_deterministic():
    onto = build_core_ontology(TEST_CONFIG)
    forms = build_surface_forms(onto)
    a = generate_catalog(onto, forms, TEST_CONFIG)
    b = generate_catalog(onto, forms, TEST_CONFIG)
    assert a.products.equals(b.products)
    assert a.attributes.equals(b.attributes)
    assert a.concept_links.equals(b.concept_links)


def test_catalog_scale_sensitivity():
    cfg2 = ScaledConfig(scale=2e-4, rel_scale=0.05, seed=7)
    onto = build_core_ontology(cfg2)
    forms = build_surface_forms(onto)
    cat = generate_catalog(onto, forms, cfg2)
    assert cat.n_products == cfg2.n_products
    assert cat.n_products > TEST_CONFIG.n_products


def test_items_rate_near_paper(world):
    _, _, cat = world
    assert abs(cat.products["n_items"].mean() - TEST_CONFIG.items_per_product) < 2.0


def test_image_fraction_near_paper(world):
    _, _, cat = world
    frac = cat.products["has_image"].mean()
    assert 0.0 <= frac < 0.12  # paper ~3.3%; small-sample band


# ---- reviews --------------------------------------------------------------

def test_reviews_reference_products(world):
    onto, _, cat = world
    rev = generate_reviews(onto, cat, TEST_CONFIG)
    assert rev["product_id"].isin(set(cat.products["product_id"])).all()
    assert rev["review_id"].is_unique


def test_review_gold_triples_appear_in_text(world):
    onto, _, cat = world
    rev = generate_reviews(onto, cat, TEST_CONFIG)
    for text, gold in rev[["text", "gold"]].head(100).itertuples(index=False):
        toks = set(text.split())
        for triple in gold.split(";"):
            a, p, o = triple.split("|")
            assert {a, p, o} <= toks


def test_reviews_deterministic(world):
    onto, _, cat = world
    a = generate_reviews(onto, cat, TEST_CONFIG)
    b = generate_reviews(onto, cat, TEST_CONFIG)
    assert a.equals(b)
