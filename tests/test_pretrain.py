"""Tests for the pre-training substrate (corpora, KG features, grid)."""
import numpy as np
import pytest

from repro.core.config import TEST_CONFIG
from repro.pretrain.corpus import (
    general_texts,
    kg_text_corpus,
    supervised_pairs,
    unsupervised_texts,
)


@pytest.fixture(scope="module")
def world(kg, reviews):
    return kg, reviews


@pytest.fixture(scope="module")
def kgf(grid):
    """The KG features the grid's "+KG" variants share."""
    return grid["mPLUG-base+KG"].kg


def test_unsupervised_corpus_sizes(world):
    kg, reviews = world
    corpus = unsupervised_texts(kg, reviews)
    assert len(corpus) == 2 * kg.catalog.n_products + len(reviews)
    assert all(isinstance(s, list) for s in corpus[:5])


def test_supervised_pairs_kinds(world):
    kg, _ = world
    pairs = supervised_pairs(kg)
    assert set(pairs["kind"]) == {"product-category", "item-title", "item-triple"}
    pc = pairs[pairs["kind"] == "product-category"]
    assert len(pc) == kg.catalog.n_products


def test_kg_text_corpus_tokenized(world):
    kg, _ = world
    corp = kg_text_corpus(kg)
    assert len(corp) == len(supervised_pairs(kg))
    assert all(isinstance(s, list) for s in corp[:5])


def test_general_corpus_disjoint_from_domain(world):
    kg, reviews = world
    gen_vocab = {t for s in general_texts(200) for t in s}
    dom_vocab = {t for s in unsupervised_texts(kg, reviews) for t in s}
    overlap = gen_vocab & dom_vocab
    # only the shared noise/marketing tokens overlap
    assert all(t.startswith("noise_") for t in overlap)


def test_kg_features_gazetteers(kgf):
    assert len(kgf.value_to_attr) == TEST_CONFIG.n_attribute_rel_types * 20
    assert all(v.startswith("attr:") for v in set(kgf.value_to_attr.values()))
    assert len(kgf.brand_tokens) > 0
    assert len(kgf.category_labels) > 0


def test_kg_features_priors_prefer_true_category(world, kgf):
    """A brand's prior must put max mass on categories it links to."""
    kg, _ = world
    p = kg.catalog.products.dropna(subset=["brand_surface"])
    # pick a brand seen with a single category
    counts = p.groupby("brand_surface")["category"].agg(["nunique", "first", "count"])
    solo = counts[(counts["nunique"] == 1) & (counts["count"] >= 2)]
    if len(solo) == 0:
        pytest.skip("no single-category brand at this scale")
    token = solo.index[0]
    true_cat = solo.iloc[0]["first"]
    cats = sorted(kg.catalog.products["category"].unique())
    prior = kgf.category_prior([token], cats)
    assert cats[int(np.argmax(prior))] == true_cat


def test_kg_features_statement_stats(kgf):
    assert len(kgf.statement_stats) > 0
    for (cat, r, t), (typ, rem) in list(kgf.statement_stats.items())[:20]:
        assert 0 < typ <= 1
        assert rem > 0


def test_model_grid_composition(grid):
    assert set(grid) == {
        "RoBERTa-large", "RoBERTa-base", "RoBERTa-base+KG", "UIE", "mT5",
        "BERT", "mPLUG-base", "mPLUG-base+KG", "mPLUG-large+KG",
    }
    assert grid["RoBERTa-large"].kg is None
    assert grid["mPLUG-base+KG"].kg is not None
    assert grid["mPLUG-large+KG"].emb.dim > grid["mPLUG-base+KG"].emb.dim


def test_domain_models_know_domain_tokens(world, grid):
    kg, _ = world
    some_title_token = kg.catalog.products["title"].iloc[0].split()[0]
    assert grid["mPLUG-base"].emb.vector(some_title_token) is not None
    assert grid["RoBERTa-large"].emb.vector(some_title_token) is None


def test_encode_shapes(grid):
    for m in grid.values():
        v = m.encode(["noise_hot", "unseen_zzz"])
        assert v.shape == (m.feature_dim,)
