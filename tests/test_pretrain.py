"""Tests for the pre-training substrate (corpora, KG features, grid)."""
import math
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core.config import TEST_CONFIG
from repro.pretrain.corpus import (
    general_texts,
    kg_text_corpus,
    supervised_pairs,
    unsupervised_texts,
)
from repro.pretrain.features import MAX_VOCAB, WINDOW, cooccurrence
from repro.pretrain.model import token_logpriors


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


def _reference_cooccurrence(corpus, vocab):
    """The per-token loop :func:`cooccurrence` replaced."""
    V = len(vocab)
    C = np.zeros((V, V))
    for sent in corpus:
        idx = [vocab.get(t, -1) for t in sent]
        for i, a in enumerate(idx):
            if a < 0:
                continue
            for j in range(max(0, i - WINDOW), min(len(idx), i + WINDOW + 1)):
                b = idx[j]
                if b >= 0 and j != i:
                    C[a, b] += 1.0
    return C


def test_cooccurrence_matches_reference(world):
    kg, reviews = world
    corpus = unsupervised_texts(kg, reviews) + kg_text_corpus(kg) + general_texts()
    freq = Counter(t for sent in corpus for t in sent)
    for top in (MAX_VOCAB, 500):  # the second leaves tokens out of vocabulary
        vocab = {t: i for i, (t, _) in enumerate(freq.most_common(top))}
        C = cooccurrence(corpus, vocab)
        assert C.dtype == np.float64
        assert np.array_equal(C, _reference_cooccurrence(corpus, vocab))
    tiny = [[], ["a"], ["a", "a", "oov", "b"], ["b", "a"], ["b"]]
    small = {"a": 0, "b": 1}
    assert np.array_equal(cooccurrence(tiny, small), _reference_cooccurrence(tiny, small))
    assert cooccurrence([], {}).shape == (0, 0)


def _reference_logpriors(counts):
    """The groupby/itertuples loop :func:`token_logpriors` replaced."""
    token_cat = {}
    for c in counts:
        for token, grp in c.groupby("token"):
            tot = grp["n"].sum()
            d = token_cat.setdefault(token, {})
            for cat, n in grp[["category", "n"]].itertuples(index=False):
                d[cat] = math.log((n + 0.1) / (tot + 1.0))
    return token_cat


def test_token_logpriors_match_reference(world):
    """Same values and the same token and category order, over count
    frames in arbitrary row order, with tokens and (token, category)
    pairs repeated across sources."""
    kg, _ = world
    cat = kg.catalog
    g = np.random.default_rng(0)

    def counts(df):
        c = df.groupby(["token", "category"]).size().rename("n").reset_index()
        return c.iloc[g.permutation(len(c))].reset_index(drop=True)

    prods = cat.products[["product_id", "category"]]
    brands = counts(cat.products.dropna(subset=["brand_surface"]).rename(
        columns={"brand_surface": "token"}))
    values = counts(cat.attributes.rename(columns={"value": "token"}).merge(prods))
    again = brands.sample(frac=0.5, random_state=1).assign(n=lambda d: d["n"] + 3)
    frames = [brands, values, again]
    new, ref = token_logpriors(frames), _reference_logpriors(frames)
    assert len(again) > 0 and len(new) > 100
    assert [(t, list(d.items())) for t, d in new.items()] == [
        (t, list(d.items())) for t, d in ref.items()
    ]
    assert token_logpriors([pd.DataFrame(columns=["token", "category", "n"])]) == {}
