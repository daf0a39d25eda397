"""Integration tests: the five downstream tasks on the mid-scale world.

Assertions encode the paper's *mechanism-driven* qualitative findings
(KG features help, domain pre-training helps, low-resource amplifies
the KG edge) with loose tolerances — exact magnitudes belong to
EXPERIMENTS.md at experiment scale.
"""
from collections import Counter

import numpy as np
import pytest

from repro.downstream import train_valid_split
from repro.downstream.category_pred import (
    build_dataset as build_cat_dataset,
    k_shot_subsample,
    run_category_prediction,
)
from repro.downstream.ie_reviews import run_ie
from repro.downstream.ner_titles import (
    build_ner_dataset,
    k_shot_subsample as ner_k_shot,
    run_ner,
)
from repro.downstream.salience import build_dataset as build_sal_dataset, run_salience
from repro.downstream.summarization import build_dataset as build_summ_dataset, run_summarization

SUBSET = ["RoBERTa-large", "mPLUG-base", "mPLUG-base+KG"]


@pytest.fixture(scope="module")
def models(grid_mid):
    return {k: grid_mid[k] for k in SUBSET}


# ---- category prediction ---------------------------------------------------

def test_category_dataset_shape(kg_mid):
    ds = build_cat_dataset(kg_mid, items_per_product=2)
    assert len(ds) == 2 * kg_mid.catalog.n_products
    leaves = set(kg_mid.onto.taxonomies["Category"].leaves()["node_id"])
    assert set(ds["category"]) <= leaves


def test_category_dataset_deterministic(kg_mid):
    a = build_cat_dataset(kg_mid, seed=1)
    b = build_cat_dataset(kg_mid, seed=1)
    assert a.equals(b)


def test_k_shot_subsample_sizes(kg_mid):
    ds = build_cat_dataset(kg_mid)
    sub = k_shot_subsample(ds, k=1)
    assert len(sub) == ds["category"].nunique()
    sub5 = k_shot_subsample(ds, k=5)
    assert (sub5.groupby("category").size() <= 5).all()


def test_category_prediction_orderings(kg_mid, models):
    ds = build_cat_dataset(kg_mid)
    acc = run_category_prediction(kg_mid, models, dataset=ds, epochs=15)
    assert all(0 <= v <= 1 for v in acc.values())
    # KG features never hurt materially; domain ≥ general (loose)
    assert acc["mPLUG-base+KG"] >= acc["mPLUG-base"] - 0.03
    assert acc["mPLUG-base"] >= acc["RoBERTa-large"] - 0.05


def test_category_low_resource_kg_gap(kg_mid, models):
    """1-shot: the KG prior channel must add a clear margin."""
    ds = build_cat_dataset(kg_mid)
    acc = run_category_prediction(kg_mid, models, dataset=ds, k_shot=1, epochs=15)
    assert acc["mPLUG-base+KG"] > acc["mPLUG-base"]


# ---- NER -------------------------------------------------------------------

def test_ner_dataset_tags_well_formed(kg_mid):
    ds = build_ner_dataset(kg_mid)
    assert len(ds) == kg_mid.catalog.n_products
    for toks, tags in ds[:100]:
        assert len(toks) == len(tags)
        assert all(t == "O" or t.startswith("B-") for t in tags)


def test_ner_k_shot_quota(kg_mid):
    ds = build_ner_dataset(kg_mid)
    sub = ner_k_shot(ds, k=1)
    assert 0 < len(sub) < len(ds)


@pytest.mark.parametrize("k", [1, 5])
def test_ner_k_shot_greedy_cover(kg_mid, k):
    """Every entity type of the train split appears in at least
    min(k, its train count) picked sentences."""
    train, _ = train_valid_split(build_ner_dataset(kg_mid))
    picked = ner_k_shot(train, k=k)

    def type_counts(sents):
        c = Counter()
        for _, tags in sents:
            c.update({t[2:] for t in tags if t.startswith("B-")})
        return c

    have = type_counts(picked)
    for tp, n in type_counts(train).items():
        assert have[tp] >= min(k, n), tp


def test_ner_orderings(kg_mid, models):
    ds = build_ner_dataset(kg_mid)[:1200]
    res = run_ner(kg_mid, models, dataset=ds, epochs=3)
    f = {k: v[2] for k, v in res.items()}
    assert all(0 <= v <= 1 for v in f.values())
    assert f["mPLUG-base+KG"] >= f["mPLUG-base"] - 0.02
    assert f["mPLUG-base+KG"] > 0.5


def test_ner_low_resource_kg_gap(kg_mid, models):
    ds = build_ner_dataset(kg_mid)[:1200]
    res = run_ner(kg_mid, models, dataset=ds, k_shot=1, epochs=3)
    assert res["mPLUG-base+KG"][2] > res["mPLUG-base"][2]


# ---- summarization ---------------------------------------------------------

def test_summarization_dataset(kg_mid):
    ds = build_summ_dataset(kg_mid)
    assert {"long", "ref"} <= set(ds.columns)
    for long, ref in ds[["long", "ref"]].head(50).itertuples(index=False):
        assert set(ref.split()) <= set(long.split())
        assert len(long.split()) > len(ref.split())


def test_summarization_scores(kg_mid, models):
    ds = build_summ_dataset(kg_mid).head(1500)
    res = run_summarization(kg_mid, models, dataset=ds, epochs=10)
    assert all(0 <= v <= 1 for v in res.values())
    assert res["mPLUG-base+KG"] >= res["RoBERTa-large"] - 0.03
    assert res["mPLUG-base+KG"] > 0.5


# ---- IE --------------------------------------------------------------------

def test_ie_scores(kg_mid, models, reviews_mid):
    res = run_ie(kg_mid, models, reviews_mid.head(1500), epochs=3)
    for p, r, f in res.values():
        assert 0 <= p <= 1 and 0 <= r <= 1
    assert res["mPLUG-base+KG"][2] > 0.5


# ---- salience --------------------------------------------------------------

def test_salience_dataset_balanced(kg_mid):
    ds = build_sal_dataset(kg_mid)
    if len(ds) == 0:
        pytest.skip("concept taxonomies too small at this scale")
    counts = ds["label"].value_counts()
    assert counts.get(0, 0) == counts.get(1, 0)


def test_salience_kg_edge(kg_mid, models):
    ds = build_sal_dataset(kg_mid)
    if len(ds) < 50:
        pytest.skip("salience dataset degenerate at this scale")
    res = run_salience(kg_mid, models, dataset=ds, epochs=20)
    assert res["mPLUG-base+KG"] >= res["mPLUG-base"]
    assert res["mPLUG-base+KG"] > 0.6


def test_salience_handles_empty(kg, grid_mid):
    """At tiny scale the dataset is empty → run returns {} gracefully."""
    res = run_salience(kg, {"mPLUG-base": grid_mid["mPLUG-base"]})
    assert res == {} or all(0 <= v <= 1 for v in res.values())
