"""Tests for text-based and multimodal KGE substitutes."""
import numpy as np
import pandas as pd
import pytest

from repro.kge.data import KGEDataset
from repro.kge.evaluate import evaluate
from repro.kge.multimodal import (
    MKGformerLite,
    RSME,
    TransAE,
    synth_image_features,
)
from repro.kge.text import (
    GenKGCSim,
    KGBERTSim,
    StARSim,
    entity_texts_for,
    hash_text_features,
)


def _toy_dataset(seed=0):
    g = np.random.default_rng(seed)
    h = g.integers(0, 29, 600)
    r = g.integers(0, 3, 600)
    t = h + (r + 1) * 3
    df = pd.DataFrame(
        {"h": [f"e{i}" for i in h], "r": [f"r{i}" for i in r], "t": [f"e{i}" for i in t]}
    ).drop_duplicates()
    n = len(df)
    return KGEDataset.from_frames(
        df.iloc[: n - 20], df.iloc[n - 20 : n - 10], df.iloc[n - 10 :]
    )


# ---- text features ---------------------------------------------------------

def test_hash_features_deterministic_and_normalized():
    X = hash_text_features(["hello world", "abc"], dim=64)
    Y = hash_text_features(["hello world", "abc"], dim=64)
    np.testing.assert_array_equal(X, Y)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, rtol=1e-9)


def test_similar_texts_have_similar_features():
    X = hash_text_features(["a0001v08", "a0001v09", "zzzz_qqqq"], dim=128)
    sim_close = X[0] @ X[1]
    sim_far = X[0] @ X[2]
    assert sim_close > sim_far + 0.3


def test_entity_texts_fallback():
    out = entity_texts_for(["prod:1", "a0001v08"], {"prod:1": "nice title"})
    assert out == ["nice title", "a0001v08"]


TEXT_MODELS = [KGBERTSim, StARSim, GenKGCSim]


@pytest.mark.parametrize("Model", TEXT_MODELS)
def test_text_models_learn_toy(Model):
    data = _toy_dataset()
    X = hash_text_features(data.entities, dim=128)
    m = Model(data.n_ent, data.n_rel, X, dim=16, seed=1).fit(
        data, epochs=40, batch_size=64, neg_k=4
    )
    res = evaluate(m, data, directions=("tail", "head"))
    assert res["mr"] < data.n_ent / 2, res


@pytest.mark.parametrize("Model", TEXT_MODELS + [TransAE, RSME, MKGformerLite])
@pytest.mark.parametrize("tails", [True, False])
def test_text_score_candidates_consistent(Model, tails):
    data = _toy_dataset()
    if Model in TEXT_MODELS:
        X = hash_text_features(data.entities, dim=64)
    else:
        cat = pd.Series({e: f"cat:{int(e[1:]) % 4}" for e in data.entities})
        X = synth_image_features(data.entities, cat, dim=8)
    m = Model(data.n_ent, data.n_rel, X, dim=8, seed=2)
    fast = m.score_candidates(3, 1, tails=tails)
    cand = np.arange(data.n_ent, dtype=np.int32)
    if tails:
        batch = np.stack([np.full(data.n_ent, 3), np.full(data.n_ent, 1), cand], axis=1)
    else:
        batch = np.stack([cand, np.full(data.n_ent, 1), np.full(data.n_ent, 3)], axis=1)
    np.testing.assert_allclose(fast, m.score_triples(batch.astype(np.int32)), rtol=1e-8)


# ---- image features --------------------------------------------------------

def test_image_features_zero_for_nonvisual():
    cat = pd.Series({"e1": "cat:A", "e3": "cat:B"})
    X = synth_image_features(["e0", "e1", "e2", "e3"], cat, dim=8)
    assert np.allclose(X[0], 0) and np.allclose(X[2], 0)
    assert np.linalg.norm(X[1]) > 0.99


def test_image_features_cluster_by_category():
    cat = pd.Series({"a": "cat:A", "b": "cat:A", "c": "cat:B"})
    X = synth_image_features(["a", "b", "c"], cat, dim=32)
    assert X[0] @ X[1] > X[0] @ X[2]


def test_image_features_deterministic():
    cat = pd.Series({"a": "cat:A"})
    X = synth_image_features(["a"], cat, dim=8)
    Y = synth_image_features(["a"], cat, dim=8)
    np.testing.assert_array_equal(X, Y)


MM_MODELS = [TransAE, RSME, MKGformerLite]


@pytest.mark.parametrize("Model", MM_MODELS)
def test_multimodal_models_learn_toy(Model):
    data = _toy_dataset()
    cat = pd.Series({e: f"cat:{int(e[1:]) % 4}" for e in data.entities})
    img = synth_image_features(data.entities, cat, dim=8)
    m = Model(data.n_ent, data.n_rel, img, dim=16, seed=1).fit(
        data, epochs=40, batch_size=64, neg_k=4
    )
    res = evaluate(m, data, directions=("tail", "head"))
    assert res["mr"] < data.n_ent / 2, res


@pytest.mark.parametrize("Model", MM_MODELS)
def test_multimodal_uses_visual_channel(Model):
    """V must receive gradient — visual features participate in training."""
    data = _toy_dataset()
    cat = pd.Series({e: "cat:X" for e in data.entities})
    img = synth_image_features(data.entities, cat, dim=8)
    m = Model(data.n_ent, data.n_rel, img, dim=16, seed=1)
    v0 = m.params["V"].copy()
    m.fit(data, epochs=2, batch_size=64, neg_k=2)
    assert not np.allclose(v0, m.params["V"])


def test_rsme_gate_moves():
    data = _toy_dataset()
    cat = pd.Series({e: "cat:X" for e in data.entities})
    img = synth_image_features(data.entities, cat, dim=8)
    m = RSME(data.n_ent, data.n_rel, img, dim=16, seed=1)
    g0 = m.params["G"].copy()
    m.fit(data, epochs=3, batch_size=64, neg_k=2)
    assert not np.allclose(g0, m.params["G"])
