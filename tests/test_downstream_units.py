"""Unit tests for downstream-task components (no Spark, no full world)."""
import numpy as np
import pandas as pd
import pytest

from repro.downstream import train_valid_split
from repro.downstream.classifier import SoftmaxClassifier
from repro.downstream.ie_reviews import (
    assemble_triples,
    role_tags_for,
    triple_prf,
)
from repro.downstream.rouge import corpus_rouge_l, lcs_length, rouge_l
from repro.pretrain.features import TokenEmbeddings, hashed_bow, kmeans_clusters
from repro.pretrain.corpus import general_texts


# ---- ROUGE-L ---------------------------------------------------------------

@pytest.mark.parametrize(
    "a,b,expected",
    [
        (["a", "b", "c"], ["a", "b", "c"], 3),
        (["a", "b", "c"], ["a", "x", "c"], 2),
        (["a", "b"], ["b", "a"], 1),
        ([], ["a"], 0),
        (["x"], ["y"], 0),
    ],
)
def test_lcs_length(a, b, expected):
    assert lcs_length(a, b) == expected


def test_rouge_l_perfect_and_zero():
    assert rouge_l(["a", "b"], ["a", "b"]) == 1.0
    assert rouge_l(["x"], ["y"]) == 0.0
    assert rouge_l([], ["y"]) == 0.0


def test_rouge_l_partial_known_value():
    # pred=[a,b,c,d], ref=[a,c]: LCS=2, P=0.5, R=1.0, beta=1.2
    got = rouge_l(["a", "b", "c", "d"], ["a", "c"])
    beta2 = 1.2**2
    expected = (1 + beta2) * 0.5 * 1.0 / (1.0 + beta2 * 0.5)
    assert np.isclose(got, expected)


def test_corpus_rouge_mean():
    val = corpus_rouge_l([["a"], ["x"]], [["a"], ["y"]])
    assert np.isclose(val, 0.5)


# ---- IE assembly -----------------------------------------------------------

def test_role_tags_from_gold():
    toks = "rf_a cushion prop_quality op_good rf_b".split()
    tags = role_tags_for(toks, "cushion|prop_quality|op_good")
    assert tags == ["O", "B-ASP", "B-PROP", "B-OP", "O"]


def test_assemble_triples_nearest():
    toks = ["c", "q", "g", "c2", "s", "f"]
    tags = ["B-ASP", "B-PROP", "B-OP", "B-ASP", "B-PROP", "B-OP"]
    got = assemble_triples(toks, tags)
    assert got == {("c", "q", "g"), ("c2", "s", "f")}


def test_assemble_skips_unpaired_prop():
    toks = ["q", "g"]
    tags = ["B-PROP", "B-OP"]  # no aspect anywhere
    assert assemble_triples(toks, tags) == set()


def test_triple_prf_hand_computed():
    gold = [{("a", "p", "o")}, {("b", "q", "u"), ("c", "r", "v")}]
    pred = [{("a", "p", "o")}, {("b", "q", "u"), ("x", "y", "z")}]
    p, r, f = triple_prf(gold, pred)
    assert np.isclose(p, 2 / 3)
    assert np.isclose(r, 2 / 3)
    assert np.isclose(f, 2 / 3)


# ---- classifier ------------------------------------------------------------

def test_softmax_classifier_learns_linear_task():
    g = np.random.default_rng(0)
    X = g.normal(0, 1, (400, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    clf = SoftmaxClassifier(2, 6, seed=1).fit(X, y, epochs=40)
    assert clf.accuracy(X, y) > 0.95


def test_softmax_classifier_uses_prior_channel():
    """With useless dense features, an informative prior must carry the
    task (KG-feature channel)."""
    g = np.random.default_rng(0)
    n, C = 300, 4
    X = g.normal(0, 1, (n, 3)) * 0.01
    y = g.integers(0, C, n)
    priors = np.full((n, C, 1), -3.0)
    priors[np.arange(n), y, 0] = 0.0
    clf = SoftmaxClassifier(C, 3, n_priors=1, seed=1).fit(
        X, y, priors, epochs=40
    )
    assert clf.accuracy(X, y, priors) > 0.95
    assert clf.alpha[0] > 0


def test_softmax_classifier_deterministic():
    g = np.random.default_rng(0)
    X = g.normal(0, 1, (100, 4))
    y = (X[:, 0] > 0).astype(int)
    a = SoftmaxClassifier(2, 4, seed=5).fit(X, y, epochs=5)
    b = SoftmaxClassifier(2, 4, seed=5).fit(X, y, epochs=5)
    np.testing.assert_array_equal(a.W, b.W)


# ---- embeddings ------------------------------------------------------------

def test_token_embeddings_cooccurrence_structure():
    corpus = [["a", "b"], ["a", "b"], ["a", "b"], ["c", "d"], ["c", "d"], ["c", "d"]]
    emb = TokenEmbeddings.train(corpus, dim=4, seed=0)
    va, vb = emb.vector("a"), emb.vector("b")
    vc = emb.vector("c")
    # a co-occurs with b, never with c — its context profile matches b's
    assert abs(va @ vb) >= abs(va @ vc) - 1e-9


def test_token_embeddings_oov():
    emb = TokenEmbeddings.train([["x", "y"]], dim=4)
    assert emb.vector("zzz") is None
    enc = emb.encode(["x", "zzz"])
    assert enc.shape == (5,)
    assert enc[-1] == 0.5  # half the tokens OOV


def test_hashed_bow_deterministic_and_normalized():
    a = hashed_bow(["t1", "t2"], dim=16)
    b = hashed_bow(["t1", "t2"], dim=16)
    np.testing.assert_array_equal(a, b)
    assert np.isclose(np.linalg.norm(a), 1.0)


def test_kmeans_clusters_cover_vocab():
    emb = TokenEmbeddings.train(general_texts(100), dim=8)
    cl = kmeans_clusters(emb, 4, seed=1)
    assert set(cl) == set(emb.vocab)
    assert set(cl.values()) <= set(range(4))


def test_general_texts_deterministic():
    assert general_texts(50, seed=1) == general_texts(50, seed=1)
    assert general_texts(50, seed=1) != general_texts(50, seed=2)


# ---- shared protocol -------------------------------------------------------

def test_train_valid_split_same_rows_for_frames_and_lists():
    df = pd.DataFrame({"x": range(200)})
    tr, va = train_valid_split(df)
    ltr, lva = train_valid_split(list(range(200)))
    assert list(tr["x"]) == ltr and list(va["x"]) == lva
    assert sorted(ltr + lva) == list(range(200))
    assert 140 <= len(ltr) <= 180
