"""Unit tests for the structural KGE models (scores, grads, training)."""
import numpy as np
import pytest

from repro.kge.bilinear import ComplEx, DistMult
from repro.kge.data import KGEDataset, negative_sample
from repro.kge.evaluate import evaluate, metrics_from_ranks
from repro.kge.trans import TransD, TransE, TransH
from repro.kge.tucker import TuckER
from tests.kge_helpers import known_triples

ALL_MODELS = [TransE, TransH, TransD, DistMult, ComplEx, TuckER]


def _toy_dataset(n_ent=20, n_rel=3, n=200, seed=0):
    """Learnable toy KG: t = h + 3(r+1), no wraparound.

    A *translational* regularity (cyclic/mod structures are not
    representable by h + r ≈ t, so they would be an unfair toy task for
    the Trans* family).
    """
    import pandas as pd

    g = np.random.default_rng(seed)
    h = g.integers(0, 29, n * 3)
    r = g.integers(0, n_rel, n * 3)
    t = h + (r + 1) * 3
    df = pd.DataFrame(
        {"h": [f"e{i}" for i in h], "r": [f"r{i}" for i in r], "t": [f"e{i}" for i in t]}
    ).drop_duplicates()
    n_all = len(df)
    return KGEDataset.from_frames(
        df.iloc[: n_all - 20], df.iloc[n_all - 20 : n_all - 10], df.iloc[n_all - 10 :]
    )


# ---- hand-computed scores --------------------------------------------------

def test_transe_score_hand_computed():
    m = TransE(2, 1, dim=2)
    m.params["E"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    m.params["R"] = np.array([[-1.0, 1.0]])
    # h=0: h+r = (0,1) == t=1 → distance 0 → score 0
    assert np.isclose(m.score_triples(np.array([[0, 0, 1]]))[0], 0.0)
    # t=0: diff = (-1, 1) → d = 2 → score -2
    assert np.isclose(m.score_triples(np.array([[0, 0, 0]]))[0], -2.0)


def test_distmult_score_hand_computed():
    m = DistMult(2, 1, dim=2)
    m.params["E"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    m.params["R"] = np.array([[0.5, 0.25]])
    # s = Σ h∘r∘t = 1·0.5·3 + 2·0.25·4 = 1.5 + 2 = 3.5
    assert np.isclose(m.score_triples(np.array([[0, 0, 1]]))[0], 3.5)


def test_distmult_is_symmetric():
    m = DistMult(5, 2, dim=8, seed=3)
    a = m.score_triples(np.array([[1, 0, 3]]))[0]
    b = m.score_triples(np.array([[3, 0, 1]]))[0]
    assert np.isclose(a, b)


def test_complex_handles_asymmetry():
    m = ComplEx(5, 2, dim=8, seed=3)
    a = m.score_triples(np.array([[1, 0, 3]]))[0]
    b = m.score_triples(np.array([[3, 0, 1]]))[0]
    assert not np.isclose(a, b)


def test_complex_score_matches_complex_arithmetic():
    m = ComplEx(3, 1, dim=4, seed=1)
    E, R = m.params["E"], m.params["R"]
    h = E[0, :2] + 1j * E[0, 2:]
    r = R[0, :2] + 1j * R[0, 2:]
    t = E[1, :2] + 1j * E[1, 2:]
    expected = np.real(np.sum(h * r * np.conj(t)))
    got = m.score_triples(np.array([[0, 0, 1]]))[0]
    assert np.isclose(got, expected)


def test_transh_projection_removes_normal_component():
    m = TransH(2, 1, dim=2)
    m.params["E"] = np.array([[1.0, 1.0], [1.0, -1.0]])
    m.params["W"] = np.array([[1.0, 0.0]])  # project out x
    m.params["R"] = np.array([[0.0, 2.0]])
    # h⊥ = (0,1); t⊥ = (0,-1); h⊥+d−t⊥ = (0, 4) → d=16
    assert np.isclose(m.score_triples(np.array([[0, 0, 1]]))[0], -16.0)


def test_tucker_score_hand_computed():
    m = TuckER(2, 1, dim=2)
    W = np.zeros((2, 2, 2))
    W[0, 0, 0] = 1.0
    W[1, 1, 1] = 2.0
    m.params["W"] = W
    m.params["E"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    m.params["R"] = np.array([[1.0, 1.0]])
    # s = W000·h0·r0·t0 + W111·h1·r1·t1 = 1·1·1·3 + 2·2·1·4 = 19
    assert np.isclose(m.score_triples(np.array([[0, 0, 1]]))[0], 19.0)


# ---- score_candidates consistency -----------------------------------------

@pytest.mark.parametrize("Model", ALL_MODELS)
@pytest.mark.parametrize("tails", [True, False])
def test_score_candidates_matches_batch(Model, tails):
    m = Model(12, 3, seed=5)
    h, r = 4, 1
    fast = m.score_candidates(h, r, tails=tails)
    cand = np.arange(12, dtype=np.int32)
    if tails:
        batch = np.stack([np.full(12, h), np.full(12, r), cand], axis=1)
    else:
        batch = np.stack([cand, np.full(12, r), np.full(12, h)], axis=1)
    slow = m.score_triples(batch.astype(np.int32))
    np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)


# ---- gradient checks (numerical) ------------------------------------------

@pytest.mark.parametrize("Model", [TransE, TransH, TransD])
def test_margin_models_decrease_pos_distance(Model):
    m = Model(10, 2, dim=8, seed=1, lr=0.05)
    pos = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int32)
    neg = np.array([[0, 0, 5], [2, 1, 7]], dtype=np.int32)
    d0 = -m.score_triples(pos).sum() + m.score_triples(neg).sum()
    for _ in range(30):
        m.train_step(pos, neg)
    d1 = -m.score_triples(pos).sum() + m.score_triples(neg).sum()
    assert d1 < d0  # margin objective pushed pos closer / neg further


@pytest.mark.parametrize("Model", [DistMult, ComplEx, TuckER])
def test_bce_models_separate_pos_neg(Model):
    m = Model(10, 2, seed=1, lr=0.2)
    pos = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int32)
    neg = np.array([[0, 0, 5], [2, 1, 7]], dtype=np.int32)
    for _ in range(60):
        m.train_step(pos, neg)
    assert m.score_triples(pos).min() > m.score_triples(neg).max()


# ---- end-to-end learning ---------------------------------------------------

@pytest.mark.parametrize("Model", ALL_MODELS)
def test_models_beat_random_on_toy_kg(Model):
    data = _toy_dataset()
    m = Model(data.n_ent, data.n_rel, seed=2).fit(
        data, epochs=40, batch_size=64, neg_k=4
    )
    # both directions → 20 ranks, less noisy than the 10-triple tail set
    res = evaluate(m, data, directions=("tail", "head"))
    random_mr = data.n_ent / 2
    assert res["mr"] < random_mr, res
    assert res["hits10"] > 0.3, res


def test_negative_sample_shapes_and_corruption():
    g = np.random.default_rng(0)
    pos = np.array([[1, 0, 2], [3, 1, 4]], dtype=np.int32)
    neg = negative_sample(pos, 50, 3, g)
    assert neg.shape == (6, 3)
    # relation column never corrupted
    assert (neg[:, 1] == np.repeat(pos[:, 1], 3)).all()
    # exactly one of h/t changed per row (or unlucky same-value draw)
    same_h = neg[:, 0] == np.repeat(pos[:, 0], 3)
    same_t = neg[:, 2] == np.repeat(pos[:, 2], 3)
    assert (same_h | same_t).all()


def test_metrics_from_ranks_hand_computed():
    ranks = np.array([1, 2, 10, 100])
    m = metrics_from_ranks(ranks)
    assert m["hits1"] == 0.25
    assert m["hits3"] == 0.5
    assert m["hits10"] == 0.75
    assert m["mr"] == 28.25
    assert np.isclose(m["mrr"], (1 + 0.5 + 0.1 + 0.01) / 4)


def test_dataset_indexing_roundtrip():
    data = _toy_dataset()
    assert data.train.shape[1] == 3
    assert len(known_triples(data)) == len(data.train) + len(data.dev) + len(data.test)
    assert data.n_ent == len(data.ent_idx)
    assert data.train[:, 1].max() < data.n_rel


def test_fit_deterministic():
    data = _toy_dataset()
    a = TransE(data.n_ent, data.n_rel, seed=9).fit(data, epochs=3)
    b = TransE(data.n_ent, data.n_rel, seed=9).fit(data, epochs=3)
    np.testing.assert_array_equal(a.params["E"], b.params["E"])
