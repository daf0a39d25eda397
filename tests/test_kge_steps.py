"""The shared KGE training step against reference implementations:
TuckER's per-relation contraction, the batched negative-sample filter
and the memoised entity matrix."""
import numpy as np
import pandas as pd
import pytest

from repro.kge.data import KGEDataset, negative_sample
from repro.kge.multimodal import RSME, TransAE, synth_image_features
from repro.kge.text import KGBERTSim, StARSim, hash_text_features
from repro.kge.tucker import TuckER
from tests.kge_helpers import known_triples


# ---- TuckER -----------------------------------------------------------------

def _outer(a, b):
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def reference_score(m, tr):
    """The row-by-row d³ score: vec(h ⊗ r) · W(ij)k · t."""
    E, R, W = m.params["E"], m.params["R"], m.params["W"]
    h, r, t = E[tr[:, 0]], R[tr[:, 1]], E[tr[:, 2]]
    hr = _outer(h, r) @ W.reshape(m.dim * m.dim, m.dim)
    return np.einsum("bk,bk->b", hr, t)


def reference_bce_grads(m, tr, g, E):
    """The row-by-row d³ gradients and updates, in the same order."""
    d = m.dim
    R, W = m.params["R"], m.params["W"]
    h, r, t = E[tr[:, 0]], R[tr[:, 1]], E[tr[:, 2]]
    h_r = _outer(h, r)
    gt_scaled = g * t
    g_t = g * (h_r @ W.reshape(d * d, d))
    g_h = _outer(r, gt_scaled) @ W.transpose(1, 2, 0).reshape(d * d, d)
    g_r = _outer(h, gt_scaled) @ W.transpose(0, 2, 1).reshape(d * d, d)
    g_W = (h_r.T @ gt_scaled).reshape(d, d, d)
    m.sparse_update("E", tr[:, 0], g_h)
    m.sparse_update("E", tr[:, 2], g_t)
    m.sparse_update("R", tr[:, 1], g_r)
    m.dense_update("W", g_W)


def _batch(g, n_ent, n_rel, n_rows):
    return np.stack([g.integers(0, n_ent, n_rows), g.integers(0, n_rel, n_rows),
                     g.integers(0, n_ent, n_rows)], axis=1).astype(np.int32)


#: (n_rel, rows): one relation, many relations, more relations than rows
BATCHES = [(1, 60), (7, 300), (50, 20)]


def _close(new, old):
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12 * np.abs(old).max())


@pytest.mark.parametrize("n_rel,rows", BATCHES)
def test_tucker_score_matches_reference(n_rel, rows):
    m = TuckER(40, n_rel, dim=6, seed=1)
    tr = _batch(np.random.default_rng(n_rel), 40, n_rel, rows)
    _close(m.score_triples(tr), reference_score(m, tr))


@pytest.mark.parametrize("n_rel,rows", BATCHES)
def test_tucker_step_matches_reference(n_rel, rows):
    new, old = TuckER(40, n_rel, dim=6, seed=1), TuckER(40, n_rel, dim=6, seed=1)
    old.score_triples = lambda tr, E=None: reference_score(old, tr)
    old.bce_grads = lambda tr, g, E: reference_bce_grads(old, tr, g, E)
    g = np.random.default_rng(n_rel)
    for _ in range(3):
        pos, neg = _batch(g, 40, n_rel, rows), _batch(g, 40, n_rel, 2 * rows)
        assert np.isclose(new.train_step(pos, neg), old.train_step(pos, neg),
                          rtol=1e-12, atol=0)
    for name in ("E", "R", "W"):
        _close(new.params[name], old.params[name])


def test_tucker_gradients_central_differences():
    """bce_grads' E, R and W gradients equal central finite differences
    of L = Σ g·s (the BCE step's linearisation at fixed dL/ds = g)."""
    m = TuckER(9, 4, dim=3, seed=2)
    g = np.random.default_rng(5)
    tr = _batch(g, 9, 4, 25)
    w = g.normal(size=(len(tr), 1))
    got = {name: np.zeros_like(p) for name, p in m.params.items()}

    def sparse(name, idx, grad):
        np.add.at(got[name], idx, grad)

    def dense(name, grad):
        got[name] += grad

    m.sparse_update, m.dense_update = sparse, dense
    m.bce_grads(tr, w, m.params["E"])

    def loss():
        return float(w[:, 0] @ m.score_triples(tr))

    eps = 1e-6
    for name in ("E", "R", "W"):
        p = m.params[name]
        fd = np.zeros_like(p)
        for ix in np.ndindex(p.shape):
            keep = p[ix]
            p[ix] = keep + eps
            up = loss()
            p[ix] = keep - eps
            down = loss()
            p[ix] = keep
            fd[ix] = (up - down) / (2 * eps)
        np.testing.assert_allclose(got[name], fd, rtol=1e-6, atol=1e-8)


# ---- negative sampling -------------------------------------------------------

def reference_negative_sample(pos, n_ent, k, rng, known):
    """The row-by-row filter over the set of known triples."""
    n = len(pos)
    neg = np.repeat(pos, k, axis=0)
    corrupt_tail = rng.random(n * k) < 0.5
    repl = rng.integers(0, n_ent, n * k)
    neg[corrupt_tail, 2] = repl[corrupt_tail]
    neg[~corrupt_tail, 0] = repl[~corrupt_tail]
    redrawn = 0
    for i in range(len(neg)):
        if tuple(neg[i]) in known:
            col = 2 if corrupt_tail[i] else 0
            neg[i, col] = rng.integers(0, n_ent)
            redrawn += 1
    return neg, redrawn


def _dense_dataset(n_ent=8, n_rel=3, seed=0):
    """Two thirds of all possible triples are true: corruptions collide."""
    g = np.random.default_rng(seed)
    every = [(h, r, t) for h in range(n_ent) for r in range(n_rel) for t in range(n_ent)]
    take = g.permutation(len(every))[: 2 * len(every) // 3]
    df = pd.DataFrame([every[i] for i in take], columns=["h", "r", "t"])
    df = df.assign(h="e" + df["h"].astype(str), r="r" + df["r"].astype(str),
                   t="e" + df["t"].astype(str))
    return KGEDataset.from_frames(df.iloc[:-20], df.iloc[-20:-10], df.iloc[-10:])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_negative_sample_matches_reference_loop(seed):
    data = _dense_dataset(seed=seed)
    redrawn = 0
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for s in range(0, len(data.train), 64):
        pos = data.train[s : s + 64]
        got = negative_sample(pos, data.n_ent, 3, a, data.known_keys)
        want, n = reference_negative_sample(pos, data.n_ent, 3, b, known_triples(data))
        redrawn += n
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
    assert redrawn > 0
    assert a.bit_generator.state == b.bit_generator.state


def test_known_keys_are_the_known_set():
    data = _dense_dataset()
    assert len(data.known_keys) == len(known_triples(data))
    assert np.all(np.diff(data.known_keys) > 0)


# ---- memoised entity matrix --------------------------------------------------

def _toy():
    df = _dense_dataset(n_ent=10, n_rel=2, seed=4)
    cat = pd.Series({e: f"cat:{int(e[1:]) % 3}" for e in df.entities})
    return df, hash_text_features(df.entities, dim=32), synth_image_features(df.entities, cat, dim=8)


@pytest.mark.parametrize("Model,feature,param", [
    (KGBERTSim, "text", "P"), (StARSim, "text", "P"),
    (TransAE, "img", "V"), (RSME, "img", "V"), (RSME, "img", "G"),
])
def test_entity_embeddings_memo_is_fresh(Model, feature, param):
    data, X, img = _toy()
    m = Model(data.n_ent, data.n_rel, X if feature == "text" else img, dim=4, seed=3)

    def computed():
        return type(m).entity_embeddings.__wrapped__(m)

    first = m.entity_embeddings()
    assert m.entity_embeddings() is first
    np.testing.assert_array_equal(first, computed())
    m.fit(data, epochs=1, batch_size=32, neg_k=2)
    after_fit = m.entity_embeddings()
    assert not np.allclose(after_fit, first)
    np.testing.assert_array_equal(after_fit, computed())
    scores = m.score_candidates(1, 0)
    m.params[param] = m.params[param] + 0.5
    moved = m.entity_embeddings()
    assert not np.allclose(moved, after_fit)
    np.testing.assert_array_equal(moved, computed())
    assert not np.allclose(m.score_candidates(1, 0), scores)


@pytest.mark.parametrize("Model", [TransAE, RSME])
def test_entity_embeddings_memo_follows_sparse_update(Model):
    data, _, img = _toy()
    m = Model(data.n_ent, data.n_rel, img, dim=4, seed=3)
    before = m.entity_embeddings().copy()
    m.sparse_update("E", np.array([2, 2]), np.ones((2, 4)))
    after = m.entity_embeddings()
    np.testing.assert_array_equal(after, type(m).entity_embeddings.__wrapped__(m))
    assert not np.allclose(after[2], before[2])
    np.testing.assert_array_equal(np.delete(after, 2, 0), np.delete(before, 2, 0))
