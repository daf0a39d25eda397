"""Tests for filtered evaluation: batched scoring, CSR filters, ranks."""
import numpy as np
import pandas as pd
import pytest

from repro.kge.bilinear import ComplEx, DistMult
from repro.kge.data import KGEDataset
from repro.kge.evaluate import evaluate, ranks_numpy
from repro.kge.multimodal import MKGformerLite, RSME, TransAE
from repro.kge.text import GenKGCSim, KGBERTSim, StARSim, hash_text_features
from repro.kge.trans import TransD, TransE, TransH
from repro.kge.tucker import TuckER

STRUCTURAL = [TransE, TransH, TransD, DistMult, ComplEx, TuckER]
WITH_FEATURES = [KGBERTSim, StARSim, GenKGCSim, TransAE, RSME, MKGformerLite]


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


@pytest.fixture(scope="module")
def trained():
    data = _toy_dataset()
    model = TransE(data.n_ent, data.n_rel, seed=3).fit(data, epochs=20)
    return model, data


def _make(Model, data, seed=4):
    if Model in WITH_FEATURES:
        feats = hash_text_features(data.entities, dim=32)
        return Model(data.n_ent, data.n_rel, feats, dim=16, seed=seed)
    return Model(data.n_ent, data.n_rel, seed=seed)


@pytest.mark.parametrize("Model", STRUCTURAL + WITH_FEATURES)
@pytest.mark.parametrize("tails", [True, False])
def test_score_all_rows_equal_one_query_calls(Model, tails):
    """Each batched row is bit-identical to its one-query call, so a
    rank never depends on which chunk its query was scored in."""
    data = _toy_dataset()
    m = _make(Model, data)
    q = data.train[:12]
    anchors = q[:, 0] if tails else q[:, 2]
    batch = m.score_all(anchors, q[:, 1], tails=tails)
    single = np.stack([m.score_candidates(a, r, tails=tails)
                       for a, r in zip(anchors, q[:, 1])])
    assert batch.shape == (len(q), data.n_ent)
    assert np.array_equal(batch, single)


def _brute_force_ranks(model, data, tails):
    """Filtered ranks straight from ``known``, one query at a time."""
    out = []
    for h, r, t in data.test.tolist():
        anchor, gold = (h, t) if tails else (t, h)
        s = model.score_candidates(anchor, r, tails=tails).copy()
        others = [(tt if tails else hh) for hh, rr, tt in data.known
                  if rr == r and (hh if tails else tt) == anchor]
        s[[o for o in others if o != gold]] = -np.inf
        out.append(1 + int(np.sum(s > s[gold])))
    return out


@pytest.mark.parametrize("direction", ["tail", "head"])
def test_ranks_equal_brute_force_filtered(direction):
    """Many heads share each (r, t) and many tails each (h, r), so both
    filters remove known triples; each must key its own direction."""
    g = np.random.default_rng(1)
    df = pd.DataFrame({"h": g.integers(0, 12, 300), "r": g.integers(0, 2, 300),
                       "t": g.integers(0, 12, 300)}).astype(str).drop_duplicates()
    data = KGEDataset.from_frames(df.iloc[:-40], df.iloc[-40:-20], df.iloc[-20:])
    model = TransE(data.n_ent, data.n_rel, seed=3).fit(data, epochs=5, batch_size=32)
    got = ranks_numpy(model, data, directions=(direction,))
    assert got.tolist() == _brute_force_ranks(model, data, direction == "tail")


def test_filtered_better_or_equal_raw(trained):
    """Filtering known triples can only improve (lower) ranks."""
    model, data = trained
    ranks = ranks_numpy(model, data, directions=("tail", "head"))
    # rebuild unfiltered ranks by scoring directly
    raw = []
    for h, r, t in data.test:
        s = model.score_candidates(h, r, tails=True)
        raw.append(1 + int(np.sum(s > s[t])))
        s = model.score_candidates(t, r, tails=False)
        raw.append(1 + int(np.sum(s > s[h])))
    assert (ranks <= np.array(raw)).all()


def test_direction_control():
    """tail-only = default (paper protocol); both doubles the rank count."""
    df = __import__("pandas").DataFrame(
        {"h": ["a", "b", "c", "a"], "r": ["r"] * 4, "t": ["b", "c", "a", "c"]}
    )
    data = KGEDataset.from_frames(df.iloc[:2], df.iloc[2:3], df.iloc[3:])
    m = TransE(data.n_ent, data.n_rel, seed=0)
    tails = ranks_numpy(m, data)
    both = ranks_numpy(m, data, directions=("tail", "head"))
    assert len(both) == 2 * len(tails)


def test_perfect_model_gets_rank_one():
    """A model that scores the gold triple maximally ranks it first."""
    df = pd.DataFrame(
        {"h": ["a", "b", "c", "a"], "r": ["r", "r", "r", "q"], "t": ["b", "c", "a", "c"]}
    )
    data = KGEDataset.from_frames(df.iloc[:2], df.iloc[2:3], df.iloc[3:])

    class Oracle(TransE):
        def score_all(self, anchors, rels, tails=True):
            s = np.full((len(anchors), self.n_ent), -10.0)
            for i, (a, r) in enumerate(zip(anchors, rels)):
                for (hh, rr, tt) in data.known:
                    if tails and hh == a and rr == r:
                        s[i, tt] = 10.0
                    if not tails and tt == a and rr == r:
                        s[i, hh] = 10.0
            return s

    m = Oracle(data.n_ent, data.n_rel)
    res = evaluate(m, data)
    assert res["hits1"] == 1.0 and res["mr"] == 1.0


def test_dev_and_test_splits_evaluable(trained):
    model, data = trained
    for split in ("dev", "test"):
        res = evaluate(model, data, split=split)
        assert set(res) == {"hits1", "hits3", "hits10", "mr", "mrr"}
        assert res["hits1"] <= res["hits3"] <= res["hits10"]
        assert res["mr"] >= 1.0 and 0 <= res["mrr"] <= 1.0
