"""Tests for the structured-perceptron tagger and BIO utilities."""
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.construction.tagger import (
    START,
    PerceptronTagger,
    bio_spans,
    micro_prf,
    span_prf,
    token_features,
)


def test_token_features_include_identity_and_neighbours():
    f = token_features(["a", "b", "c"], 1)
    assert "w=b" in f and "prev=a" in f and "next=c" in f


def test_token_features_boundaries():
    f0 = token_features(["x"], 0)
    assert "prev=<s>" in f0 and "next=</s>" in f0


@pytest.mark.parametrize(
    "tags,expected",
    [
        (["O", "O"], set()),
        (["B-X"], {(0, 1, "X")}),
        (["B-X", "I-X"], {(0, 2, "X")}),
        (["B-X", "B-X"], {(0, 1, "X"), (1, 2, "X")}),
        (["B-X", "I-Y"], {(0, 1, "X"), }),
        (["O", "B-X", "I-X", "O", "B-Y"], {(1, 3, "X"), (4, 5, "Y")}),
    ],
)
def test_bio_spans(tags, expected):
    assert bio_spans(tags) == expected


def test_span_prf_perfect():
    g = [["B-X", "O"], ["O", "B-Y"]]
    assert span_prf(g, g) == (1.0, 1.0, 1.0)


def test_span_prf_half():
    g = [["B-X", "B-Y"]]
    p = [["B-X", "O"]]
    prec, rec, f1 = span_prf(g, p)
    assert prec == 1.0 and rec == 0.5
    assert abs(f1 - 2 / 3) < 1e-9


def test_span_prf_empty_pred():
    prec, rec, f1 = span_prf([["B-X"]], [["O"]])
    assert (prec, rec, f1) == (0.0, 0.0, 0.0)


def test_micro_prf_rejects_length_mismatch():
    with pytest.raises(ValueError):
        micro_prf([{1}, {2}], [{1}])
    with pytest.raises(ValueError):
        span_prf([["B-X"]], [["B-X"], ["O"]])


def _toy_data():
    # word identity fully determines the tag — learnable by identity features
    sents = [
        ["acme", "shoes", "hot"],
        ["globex", "phone", "sale"],
        ["acme", "phone", "hot"],
        ["globex", "shoes", "sale"],
    ]
    tags = [
        ["B-Brand", "B-Cat", "O"],
        ["B-Brand", "B-Cat", "O"],
        ["B-Brand", "B-Cat", "O"],
        ["B-Brand", "B-Cat", "O"],
    ]
    return sents, tags


def test_tagger_learns_toy_task():
    sents, tags = _toy_data()
    tg = PerceptronTagger(["O", "B-Brand", "B-Cat"]).fit(sents, tags, epochs=5)
    assert tg.predict(["acme", "shoes", "sale"]) == ["B-Brand", "B-Cat", "O"]
    assert tg.predict(["globex", "phone", "hot"]) == ["B-Brand", "B-Cat", "O"]


def test_tagger_deterministic():
    sents, tags = _toy_data()
    a = PerceptronTagger(["O", "B-Brand", "B-Cat"]).fit(sents, tags, epochs=3, seed=1)
    b = PerceptronTagger(["O", "B-Brand", "B-Cat"]).fit(sents, tags, epochs=3, seed=1)
    assert a.predict(["acme", "shoes"]) == b.predict(["acme", "shoes"])
    assert a.weights_dict() == b.weights_dict()


def test_tagger_empty_sentence():
    tg = PerceptronTagger(["O"])
    assert tg.predict([]) == []


def test_tagger_pickles_small(tmp_path):
    import pickle

    sents, tags = _toy_data()
    tg = PerceptronTagger(["O", "B-Brand", "B-Cat"]).fit(sents, tags, epochs=3)
    blob = pickle.dumps(tg)
    tg2 = pickle.loads(blob)
    assert tg2.predict(["acme", "shoes", "sale"]) == tg.predict(["acme", "shoes", "sale"])


def test_transitions_learned():
    """Transition weights should exist after training (CRF-like structure)."""
    sents, tags = _toy_data()
    tg = PerceptronTagger(["O", "B-Brand", "B-Cat"]).fit(sents, tags, epochs=3)
    assert len(tg.transitions_dict()) > 0


# ---- reference: the per-token tagger the array version replaced -----------

class _ReferenceTagger:
    """The tagger before one emission matrix per sentence and features once
    per fit: features recomputed at every decode and update, one
    ``_emission`` row sum per token, DP in a [prev, cur] layout.  The
    array version must reproduce its weights and predictions exactly."""

    def __init__(self, tags: List[str], feature_fn=token_features):
        self.tags = list(tags)
        self.feature_fn = feature_fn
        T = len(self.tags)
        self._feat_idx: Dict[str, int] = {}
        self._W = np.zeros((256, T))
        self._W_tot = np.zeros((256, T))
        self._trans = np.zeros((T + 1, T))
        self._trans_tot = np.zeros((T + 1, T))
        self._steps = 0

    def _row(self, feat: str, create: bool) -> int:
        idx = self._feat_idx.get(feat)
        if idx is None:
            if not create:
                return -1
            idx = len(self._feat_idx)
            if idx >= self._W.shape[0]:
                grow = np.zeros((self._W.shape[0], self._W.shape[1]))
                self._W = np.concatenate([self._W, grow])
                self._W_tot = np.concatenate([self._W_tot, grow.copy()])
            self._feat_idx[feat] = idx
        return idx

    def _emission(self, feats: List[str]) -> np.ndarray:
        rows = [r for f in feats if (r := self._row(f, create=False)) >= 0]
        if not rows:
            return np.zeros(len(self.tags))
        return self._W[rows].sum(axis=0)

    def viterbi(self, tokens: Sequence[str]) -> List[str]:
        n, T = len(tokens), len(self.tags)
        if n == 0:
            return []
        delta = np.zeros((n, T))
        back = np.zeros((n, T), dtype=int)
        tr = self._trans[1:]
        delta[0] = self._emission(self.feature_fn(tokens, 0)) + self._trans[0]
        for i in range(1, n):
            em = self._emission(self.feature_fn(tokens, i))
            scores = delta[i - 1][:, None] + tr + em[None, :]
            back[i] = scores.argmax(axis=0)
            delta[i] = scores.max(axis=0)
        path = [int(delta[-1].argmax())]
        for i in range(n - 1, 0, -1):
            path.append(int(back[i][path[-1]]))
        return [self.tags[j] for j in reversed(path)]

    predict = viterbi

    def _update(self, tokens, gold, pred) -> None:
        ts = self._steps - 1
        ti = {t: j for j, t in enumerate(self.tags)}
        prev_g = prev_p = 0
        for i, (g, p) in enumerate(zip(gold, pred)):
            gj, pj = ti[g], ti[p]
            if gj != pj:
                for f in self.feature_fn(tokens, i):
                    r = self._row(f, create=True)
                    self._W[r, gj] += 1.0
                    self._W[r, pj] -= 1.0
                    self._W_tot[r, gj] += ts
                    self._W_tot[r, pj] -= ts
            if (prev_g, gj) != (prev_p, pj):
                self._trans[prev_g, gj] += 1.0
                self._trans[prev_p, pj] -= 1.0
                self._trans_tot[prev_g, gj] += ts
                self._trans_tot[prev_p, pj] -= ts
            prev_g, prev_p = gj + 1, pj + 1

    def fit(self, sentences, labels, epochs: int = 5, seed: int = 0):
        g = np.random.default_rng(seed)
        idx = np.arange(len(sentences))
        for _ in range(epochs):
            g.shuffle(idx)
            for j in idx:
                self._steps += 1
                pred = self.viterbi(sentences[j])
                if pred != list(labels[j]):
                    self._update(sentences[j], labels[j], pred)
        if self._steps:
            self._W -= self._W_tot / self._steps
            self._trans -= self._trans_tot / self._steps
            self._W_tot[:] = 0.0
            self._trans_tot[:] = 0.0
        return self

    def weights_dict(self) -> Dict[Tuple[str, str], float]:
        out = {}
        for f, r in self._feat_idx.items():
            for j, tag in enumerate(self.tags):
                if self._W[r, j] != 0.0:
                    out[(f, tag)] = float(self._W[r, j])
        return out

    def transitions_dict(self) -> Dict[Tuple[str, str], float]:
        out = {}
        for i, prev in enumerate([START] + self.tags):
            for j, tag in enumerate(self.tags):
                if self._trans[i, j] != 0.0:
                    out[(prev, tag)] = float(self._trans[i, j])
        return out


def _assert_matches_reference(tags, sents, labels, probe, feature_fn=token_features,
                              epochs=3, seed=0):
    new = PerceptronTagger(tags, feature_fn).fit(sents, labels, epochs=epochs, seed=seed)
    ref = _ReferenceTagger(tags, feature_fn).fit(sents, labels, epochs=epochs, seed=seed)
    assert new.weights_dict() == ref.weights_dict()
    assert new.transitions_dict() == ref.transitions_dict()
    assert [new.predict(s) for s in probe] == [ref.predict(s) for s in probe]
    for s in filter(None, probe):  # averaged weights: summation order shows
        em = [ref._emission(feature_fn(s, i)) for i in range(len(s))]
        assert np.array_equal(new._emissions(new._features(s)), em)
    return new


def _split(pairs, n_train):
    train, probe = pairs[:n_train], pairs[n_train:]
    return [s for s, _ in train], [t for _, t in train], [s for s, _ in probe]


@pytest.mark.parametrize("variant", ["mPLUG-base+KG", "RoBERTa-base"])
def test_ner_tagger_matches_reference(kg, grid, variant):
    """NER ``VariantFeatures`` with and without KG gazetteers."""
    from repro.downstream.ner_titles import VariantFeatures, build_ner_dataset

    data = build_ner_dataset(kg)
    tags = sorted({t for _, ts in data for t in ts})
    sents, labels, probe = _split(data, len(data) * 2 // 3)
    tg = _assert_matches_reference(
        tags, sents, labels, probe, VariantFeatures(grid[variant])
    )
    assert len(tg.weights_dict()) > 0


def test_ie_tagger_matches_reference(grid, reviews):
    from repro.downstream.ie_reviews import ROLE_TAGS, IEFeatures, role_tags_for

    toks = [t.split() for t in reviews["text"]]
    data = [(tk, role_tags_for(tk, g)) for tk, g in zip(toks, reviews["gold"])]
    sents, labels, probe = _split(data, len(data) * 2 // 3)
    _assert_matches_reference(
        ROLE_TAGS, sents, labels, probe, IEFeatures(grid["mPLUG-base+KG"])
    )


def test_concept_tagger_matches_reference(kg):
    from repro.construction.concepts import CONCEPT_TAGS

    p = kg.catalog.products
    data = [(t.split(), g.split()) for t, g in zip(p["title"], p["title_tags"])]
    sents, labels, probe = _split(data, len(data) // 2)
    _assert_matches_reference(CONCEPT_TAGS, sents, labels, probe, epochs=4)


def _identity_only(tokens: Sequence[str], i: int) -> List[str]:
    """Identity alone; tokens starting with "_" have no features at all."""
    return [] if tokens[i].startswith("_") else [f"w={tokens[i]}"]


def test_tagger_edge_cases_match_reference():
    sents, tags = _toy_data()
    sents = sents + [["acme"], [], ["_blank", "shoes"]]
    tags = tags + [["B-Brand"], [], ["O", "B-Cat"]]
    probe = [[], ["acme"], ["unseen"], ["_blank"], ["acme", "unseen", "_x", "hot"]]
    for fn in (token_features, _identity_only):
        _assert_matches_reference(["O", "B-Brand", "B-Cat"], sents, tags, probe, fn)
    one = _assert_matches_reference(
        ["O"], sents, [["O"] * len(s) for s in sents], probe
    )
    assert one.predict(["acme", "unseen"]) == ["O", "O"]


def _rounding_tie_taggers():
    """A tagger and its reference whose START transitions differ by one
    ulp, 1 + 2^-52 against 1; the emission 1.0 rounds both sums to 2."""
    taggers = [cls(["A", "B"], _identity_only) for cls in (PerceptronTagger, _ReferenceTagger)]
    for tg in taggers:
        tg._feat_idx["w=x"] = 0
        tg._W[0] = 1.0
        tg._trans[0] = [1.0, 1.0 + 2.0 ** -52]
    return taggers


def test_decode_rounding_ties_match_reference():
    """The DP step adds the emission before the argmax: 1 + 2^-52 beats 1
    on its own, but both round to 2 once the emission 1.0 is added, and
    the tie then goes to the first tag, as in the reference."""
    taggers = _rounding_tie_taggers()
    assert [tg.predict(["_a", "x"]) for tg in taggers] == [["A", "A"]] * 2


def test_fit_on_non_whole_weights_matches_reference():
    """``fit`` adds the emission after the argmax only when its starting
    weights are whole numbers.  Here they are not: that step would keep
    1 + 2^-52 ahead of 1, decode B A and update, where the reference
    ties at 2, decodes the gold A A and leaves the weights alone."""
    taggers = _rounding_tie_taggers()
    for tg in taggers:
        tg.fit([["_a", "x"]], [["A", "A"]], epochs=1)
    new, ref = taggers
    assert new.weights_dict() == ref.weights_dict()
    assert new.transitions_dict() == ref.transitions_dict()


def test_refit_matches_reference(kg):
    """A second ``fit`` starts from averaged weights and zeroed
    accumulators, on other data with another seed."""
    from repro.construction.concepts import CONCEPT_TAGS

    p = kg.catalog.products
    data = [(t.split(), g.split()) for t, g in zip(p["title"], p["title_tags"])]
    q = len(data) // 4
    first, second, probe = data[:q], data[q:2 * q], [s for s, _ in data[2 * q:]]
    new = PerceptronTagger(CONCEPT_TAGS)
    ref = _ReferenceTagger(CONCEPT_TAGS)
    for tg in (new, ref):
        for part, seed in ((first, 0), (second, 1)):
            tg.fit([s for s, _ in part], [t for _, t in part], epochs=3, seed=seed)
    assert new.weights_dict() == ref.weights_dict()
    assert new.transitions_dict() == ref.transitions_dict()
    assert [new.predict(s) for s in probe] == [ref.predict(s) for s in probe]


def test_unpickled_tagger_decodes_unknown_features():
    """Unpickling keeps the zero row that unknown features read."""
    import pickle

    sents, tags = _toy_data()
    tg = PerceptronTagger(["O", "B-Brand", "B-Cat"], _identity_only).fit(sents, tags)
    tg2 = pickle.loads(pickle.dumps(tg))
    for s in (["acme", "unseen", "_x"], ["zzz"]):
        assert tg2.predict(s) == tg.predict(s)
