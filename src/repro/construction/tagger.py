"""Sequence-labeling substrate: averaged structured perceptron + Viterbi.

Sec. II-C(1) extracts concept mentions from titles/reviews/queries with
BERT-CRF.  Offline, with no PLM weights, the same *task shape* — a
globally-normalized sequence tagger with label-transition structure —
is provided by an averaged structured perceptron (Collins 2002) with
Viterbi decoding.  It is tiny, picklable (broadcastable to executors),
deterministic, and genuinely trained on the synthetic annotations.

Implementation note: emission weights live in a dynamically-grown
``(n_features, n_tags)`` matrix keyed by a feature-string → row index
dict.  Decoding a sentence gathers the rows of all its tokens' features
at once and sums them per token into one ``(n, n_tags)`` emission
matrix; each Viterbi step is then a few whole-array operations.  ``fit``
computes every training sentence's feature strings once and reuses them
in each epoch's decode and update, and copies the transitions into the
step's [cur, prev] layout once, and again only after an update.
Training and decoding give the same numbers as scoring one token at a
time: each token's rows are summed in feature order, and each step adds
the same terms in the same order.

While ``fit`` trains, its step is shorter.  Until averaging, every weight
and transition is a sum of ±1.0 updates, a whole number far below 2**53,
so every DP sum is exact.  Adding the token's emission after the argmax
over prev then gives the same back-pointers and the same scores as
adding it inside the block: one (T, T) pass per token instead of two.
``predict`` keeps the emission inside the block, because averaged
weights are not whole and a sum that rounds can tie where the parts did
not.  ``fit`` checks its starting weights once and keeps that step too
unless they are all whole numbers (a second ``fit``, hand-set weights).

Also home to the BIO span utilities and the one micro P/R/F, used by
the construction pipeline and by the NER and IE downstream tasks
(spans and triples; Tables V/VII).
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

START = "<s>"


def token_features(tokens: Sequence[str], i: int) -> List[str]:
    """Sparse feature strings for position ``i`` (identity, affixes,
    shape, neighbours) — the perceptron's stand-in for contextual
    embeddings."""
    w = tokens[i]
    prev = tokens[i - 1] if i > 0 else START
    nxt = tokens[i + 1] if i < len(tokens) - 1 else "</s>"
    shape = "".join("d" if c.isdigit() else "a" for c in w[:8])
    return [
        "bias",
        f"w={w}",
        f"pre3={w[:3]}",
        f"suf2={w[-2:]}",
        f"shape={shape}",
        f"prev={prev}",
        f"next={nxt}",
        f"haspunct={'_' in w}",
    ]


def _whole(a: np.ndarray) -> bool:
    """All entries whole numbers small enough that sums of them stay
    exact (NaN and ±inf fail the bound)."""
    return bool(np.all(np.abs(a) <= 2.0 ** 32) and np.all(a == np.rint(a)))


class PerceptronTagger:
    """Averaged structured perceptron over BIO tags.

    ``feature_fn(tokens, i) -> List[str]`` is pluggable so downstream
    variants can add embedding-cluster and KG-gazetteer features; it
    must be picklable (top-level callable or a __call__ object).
    """

    def __init__(self, tags: List[str], feature_fn=token_features):
        self.tags = list(tags)
        self.feature_fn = feature_fn
        self._tag_idx = {t: j for j, t in enumerate(self.tags)}
        T = len(self.tags)
        self._feat_idx: Dict[str, int] = {}
        self._W = np.zeros((256, T))
        self._W_tot = np.zeros((256, T))
        # transitions indexed [prev+1 (0 == START), cur]
        self._trans = np.zeros((T + 1, T))
        self._trans_tot = np.zeros((T + 1, T))
        self._steps = 0

    # ---- feature rows -----------------------------------------------------
    def _row(self, feat: str) -> int:
        idx = self._feat_idx.get(feat)
        if idx is None:
            idx = len(self._feat_idx)
            # keep row len(_feat_idx) allocated: it is the zero row
            # _emissions reads for unknown features and padding
            if idx + 1 >= self._W.shape[0]:
                grow = np.zeros((self._W.shape[0], self._W.shape[1]))
                self._W = np.concatenate([self._W, grow])
                self._W_tot = np.concatenate([self._W_tot, grow.copy()])
            self._feat_idx[feat] = idx
        return idx

    def _features(self, tokens: Sequence[str]) -> List[List[str]]:
        return [self.feature_fn(tokens, i) for i in range(len(tokens))]

    def _emissions(self, feats: List[List[str]]) -> np.ndarray:
        """``(n, T)`` emission scores: each token's weight rows summed in
        feature order.  Unknown features and the padding that makes the
        row matrix rectangular read the zero row past the last feature,
        and adding 0.0 leaves every sum unchanged."""
        zero = len(self._feat_idx)
        get = self._feat_idx.get
        width = max(map(len, feats))
        rows = np.array(
            [[get(f, zero) for f in fs] + [zero] * (width - len(fs)) for fs in feats],
            dtype=np.intp,
        )
        return self._W[rows].sum(axis=1)

    # ---- decoding ---------------------------------------------------------
    def _trans_cur_prev(self) -> np.ndarray:
        """The transitions out of every tag as one contiguous [cur, prev]
        block, the layout of the DP step."""
        return np.ascontiguousarray(self._trans[1:].T)

    def _decode(self, feats: List[List[str]], trT: np.ndarray, exact: bool = False) -> List[int]:
        """Viterbi path as tag indices, with ``trT`` from ``_trans_cur_prev``.
        The step runs in a [cur, prev] layout so that the argmax over prev
        is along a contiguous axis.  ``em`` joins each block before the
        argmax, as in (prev + tr) + em, unless ``exact``: with whole-number
        weights it is added to the maxima instead (see the module note)."""
        n, T = len(feats), len(self.tags)
        if n == 0:
            return []
        em = self._emissions(feats)
        cols = np.arange(T)
        delta = em[0] + self._trans[0]
        back = []
        if exact:
            s = np.empty((T, T))
            for i in range(1, n):
                np.add(trT, delta, out=s)
                b = s.argmax(1)
                back.append(b)
                delta = s[cols, b]
                delta += em[i]
        else:
            for i in range(1, n):
                s = trT + delta
                s += em[i][:, None]
                b = s.argmax(1)
                back.append(b)
                delta = s[cols, b]
        path = [int(delta.argmax())]
        for b in reversed(back):
            path.append(int(b[path[-1]]))
        return path[::-1]

    def viterbi(self, tokens: Sequence[str]) -> List[str]:
        feats = self._features(tokens)
        return [self.tags[j] for j in self._decode(feats, self._trans_cur_prev())]

    # ---- training ---------------------------------------------------------
    def _update(self, feats: List[List[str]], gold: List[int], pred: List[int]) -> None:
        # Collins' averaging trick: accumulate (t-1)·delta so that
        # w_avg = w - accum/T equals the true running average; _steps
        # counts *every* example (fit increments it), so correct streaks
        # weight the settled parameters.
        ts = self._steps - 1
        prev_g = prev_p = 0  # START row
        for fs, gj, pj in zip(feats, gold, pred):
            if gj != pj:
                for f in fs:
                    r = self._row(f)
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
        return None

    def fit(
        self,
        sentences: List[Sequence[str]],
        labels: List[Sequence[str]],
        epochs: int = 5,
        seed: int = 0,
    ) -> "PerceptronTagger":
        # every epoch's decode and update reuse these
        feats = [self._features(s) for s in sentences]
        gold = [[self._tag_idx[t] for t in tags] for tags in labels]
        exact = _whole(self._W) and _whole(self._trans)
        trT = self._trans_cur_prev()
        g = np.random.default_rng(seed)
        idx = np.arange(len(sentences))
        for _ in range(epochs):
            g.shuffle(idx)
            for j in idx:
                self._steps += 1
                pred = self._decode(feats[j], trT, exact)
                if pred != gold[j]:
                    self._update(feats[j], gold[j], pred)
                    trT = self._trans_cur_prev()
        if self._steps:
            self._W -= self._W_tot / self._steps
            self._trans -= self._trans_tot / self._steps
            self._W_tot[:] = 0.0
            self._trans_tot[:] = 0.0
        return self

    def predict(self, tokens: Sequence[str]) -> List[str]:
        return self.viterbi(tokens)

    # ---- introspection / pickling -----------------------------------------
    def weights_dict(self) -> Dict[Tuple[str, str], float]:
        """(feature, tag) → weight, nonzero entries only (tests/debug)."""
        out = {}
        for f, r in self._feat_idx.items():
            for j, tag in enumerate(self.tags):
                v = self._W[r, j]
                if v != 0.0:
                    out[(f, tag)] = float(v)
        return out

    def transitions_dict(self) -> Dict[Tuple[str, str], float]:
        out = {}
        names = [START] + self.tags
        for i, prev in enumerate(names):
            for j, tag in enumerate(self.tags):
                v = self._trans[i, j]
                if v != 0.0:
                    out[(prev, tag)] = float(v)
        return out

    def __getstate__(self):
        n = len(self._feat_idx)
        return (
            self.tags,
            self.feature_fn,
            self._feat_idx,
            self._W[:n].copy(),
            self._trans.copy(),
        )

    def __setstate__(self, state):
        self.tags, self.feature_fn, self._feat_idx, W, trans = state
        self._tag_idx = {t: j for j, t in enumerate(self.tags)}
        T = len(self.tags)
        self._W = np.concatenate([W, np.zeros((1, T))])  # the zero row
        self._W_tot = np.zeros_like(self._W)
        self._trans = trans
        self._trans_tot = np.zeros_like(trans)
        self._steps = 0


# ---- BIO span utilities ----------------------------------------------------

def bio_spans(tags: Sequence[str]) -> Set[Tuple[int, int, str]]:
    """Decode BIO tags into (start, end_exclusive, type) spans."""
    spans: Set[Tuple[int, int, str]] = set()
    start, typ = None, None
    for i, tag in enumerate(list(tags) + ["O"]):
        if tag.startswith("B-"):
            if start is not None:
                spans.add((start, i, typ))
            start, typ = i, tag[2:]
        elif tag.startswith("I-") and typ == tag[2:] and start is not None:
            continue
        else:
            if start is not None:
                spans.add((start, i, typ))
            start, typ = None, None
    return spans


def micro_prf(gold: Iterable[Set], pred: Iterable[Set]) -> Tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 of predicted against gold item
    sets (spans, triples, …), counted over all examples.  ``gold`` and
    ``pred`` must have the same length: a mismatch raises ValueError."""
    tp = fp = fn = 0
    for gs, ps in zip(gold, pred, strict=True):
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def span_prf(
    gold: Iterable[Sequence[str]], pred: Iterable[Sequence[str]]
) -> Tuple[float, float, float]:
    """Micro-averaged span-level precision/recall/F1 over sentences."""
    return micro_prf(map(bio_spans, gold), map(bio_spans, pred))
