"""Sequence-labeling substrate: averaged structured perceptron + Viterbi.

Sec. II-C(1) extracts concept mentions from titles/reviews/queries with
BERT-CRF.  Offline, with no PLM weights, the same *task shape* — a
globally-normalized sequence tagger with label-transition structure —
is provided by an averaged structured perceptron (Collins 2002) with
Viterbi decoding.  It is tiny, picklable (broadcastable to executors),
deterministic, and genuinely trained on the synthetic annotations.

Implementation note: emission weights live in a dynamically-grown
``(n_features, n_tags)`` matrix keyed by a feature-string → row index
dict, so scoring a token is a handful of row gathers + one vector sum
instead of |features|·|tags| dict lookups — the difference between
seconds and hours at experiment scale.

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


class PerceptronTagger:
    """Averaged structured perceptron over BIO tags.

    ``feature_fn(tokens, i) -> List[str]`` is pluggable so downstream
    variants can add embedding-cluster and KG-gazetteer features; it
    must be picklable (top-level callable or a __call__ object).
    """

    def __init__(self, tags: List[str], feature_fn=token_features):
        self.tags = list(tags)
        self.feature_fn = feature_fn
        T = len(self.tags)
        self._feat_idx: Dict[str, int] = {}
        self._W = np.zeros((256, T))
        self._W_tot = np.zeros((256, T))
        # transitions indexed [prev+1 (0 == START), cur]
        self._trans = np.zeros((T + 1, T))
        self._trans_tot = np.zeros((T + 1, T))
        self._steps = 0

    # ---- feature rows -----------------------------------------------------
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

    # ---- decoding ---------------------------------------------------------
    def viterbi(self, tokens: Sequence[str]) -> List[str]:
        n, T = len(tokens), len(self.tags)
        if n == 0:
            return []
        delta = np.zeros((n, T))
        back = np.zeros((n, T), dtype=int)
        tr = self._trans[1:]  # (T, T) prev → cur
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

    # ---- training ---------------------------------------------------------
    def _update(self, tokens: Sequence[str], gold: Sequence[str], pred: Sequence[str]) -> None:
        # Collins' averaging trick: accumulate (t-1)·delta so that
        # w_avg = w - accum/T equals the true running average; _steps
        # counts *every* example (fit increments it), so correct streaks
        # weight the settled parameters.
        ts = self._steps - 1
        ti = {t: j for j, t in enumerate(self.tags)}
        prev_g = prev_p = 0  # START row
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
        return None

    def fit(
        self,
        sentences: List[Sequence[str]],
        labels: List[Sequence[str]],
        epochs: int = 5,
        seed: int = 0,
    ) -> "PerceptronTagger":
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
        T = len(self.tags)
        self._W = W if len(W) else np.zeros((256, T))
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
    sets (spans, triples, …), counted over all examples."""
    tp = fp = fn = 0
    for gs, ps in zip(gold, pred):
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
