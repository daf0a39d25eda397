"""Token embeddings (co-occurrence PPMI + randomized SVD) and featurizers.

The substrate's "pre-training": fit token vectors on a corpus so that
tokens co-occurring with the same contexts embed nearby.  Domain-
pretrained models see the e-commerce corpus (titles/comments/reviews);
general-pretrained models see a disjoint general corpus, leaving domain
tokens out-of-vocabulary — the mechanism behind the paper's
domain-model > general-model results.
"""
from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Co-occurrence window (tokens each side) and vocabulary size of the fit.
WINDOW = 2
MAX_VOCAB = 3000
#: Lloyd iterations of :func:`kmeans_clusters`.
KMEANS_ITERS = 20


class TokenEmbeddings:
    """PPMI co-occurrence matrix factorized by randomized SVD."""

    def __init__(self, vocab: Dict[str, int], vectors: np.ndarray):
        self.vocab = vocab
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def train(
        cls,
        corpus: List[Sequence[str]],
        dim: int = 32,
        seed: int = 0,
    ) -> "TokenEmbeddings":
        from collections import Counter

        freq = Counter(t for sent in corpus for t in sent)
        vocab = {t: i for i, (t, _) in enumerate(freq.most_common(MAX_VOCAB))}
        C = cooccurrence(corpus, vocab)
        # PPMI
        total = C.sum() + 1e-9
        row = C.sum(axis=1, keepdims=True) + 1e-9
        col = C.sum(axis=0, keepdims=True) + 1e-9
        with np.errstate(divide="ignore"):
            pmi = np.log(C * total / (row * col) + 1e-12)
        ppmi = np.maximum(pmi, 0.0)
        vectors = _randomized_svd(ppmi, dim, seed)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        return cls(vocab, vectors / np.maximum(norms, 1e-9))

    def vector(self, token: str) -> Optional[np.ndarray]:
        i = self.vocab.get(token)
        return None if i is None else self.vectors[i]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Mean embedding of in-vocabulary tokens + OOV fraction."""
        vecs = [self.vectors[self.vocab[t]] for t in tokens if t in self.vocab]
        mean = np.mean(vecs, axis=0) if vecs else np.zeros(self.dim)
        oov = 1.0 - (len(vecs) / max(1, len(tokens)))
        return np.concatenate([mean, [oov]])


def cooccurrence(corpus: List[Sequence[str]], vocab: Dict[str, int]) -> np.ndarray:
    """``(V, V)`` float counts of in-vocabulary token pairs at most
    ``WINDOW`` apart in one sentence, each pair counted both ways."""
    V = len(vocab)
    ids = np.array([vocab.get(t, -1) for sent in corpus for t in sent], dtype=np.int64)
    sid = np.repeat(np.arange(len(corpus)), [len(s) for s in corpus])
    keys = []
    for d in range(1, WINDOW + 1):
        a, b = ids[:-d], ids[d:]
        ok = (sid[:-d] == sid[d:]) & (a >= 0) & (b >= 0)
        a, b = a[ok], b[ok]
        keys += [a * V + b, b * V + a]
    keys = np.concatenate(keys)
    # float weights: the counts come out as float64 without an int64 V² copy
    return np.bincount(keys, weights=np.ones(len(keys)), minlength=V * V).reshape(V, V)


def _randomized_svd(A: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """Halko-style randomized range finder + exact SVD on the sketch."""
    g = np.random.default_rng(seed)
    k = min(A.shape[0], dim + 8)
    Y = A @ g.normal(0, 1, (A.shape[1], k))
    Q, _ = np.linalg.qr(Y)
    B = Q.T @ A
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    emb = (Q @ U)[:, :dim] * np.sqrt(s[:dim] + 1e-12)[None, :]
    if emb.shape[1] < dim:
        emb = np.pad(emb, ((0, 0), (0, dim - emb.shape[1])))
    return emb


def hashed_bow(tokens: Sequence[str], dim: int = 32, seed: int = 17) -> np.ndarray:
    """Hashed bag-of-words (sign trick) — the memorization channel every
    model variant gets, so even fully-OOV general models can fit seen
    surface patterns (RoBERTa's respectable full-resource scores)."""
    v = np.zeros(dim)
    for t in tokens:
        hv = zlib.crc32(f"{seed}:{t}".encode())
        v[hv % dim] += 1.0 if (hv >> 1) % 2 == 0 else -1.0
    n = np.linalg.norm(v)
    return v / max(n, 1e-9)


def kmeans_clusters(emb: TokenEmbeddings, k: int, seed: int = 0) -> Dict[str, int]:
    """Lloyd k-means over the embedding table → token → cluster id.

    Cluster ids serve as *discrete* features for the structured
    perceptron (NER), standing in for contextual-embedding features.
    """
    X = emb.vectors
    k = min(k, len(X))
    g = np.random.default_rng(seed)
    centers = X[g.choice(len(X), k, replace=False)]
    for _ in range(KMEANS_ITERS):
        d = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(k):
            pts = X[assign == c]
            if len(pts):
                centers[c] = pts.mean(axis=0)
    d = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d.argmin(axis=1)
    return {t: int(assign[i]) for t, i in emb.vocab.items()}
