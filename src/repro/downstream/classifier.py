"""Softmax task head with an optional KG-prior channel.

logits(x, c) = W_c·φ(x) + b_c + Σ_s α_s · prior_s(x, c)

The prior channel carries per-class KG evidence (e.g. Σ log P(category |
token) over a title's tokens); α is learned jointly, so a variant with
uninformative priors simply learns α ≈ 0.  AdaGrad (step ``LR``, L2
``L2``) + cross-entropy over shuffled mini-batches of ``BATCH_SIZE``,
fully deterministic.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

LR = 0.5
L2 = 1e-4
BATCH_SIZE = 64


class SoftmaxClassifier:
    def __init__(
        self,
        n_classes: int,
        feat_dim: int,
        n_priors: int = 0,
        seed: int = 0,
    ):
        g = np.random.default_rng(seed)
        self.W = g.normal(0, 0.01, (n_classes, feat_dim))
        self.b = np.zeros(n_classes)
        self.alpha = np.full(n_priors, 0.1)
        self._accW = np.full_like(self.W, 1e-8)
        self._accb = np.full_like(self.b, 1e-8)
        self._acca = np.full_like(self.alpha, 1e-8)

    def logits(self, X: np.ndarray, priors: Optional[np.ndarray] = None) -> np.ndarray:
        z = X @ self.W.T + self.b[None, :]
        if priors is not None and len(self.alpha):
            z = z + np.einsum("ncs,s->nc", priors, self.alpha)
        return z

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        priors: Optional[np.ndarray] = None,
        epochs: int = 30,
    ) -> "SoftmaxClassifier":
        g = np.random.default_rng(0)
        n = len(X)
        for _ in range(epochs):
            order = g.permutation(n)
            for s in range(0, n, BATCH_SIZE):
                idx = order[s : s + BATCH_SIZE]
                xb, yb = X[idx], y[idx]
                pb = priors[idx] if priors is not None else None
                z = self.logits(xb, pb)
                z -= z.max(axis=1, keepdims=True)
                p = np.exp(z)
                p /= p.sum(axis=1, keepdims=True)
                p[np.arange(len(idx)), yb] -= 1.0
                p /= len(idx)
                gW = p.T @ xb + L2 * self.W
                gb = p.sum(axis=0)
                self._accW += gW**2
                self._accb += gb**2
                self.W -= LR * gW / np.sqrt(self._accW)
                self.b -= LR * gb / np.sqrt(self._accb)
                if pb is not None and len(self.alpha):
                    ga = np.einsum("nc,ncs->s", p, pb)
                    self._acca += ga**2
                    self.alpha -= LR * ga / np.sqrt(self._acca)
        return self

    def predict(self, X: np.ndarray, priors: Optional[np.ndarray] = None) -> np.ndarray:
        return self.logits(X, priors).argmax(axis=1)

    def accuracy(self, X, y, priors=None) -> float:
        return float((self.predict(X, priors) == y).mean())
