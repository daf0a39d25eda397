"""Text-based KGE substitutes: KG-BERT, StAR, GenKGC (see DESIGN.md).

No PLM weights exist offline, so each model's *defining mechanism* is
rebuilt over hashed character-n-gram text encodings of entity surface
text (titles for products, labels for taxonomy nodes, the literal
itself for attribute values):

- **KGBERTSim** — cross-encoder-style: a shared projection maps text
  features into embedding space and triples score by translational
  closeness of the *texts*;
- **StARSim** — siamese: separate head-side (text ∘ relation) and
  tail-side encoders, dot-product scoring;
- **GenKGCSim** — generative: candidate tails scored by a softmax
  cross-entropy objective (sequence-generation's training signal),
  relation-conditioned.

All three inherit the property the paper measures: smooth text-derived
score surfaces → strong MR, weak Hits@1 (entities with similar names
rank together).
"""
from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.kge.base import Blocks, KGEModel, per_param_state, through
from repro.kge.bilinear import Trilinear
from repro.kge.trans import Translational


def hash_text_features(texts: List[str], dim: int = 256, seed: int = 13) -> np.ndarray:
    """Character-3-gram hashing encoder with sign trick, L2-normalized.

    Deterministic (zlib.crc32), vocabulary-free — the offline stand-in
    for a frozen text encoder.
    """
    import zlib

    X = np.zeros((len(texts), dim))
    for i, text in enumerate(texts):
        s = f"^{text}$"
        for j in range(len(s) - 2):
            g = s[j : j + 3]
            hv = zlib.crc32(f"{seed}:{g}".encode())
            X[i, hv % dim] += 1.0 if (hv >> 1) % 2 == 0 else -1.0
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(norms, 1e-9)


class TextKGE(KGEModel):
    """Shared machinery: fixed text features X, learned projection P."""

    def __init__(self, n_ent, n_rel, text_features: np.ndarray, dim=32, seed=0, lr=0.05):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        assert text_features.shape[0] == n_ent
        self.X = text_features
        self.add_param("P", (text_features.shape[1], dim))
        self.add_param("R", (n_rel, dim))

    @per_param_state
    def entity_embeddings(self) -> np.ndarray:
        return self.X @ self.params["P"]

    def entity_grads(self, blocks: Blocks) -> None:
        # grads w.r.t. P flow through every entity occurrence
        self.dense_update("P", through(self.X, blocks))


class KGBERTSim(TextKGE, Translational):
    """Translational scoring over projected text: -||f(h) + r − f(t)||²."""


class StARSim(TextKGE, Trilinear):
    """Siamese scoring: (f(h) ∘ g_r) · f(t), BCE-trained.

    The elementwise-product score needs a hotter learning rate than the
    translational text model to separate logits through the frozen text
    features; 0.5 is the tuned default.
    """

    def __init__(self, *a, lr: float = 0.5, **kw):
        super().__init__(*a, lr=lr, **kw)


class GenKGCSim(TextKGE):
    """Generative substitute: softmax CE over sampled candidate tails.

    Scores s = (f(h) + r) · f(t); training normalizes over the positive
    and its k negatives (the CE signal sequence generation provides).
    Like the original, it is evaluated for Hits@K only (no full-ranking
    MR in the paper — Table IV prints '-').
    """

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        E = self.entity_embeddings() if E is None else E
        q = E[tr[:, 0]] + self.params["R"][tr[:, 1]]
        return np.einsum("ij,ij->i", q, E[tr[:, 2]])

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        E, R = self.entity_embeddings(), self.params["R"]
        return np.array([
            E @ (E[a] + R[r]) if tails else (E + R[r][None, :]) @ E[a]
            for a, r in zip(anchors, rels)
        ])

    def train_step(self, pos: np.ndarray, neg: np.ndarray) -> float:
        k = len(neg) // len(pos)
        E = self.entity_embeddings()
        R = self.params["R"]
        q = E[pos[:, 0]] + R[pos[:, 1]]                      # (B, d)
        cand = np.concatenate([pos[:, 2:3], neg[:, 2].reshape(len(pos), k)], axis=1)
        C = E[cand]                                          # (B, k+1, d)
        s = np.einsum("bd,bkd->bk", q, C)
        s -= s.max(axis=1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=1, keepdims=True)
        loss = float(-np.log(p[:, 0] + 1e-9).mean())
        gs = p.copy()
        gs[:, 0] -= 1.0
        gs /= len(pos)
        g_q = np.einsum("bk,bkd->bd", gs, C)
        g_C = np.einsum("bk,bd->bkd", gs, q)
        gP = self.X[pos[:, 0]].T @ g_q
        flat_idx = cand.reshape(-1)
        gP += self.X[flat_idx].T @ g_C.reshape(-1, self.dim)
        self.dense_update("P", gP)
        self.sparse_update("R", pos[:, 1], g_q)
        return loss


def entity_texts_for(dataset_entities: List[str], label_lut: Dict[str, str]) -> List[str]:
    """Surface text per dataset entity (falls back to the id itself —
    attribute-value literals are their own text)."""
    return [label_lut.get(e, e) for e in dataset_entities]
