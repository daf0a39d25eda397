"""Multimodal KGE substitutes: TransAE, RSME, MKGformer (DESIGN.md).

**Image substrate.**  No product photos exist offline; the property the
paper's multimodal results rely on is that a product image carries
*category-level visual signal* (a rice bag looks like other rice bags).
:func:`synth_image_features` therefore derives each multimodal entity's
feature vector deterministically from its category (plus entity noise),
and non-visual entities get zero features with a modality flag — the
same shape a frozen vision encoder would produce.

**Models.**
- :class:`TransAE` — TransE whose entity embedding is augmented by an
  autoencoder-style learned projection of the visual feature;
- :class:`RSME` — adds the paper's filter/forget gating: a learned
  per-dimension sigmoid gate decides how much visual signal enters;
- :class:`MKGformerLite` — bilinear (multi-level-fusion token) scoring
  over struct+visual fused embeddings, BCE-trained.
"""
from __future__ import annotations

import zlib
from typing import List

import numpy as np
import pandas as pd

from repro.kge.base import Blocks, KGEModel, per_param_state, sigmoid, through
from repro.kge.bilinear import Trilinear
from repro.kge.data import KGEDataset
from repro.kge.trans import Translational


def _hash_vec(key: str, dim: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(zlib.crc32(f"{seed}:{key}".encode()) % (2**31))
    return g.normal(0, 1, dim)


def synth_image_features(
    entities: List[str],
    category_of: pd.Series,
    dim: int = 16,
    seed: int = 29,
    noise: float = 0.4,
) -> np.ndarray:
    """(n_ent, dim) visual features; zero rows = no image.

    ``category_of``: product_id → category node for multimodal products
    (only those get features).
    """
    X = np.zeros((len(entities), dim))
    for i, e in enumerate(entities):
        if e in category_of.index:
            base = _hash_vec(str(category_of[e]), dim, seed)
            jitter = _hash_vec(e, dim, seed + 1)
            v = base + noise * jitter
            X[i] = v / np.linalg.norm(v)
    return X


class Visual(KGEModel):
    """Entity embedding = free table E + visual feature projected by V."""

    def __init__(self, n_ent, n_rel, img: np.ndarray, dim=32, seed=0, lr=0.1):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.img = img
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))
        self.add_param("V", (img.shape[1], dim))

    @per_param_state
    def entity_embeddings(self) -> np.ndarray:
        return self.params["E"] + self.img @ self.params["V"]

    def entity_grads(self, blocks: Blocks) -> None:
        super().entity_grads(blocks)
        self.visual_grads(blocks)

    def visual_grads(self, blocks: Blocks) -> None:
        self.dense_update("V", through(self.img, blocks))


class TransAE(Visual, Translational):
    """Wang et al. 2019: unified embedding via visual auto-encoding."""

    name = "TransAE"


class RSME(TransAE):
    """Wang et al. 2021: relation-sensitive filter/forget gate on the
    visual channel — per-dimension sigmoid gate g ∘ (img·V)."""

    name = "RSME"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.add_param("G", (self.dim,), scale=0.5)

    @per_param_state
    def entity_embeddings(self) -> np.ndarray:
        return self.params["E"] + sigmoid(self.params["G"])[None, :] * (self.img @ self.params["V"])

    def visual_grads(self, blocks: Blocks) -> None:
        # V's gradient passes through the gate; G is nudged by its
        # analytic gradient, read at the V just updated.
        g = sigmoid(self.params["G"])
        self.dense_update("V", through(self.img, blocks) * g[None, :])
        P = self.img @ self.params["V"]
        (hp, g_p), (tp, _), (hn, g_n), (tn, _) = blocks
        gG_raw = np.sum((P[hp] - P[tp]) * g_p, axis=0) + np.sum((P[hn] - P[tn]) * g_n, axis=0)
        self.dense_update("G", gG_raw * g * (1 - g))


class MKGformerLite(Visual, Trilinear):
    """Chen et al. 2022 (lite): bilinear scoring over fused embeddings."""

    name = "MKGformer"


def image_features_for_dataset(data: KGEDataset, kg, dim: int = 16) -> np.ndarray:
    """Visual features aligned to a dataset's entity indexing."""
    mm = kg.multimodal_products().set_index("product_id")["category"]
    return synth_image_features(data.entities, mm, dim=dim)
