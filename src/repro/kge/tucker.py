"""TuckER (Balažević et al. 2019): core-tensor factorization.

s(h, r, t) = W ×₁ e_h ×₂ w_r ×₃ e_t with a learned core tensor
W ∈ ℝ^{d×d×d}.  Trained with BCE over sampled negatives (the original's
1-N softmax is a throughput optimization, not a modeling change, at our
scale).  The core gets dense AdaGrad updates; embeddings sparse ones.
"""
from __future__ import annotations

import numpy as np

from repro.kge.base import BCEModel


class TuckER(BCEModel):
    name = "TuckER"

    def __init__(self, n_ent, n_rel, dim=24, seed=0, lr=0.05):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))
        self.add_param("W", (dim, dim, dim), scale=0.1)

    @staticmethod
    def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(B, d), (B, d) → (B, d²) batched outer product."""
        return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        E, R, W = self.params["E"], self.params["R"], self.params["W"]
        h, r, t = E[tr[:, 0]], R[tr[:, 1]], E[tr[:, 2]]
        # s = vec(h ⊗ r) · W(ij)k · t — explicit matmuls: naive einsum
        # contraction orders are ~30× slower at batch size.
        hr = self._outer(h, r) @ W.reshape(self.dim * self.dim, self.dim)
        return np.einsum("bk,bk->b", hr, t)

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        E, R, W = self.params["E"], self.params["R"], self.params["W"]
        out = []
        for a, r in zip(anchors, rels):
            if tails:
                vec = np.einsum("i,j,ijk->k", E[a], R[r], W)
            else:  # ``a`` is the fixed tail, candidates are heads
                vec = np.einsum("j,k,ijk->i", R[r], E[a], W)
            out.append(E @ vec)
        return np.array(out)

    def bce_grads(self, tr, g, E) -> None:
        d = self.dim
        R, W = self.params["R"], self.params["W"]
        h, r, t = E[tr[:, 0]], R[tr[:, 1]], E[tr[:, 2]]
        h_r = self._outer(h, r)
        gt_scaled = g * t
        g_t = g * (h_r @ W.reshape(d * d, d))
        # g_h[b,i] = Σ_jk W_ijk r_j (g t)_k  = vec(r ⊗ gt) @ W(jk)i
        g_h = self._outer(r, gt_scaled) @ W.transpose(1, 2, 0).reshape(d * d, d)
        g_r = self._outer(h, gt_scaled) @ W.transpose(0, 2, 1).reshape(d * d, d)
        g_W = (h_r.T @ gt_scaled).reshape(d, d, d)
        self.sparse_update("E", tr[:, 0], g_h)
        self.sparse_update("E", tr[:, 2], g_t)
        self.sparse_update("R", tr[:, 1], g_r)
        self.dense_update("W", g_W)
