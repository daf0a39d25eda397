"""TuckER (Balažević et al. 2019): core-tensor factorization.

s(h, r, t) = W ×₁ e_h ×₂ w_r ×₃ e_t with a learned core tensor
W ∈ ℝ^{d×d×d}.  Trained with BCE over sampled negatives (the original's
1-N softmax is a throughput optimization, not a modeling change, at our
scale).  The core gets dense AdaGrad updates; embeddings sparse ones.

A batch is contracted per relation, not per row: for each relation u
present, the slice Wr[u] = Σ_j w_u[j] W[:, j, :] (d × d) is formed once
— n_u·d³ work for n_u relations instead of B·d³ for B rows — and the
rows of u are multiplied by it in one GEMM:

- score s = e_hᵀ Wr[r] e_t;
- ∂/∂e_t = g·(e_hᵀ Wr[r]) and ∂/∂e_h = g·(Wr[r] e_t);
- ∂/∂W = Σ_u w_u ⊗ M_u with M_u = Σ_{rows of u} e_h (g e_t)ᵀ.

∂/∂w_r stays per row, vec(e_h ⊗ g e_t) · W_(ik)j: AdaGrad squares each
row's gradient into the accumulator before summing duplicates, so a
per-relation sum would change training.
"""
from __future__ import annotations

import numpy as np

from repro.kge.base import BCEModel


def _runs(rel: np.ndarray):
    """Rows grouped by relation: (row indices sorted by relation, the
    relations present, and each relation's [lo, hi) run in that order)."""
    order = np.argsort(rel, kind="stable")
    present, lo = np.unique(rel[order], return_index=True)
    hi = np.append(lo[1:], len(rel))
    return order, present, zip(lo, hi)


class TuckER(BCEModel):
    def __init__(self, n_ent, n_rel, dim=24, seed=0, lr=0.05):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))
        self.add_param("W", (dim, dim, dim), scale=0.1)

    @staticmethod
    def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(B, d), (B, d) → (B, d²) batched outer product."""
        return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)

    def _slices(self, rels: np.ndarray) -> np.ndarray:
        """(n, d, d): Wr[u] = Σ_j R[u, j] W[:, j, :] for each of ``rels``."""
        d, W = self.dim, self.params["W"]
        return (self.params["R"][rels] @ W.transpose(1, 0, 2).reshape(d, d * d)).reshape(-1, d, d)

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        E = self.params["E"]
        h, t = E[tr[:, 0]], E[tr[:, 2]]
        order, present, runs = _runs(tr[:, 1])
        hW = np.empty_like(h)
        for Wr, (lo, hi) in zip(self._slices(present), runs):
            rows = order[lo:hi]
            hW[rows] = h[rows] @ Wr
        return np.einsum("bk,bk->b", hW, t)

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
        h, t = E[tr[:, 0]], E[tr[:, 2]]
        gt = g * t
        order, present, runs = _runs(tr[:, 1])
        slices = self._slices(present)
        hW, Wt = np.empty_like(h), np.empty_like(t)
        M = np.empty_like(slices)
        for u, (lo, hi) in enumerate(runs):
            rows = order[lo:hi]
            hW[rows] = h[rows] @ slices[u]
            Wt[rows] = t[rows] @ slices[u].T
            M[u] = h[rows].T @ gt[rows]
        g_r = self._outer(h, gt) @ W.transpose(0, 2, 1).reshape(d * d, d)
        # (Σ_u w_u ⊗ M_u)[j, i, k] → [i, j, k]
        g_W = (R[present].T @ M.reshape(len(present), d * d)).reshape(d, d, d).transpose(1, 0, 2)
        self.sparse_update("E", tr[:, 0], g * Wt)
        self.sparse_update("E", tr[:, 2], g * hW)
        self.sparse_update("R", tr[:, 1], g_r)
        self.dense_update("W", g_W)
