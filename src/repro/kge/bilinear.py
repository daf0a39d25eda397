"""Bilinear models: DistMult and ComplEx (BCE + negative sampling), and
the trilinear score StAR and MKGformer share with DistMult."""
from __future__ import annotations

import numpy as np

from repro.kge.base import BCEModel


class Trilinear(BCEModel):
    """s(h, r, t) = Σ e_h ∘ r ∘ e_t over ``entity_embeddings()``; the
    score of DistMult, StAR and MKGformer."""

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        E = self.entity_embeddings() if E is None else E
        return np.einsum("ij,ij,ij->i", E[tr[:, 0]], self.params["R"][tr[:, 1]], E[tr[:, 2]])

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        # symmetric in h/t: identical for heads and tails
        E, R = self.entity_embeddings(), self.params["R"]
        return np.array([E @ (E[a] * R[r]) for a, r in zip(anchors, rels)])

    def bce_grads(self, tr, g, E) -> None:
        h, r, t = E[tr[:, 0]], self.params["R"][tr[:, 1]], E[tr[:, 2]]
        self.sparse_update("R", tr[:, 1], g * h * t)
        self.entity_grads([(tr[:, 0], g * r * t), (tr[:, 2], g * r * h)])


class DistMult(Trilinear):
    """Yang et al. 2015: s = Σ h ∘ r ∘ t (symmetric in h/t — the
    weakness the paper's results expose on asymmetric business KGs)."""

    def __init__(self, n_ent, n_rel, dim=32, seed=0, lr=0.1):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))


class ComplEx(BCEModel):
    """Trouillon et al. 2016: Re⟨h, r, conj(t)⟩ over ℂ^{dim/2}."""

    def __init__(self, n_ent, n_rel, dim=32, seed=0, lr=0.1):
        assert dim % 2 == 0, "ComplEx dim must be even (re/im halves)"
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))

    def _split(self, x):
        d = self.dim // 2
        return x[..., :d], x[..., d:]

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        E, R = self.params["E"], self.params["R"]
        hr, hi = self._split(E[tr[:, 0]])
        rr, ri = self._split(R[tr[:, 1]])
        tr_, ti = self._split(E[tr[:, 2]])
        return np.einsum(
            "ij->i",
            hr * rr * tr_ + hi * rr * ti + hr * ri * ti - hi * ri * tr_,
        )

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        E, R = self.params["E"], self.params["R"]
        er, ei = self._split(E)
        out = []
        for a, r in zip(anchors, rels):
            rr, ri = self._split(R[r])
            ar, ai = self._split(E[a])
            if tails:  # Re⟨a, r, conj(t)⟩ over all t
                out.append(er @ (ar * rr - ai * ri) + ei @ (ai * rr + ar * ri))
            else:  # over all heads with fixed tail a
                out.append(er @ (rr * ar + ri * ai) + ei @ (rr * ai - ri * ar))
        return np.array(out)

    def bce_grads(self, tr, g, E) -> None:
        R = self.params["R"]
        hr, hi = self._split(E[tr[:, 0]])
        rr, ri = self._split(R[tr[:, 1]])
        t_r, t_i = self._split(E[tr[:, 2]])
        g_hr = g * (rr * t_r + ri * t_i)
        g_hi = g * (rr * t_i - ri * t_r)
        g_tr = g * (hr * rr - hi * ri)
        g_ti = g * (hi * rr + hr * ri)
        g_rr = g * (hr * t_r + hi * t_i)
        g_ri = g * (hr * t_i - hi * t_r)
        self.sparse_update("E", tr[:, 0], np.concatenate([g_hr, g_hi], axis=1))
        self.sparse_update("E", tr[:, 2], np.concatenate([g_tr, g_ti], axis=1))
        self.sparse_update("R", tr[:, 1], np.concatenate([g_rr, g_ri], axis=1))
