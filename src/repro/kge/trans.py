"""Translational-distance models: TransE, TransH, TransD, and the
translational score KG-BERT, TransAE and RSME share with TransE.

Hand-derived gradients, margin ranking loss, AdaGrad, post-step norm
constraints — the real algorithms at reduced dimension (see DESIGN.md).
Scores are negated (squared-L2) distances, so higher = more plausible
everywhere in the codebase.
"""
from __future__ import annotations

import numpy as np

from repro.kge.base import Blocks, MarginModel


def _rows(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _clip_norms(E: np.ndarray) -> None:
    """In place: ||e|| ≤ 1 for every row."""
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    np.divide(E, np.maximum(norms, 1.0), out=E)


class Translational(MarginModel):
    """s(h, r, t) = −||e_h + r − e_t||² over ``entity_embeddings()``;
    the score of TransE, KG-BERT, TransAE and RSME."""

    def _diff(self, tr: np.ndarray, E: np.ndarray) -> np.ndarray:
        return E[tr[:, 0]] + self.params["R"][tr[:, 1]] - E[tr[:, 2]]

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        return -_rows(self._diff(tr, self.entity_embeddings() if E is None else E))

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        E, R = self.entity_embeddings(), self.params["R"]
        return np.array([
            -_rows((E[a] + R[r])[None, :] - E if tails else E + R[r][None, :] - E[a][None, :])
            for a, r in zip(anchors, rels)
        ])

    def margin_grads(self, pa, na, E) -> None:
        up, un = self._diff(pa, E), self._diff(na, E)
        self.sparse_update("R", np.concatenate([pa[:, 1], na[:, 1]]),
                           2 * np.concatenate([up, -un]))
        self.entity_grads([(pa[:, 0], 2 * up), (pa[:, 2], -2 * up),
                           (na[:, 0], -2 * un), (na[:, 2], 2 * un)])

    def entity_grads(self, blocks: Blocks) -> None:
        # one AdaGrad call for positive heads + negative tails, one for
        # the rest: duplicates inside a call share one accumulator read
        (hp, g_hp), (tp, g_tp), (hn, g_hn), (tn, g_tn) = blocks
        self.sparse_update("E", np.concatenate([hp, tn]), np.concatenate([g_hp, g_tn]))
        self.sparse_update("E", np.concatenate([tp, hn]), np.concatenate([g_tp, g_hn]))


class TransE(Translational):
    """Bordes et al. 2013: d(h, r, t) = ||h + r − t||²."""

    def __init__(self, n_ent, n_rel, dim=32, seed=0, lr=0.1):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))
        self.params["E"] /= np.linalg.norm(self.params["E"], axis=1, keepdims=True)

    def entity_grads(self, blocks: Blocks) -> None:
        super().entity_grads(blocks)
        _clip_norms(self.params["E"])


def _update_pairs(model: MarginModel, pa, na, gp, gn, targets) -> None:
    """Sparse update of each (param, triple column) target with the
    matching positive and negative gradient rows."""
    for (name, col), g_p, g_n in zip(targets, gp, gn):
        model.sparse_update(name, np.concatenate([pa[:, col], na[:, col]]),
                            np.concatenate([g_p, g_n]))


class TransH(MarginModel):
    """Wang et al. 2014: translate on the relation hyperplane w_r."""

    def __init__(self, n_ent, n_rel, dim=32, seed=0, lr=0.1):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("R", (n_rel, dim))   # translation d_r
        self.add_param("W", (n_rel, dim))   # hyperplane normal w_r
        self.params["W"] /= np.linalg.norm(self.params["W"], axis=1, keepdims=True)

    def _proj_diff(self, tr: np.ndarray):
        E, R, W = self.params["E"], self.params["R"], self.params["W"]
        h, t = E[tr[:, 0]], E[tr[:, 2]]
        w, d = W[tr[:, 1]], R[tr[:, 1]]
        hp = h - np.einsum("ij,ij->i", w, h)[:, None] * w
        tp = t - np.einsum("ij,ij->i", w, t)[:, None] * w
        return hp + d - tp, h, t, w

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        u, *_ = self._proj_diff(tr)
        return -_rows(u)

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        E, R, W = self.params["E"], self.params["R"], self.params["W"]
        out = []
        for a, r in zip(anchors, rels):
            w, d = W[r], R[r]
            proj = E - (E @ w)[:, None] * w[None, :]
            anchor = E[a] - (E[a] @ w) * w
            diff = (anchor + d)[None, :] - proj if tails else proj + d[None, :] - anchor[None, :]
            out.append(-_rows(diff))
        return np.array(out)

    def _grads(self, tr: np.ndarray, sign: float):
        """(per-row gradient contributions) × sign for margin loss."""
        u, h, t, w = self._proj_diff(tr)
        wu = np.einsum("ij,ij->i", w, u)[:, None]
        g_h = 2 * (u - wu * w)
        g_t = -g_h
        g_d = 2 * u
        wth = np.einsum("ij,ij->i", w, t - h)[:, None]
        g_w = 2 * (wu * (t - h) + wth * u)
        return sign * g_h, sign * g_t, sign * g_d, sign * g_w

    def margin_grads(self, pa, na, E) -> None:
        _update_pairs(self, pa, na, self._grads(pa, 1.0), self._grads(na, -1.0),
                      (("E", 0), ("E", 2), ("R", 1), ("W", 1)))
        W = self.params["W"]
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        _clip_norms(self.params["E"])


class TransD(MarginModel):
    """Ji et al. 2015: dynamic mapping h⊥ = h + (h_p·h) r_p."""

    def __init__(self, n_ent, n_rel, dim=32, seed=0, lr=0.1):
        super().__init__(n_ent, n_rel, dim, seed, lr)
        self.add_param("E", (n_ent, dim))
        self.add_param("Ep", (n_ent, dim))
        self.add_param("R", (n_rel, dim))
        # r_p starts at ~0 so the model begins as (well-behaved) TransE
        # and learns its dynamic projection on top — mirroring the
        # original's init-from-TransE recipe.
        self.add_param("Rp", (n_rel, dim), scale=1e-3)

    def _proj_diff(self, tr: np.ndarray):
        E, Ep = self.params["E"], self.params["Ep"]
        R, Rp = self.params["R"], self.params["Rp"]
        h, hp = E[tr[:, 0]], Ep[tr[:, 0]]
        t, tp = E[tr[:, 2]], Ep[tr[:, 2]]
        r, rp = R[tr[:, 1]], Rp[tr[:, 1]]
        hperp = h + np.einsum("ij,ij->i", hp, h)[:, None] * rp
        tperp = t + np.einsum("ij,ij->i", tp, t)[:, None] * rp
        return hperp + r - tperp, h, hp, t, tp, rp

    def score_triples(self, tr: np.ndarray, E=None) -> np.ndarray:
        u, *_ = self._proj_diff(tr)
        return -_rows(u)

    def score_all(self, anchors, rels, tails: bool = True) -> np.ndarray:
        E, Ep = self.params["E"], self.params["Ep"]
        ep_e = np.einsum("ij,ij->i", Ep, E)[:, None]
        out = []
        for a, r in zip(anchors, rels):
            rp, rvec = self.params["Rp"][r], self.params["R"][r]
            cand = E + ep_e * rp[None, :]
            anchor = E[a] + (Ep[a] @ E[a]) * rp
            diff = (anchor + rvec)[None, :] - cand if tails else cand + rvec[None, :] - anchor[None, :]
            out.append(-_rows(diff))
        return np.array(out)

    def _grads(self, tr: np.ndarray, sign: float):
        u, h, hp, t, tp, rp = self._proj_diff(tr)
        rpu = np.einsum("ij,ij->i", rp, u)[:, None]
        g_h = 2 * (u + rpu * hp)
        g_hp = 2 * rpu * h
        g_t = -2 * (u + rpu * tp)
        g_tp = -2 * rpu * t
        g_r = 2 * u
        coeff = (np.einsum("ij,ij->i", hp, h) - np.einsum("ij,ij->i", tp, t))[:, None]
        g_rp = 2 * coeff * u
        return tuple(sign * g for g in (g_h, g_hp, g_t, g_tp, g_r, g_rp))

    def margin_grads(self, pa, na, E) -> None:
        _update_pairs(self, pa, na, self._grads(pa, 1.0), self._grads(na, -1.0),
                      (("E", 0), ("Ep", 0), ("E", 2), ("Ep", 2), ("R", 1), ("Rp", 1)))
        _clip_norms(self.params["E"])
