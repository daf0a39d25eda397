"""Base KGE model: parameter store, AdaGrad, shared training steps.

A model states its score once and inherits training and ranking:

- ``entity_embeddings()`` — the (n_ent, dim) entity matrix the score
  reads: ``params["E"]`` by default, ``X @ P`` for the text models,
  ``E + (gated) visual`` for the multimodal ones;
- ``score_triples(tr, E=None)`` — the row-wise score formula for (n, 3)
  index triples, higher = more plausible.  ``E`` is
  ``entity_embeddings()`` when the caller already holds it;
- ``score_all(anchors, rels, tails=True)`` — (B, n_ent) scores of every
  entity as tail (or head) of each (anchor, relation) query.  Each row
  is computed on its own, so it is bit-identical to the one-query call
  ``score_candidates`` makes;
- the gradient hook of its training step: ``margin_grads`` under
  :class:`MarginModel`, ``bce_grads`` under :class:`BCEModel` (GenKGC
  keeps its own softmax ``train_step``).  A hook applies its AdaGrad
  updates itself, because some updates read parameters that an earlier
  update in the same step has moved.  The shared translational and
  trilinear hooks pass the gradient of ``entity_embeddings()`` rows to
  ``entity_grads``, which each way of building that matrix (free table,
  text projection, visual fusion) implements once.

``entity_embeddings()`` is memoised where it is computed (text
projection, visual fusion; see :func:`per_param_state`): ``params`` is
a :class:`Params` dict whose ``version`` grows on every assignment of
an entry and every ``sparse_update`` / ``dense_update``, and those are
the only ways a memoising model changes its parameters.  Ranking and
``score_candidates`` calls between two updates reuse one matrix; a
training step still computes it once, since the previous step's updates
moved the version.  (TransE/H/D renormalise rows in place after an
update, but their entity matrix is ``params["E"]`` itself, never a
memoised copy.)

The shared ``fit`` loop does deterministic shuffling, negative sampling
and batching — mirroring the paper's training setup (AdaGrad/SGD,
negative sampling, dim 200 at paper scale; dim ≤ 64 here).
"""
from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.kge.data import KGEDataset, negative_sample

#: (entity indices, dL/d entity_embeddings()[indices]) pairs
Blocks = List[Tuple[np.ndarray, np.ndarray]]


class Params(dict):
    """Parameter arrays by name; ``version`` counts assignments of an
    entry and AdaGrad updates (bumped by the update methods)."""

    version = 0

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        super().__setitem__(name, value)
        self.version += 1


def per_param_state(embed: Callable[["KGEModel"], np.ndarray]):
    """Memoise an ``entity_embeddings`` method until ``params`` moves.

    Every caller gets the same array, so none may write to it.
    """

    @functools.wraps(embed)
    def memoised(self: "KGEModel") -> np.ndarray:
        if self._memo[0] != self.params.version:
            self._memo = (self.params.version, embed(self))
        return self._memo[1]

    return memoised


class KGEModel:
    """Parameter store with sparse AdaGrad updates."""

    name = "base"

    def __init__(self, n_ent: int, n_rel: int, dim: int = 32, seed: int = 0, lr: float = 0.1):
        self.n_ent, self.n_rel, self.dim, self.lr = n_ent, n_rel, dim, lr
        self.rng = np.random.default_rng(seed)
        self.params = Params()
        self._acc: Dict[str, np.ndarray] = {}
        self._memo: Tuple[int, Optional[np.ndarray]] = (-1, None)

    # ---- parameter helpers ------------------------------------------------
    def add_param(self, name: str, shape, scale: Optional[float] = None) -> None:
        scale = scale if scale is not None else 1.0 / np.sqrt(shape[-1])
        self.params[name] = self.rng.normal(0, scale, size=shape)
        self._acc[name] = np.full(shape, 1e-8)

    def sparse_update(self, name: str, idx: np.ndarray, grad: np.ndarray) -> None:
        """AdaGrad row update; duplicate indices accumulate correctly."""
        acc, p = self._acc[name], self.params[name]
        np.add.at(acc, idx, grad**2)
        np.add.at(p, idx, -self.lr * grad / np.sqrt(acc[idx]))
        self.params.version += 1

    def dense_update(self, name: str, grad: np.ndarray) -> None:
        acc, p = self._acc[name], self.params[name]
        acc += grad**2
        p -= self.lr * grad / np.sqrt(acc)
        self.params.version += 1

    def entity_grads(self, blocks: Blocks) -> None:
        """Backpropagate entity-row gradients into the free table E."""
        for idx, g in blocks:
            self.sparse_update("E", idx, g)

    # ---- model interface --------------------------------------------------
    def entity_embeddings(self) -> np.ndarray:
        return self.params["E"]

    def score_triples(self, triples: np.ndarray, E: Optional[np.ndarray] = None) -> np.ndarray:
        """Plausibility scores for (n, 3) index triples; higher = better."""
        raise NotImplementedError

    def score_all(self, anchors: np.ndarray, rels: np.ndarray, tails: bool = True) -> np.ndarray:
        """(B, n_ent) scores of every entity as tail (``tails``) or head
        of the queries (anchors[i], rels[i]); one row per query."""
        raise NotImplementedError

    def train_step(self, pos: np.ndarray, neg: np.ndarray) -> float:
        """One gradient step on a batch; returns the batch loss."""
        raise NotImplementedError

    def score_candidates(self, h: int, r: int, tails: bool = True) -> np.ndarray:
        """Scores of every entity as candidate tail (or head, with ``h``
        the fixed tail): the one-query view of :meth:`score_all`."""
        return self.score_all(np.array([h]), np.array([r]), tails)[0]

    # ---- training loop ----------------------------------------------------
    def fit(
        self,
        data: KGEDataset,
        epochs: int = 30,
        batch_size: int = 512,
        neg_k: int = 4,
        verbose: bool = False,
    ) -> "KGEModel":
        train = data.train
        for ep in range(epochs):
            order = self.rng.permutation(len(train))
            total = 0.0
            for s in range(0, len(train), batch_size):
                pos = train[order[s : s + batch_size]]
                neg = negative_sample(pos, self.n_ent, neg_k, self.rng, data.known_keys)
                total += self.train_step(pos, neg)
            if verbose:
                print(f"[{self.name}] epoch {ep} loss {total:.3f}")
        return self


class MarginModel(KGEModel):
    """Margin ranking loss: each positive is paired with its k negatives
    and only the pairs that violate the margin contribute."""

    margin = 1.0

    def train_step(self, pos: np.ndarray, neg: np.ndarray) -> float:
        p = np.repeat(pos, len(neg) // len(pos), axis=0)
        E = self.entity_embeddings()
        viol = self.margin - self.score_triples(p, E) + self.score_triples(neg, E)
        act = viol > 0
        if not act.any():
            return 0.0
        self.margin_grads(p[act], neg[act], E)
        return float(viol[act].sum())

    def margin_grads(self, pa: np.ndarray, na: np.ndarray, E: np.ndarray) -> None:
        """Update the parameters for the violating pairs (pa[i], na[i])."""
        raise NotImplementedError


class BCEModel(KGEModel):
    """Binary cross-entropy over positives (label 1) and negatives (0)."""

    def train_step(self, pos: np.ndarray, neg: np.ndarray) -> float:
        tr = np.concatenate([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        E = self.entity_embeddings()
        loss, g = bce_loss_grad(self.score_triples(tr, E), labels)
        self.bce_grads(tr, g[:, None], E)
        return loss

    def bce_grads(self, tr: np.ndarray, g: np.ndarray, E: np.ndarray) -> None:
        """Update the parameters given dL/dscore ``g`` (n, 1) per triple."""
        raise NotImplementedError


def through(F: np.ndarray, blocks: Blocks) -> np.ndarray:
    """Gradient of a projection W in ``F @ W`` from entity-row blocks,
    summed block by block in the given order."""
    return sum(F[idx].T @ g for idx, g in blocks)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def bce_loss_grad(scores: np.ndarray, labels: np.ndarray):
    """Binary cross-entropy over logit scores → (loss, dL/dscore)."""
    p = sigmoid(scores)
    eps = 1e-9
    loss = -np.mean(labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps))
    grad = (p - labels) / len(scores)
    return float(loss), grad
