"""Filtered link-prediction evaluation: Hits@K, MR, MRR.

Protocol (paper Sec. III-B/C): for each test triple, score every entity
as a candidate tail (and, standardly, head), mask out *other* known true
triples (filtered setting), and rank the gold entity; report Hits@1/3/10
(higher better), Mean Rank (lower better), Mean Reciprocal Rank.

Queries are scored ``CHUNK`` at a time with the model's ``score_all``
and masked with the dataset's CSR filters of known targets.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kge.base import KGEModel
from repro.kge.data import KGEDataset, KnownTargets

#: Paper protocol (Sec. III-C): "given an incomplete triple (h, r, ?)
#: … predict a tail entity t" — tail prediction only.  Pass
#: ``("tail", "head")`` for the symmetric protocol other papers use.
DEFAULT_DIRECTIONS = ("tail",)

#: queries per ``score_all`` call; bounds the (CHUNK, n_ent) score block
CHUNK = 64


def _filtered_ranks(
    model: KGEModel, triples: np.ndarray, filt: KnownTargets, tails: bool
) -> np.ndarray:
    anchor_col, gold_col = (0, 2) if tails else (2, 0)
    ranks = np.empty(len(triples), dtype=np.int64)
    for s in range(0, len(triples), CHUNK):
        q = triples[s : s + CHUNK]
        anchors, rels, gold = q[:, anchor_col], q[:, 1], q[:, gold_col]
        scores = model.score_all(anchors, rels, tails=tails)
        gold_scores = scores[np.arange(len(q)), gold]
        # masking the gold entity too is harmless: it never outranks itself
        filt.mask(scores, anchors, rels)
        ranks[s : s + CHUNK] = 1 + np.sum(scores > gold_scores[:, None], axis=1)
    return ranks


def ranks_numpy(
    model: KGEModel,
    data: KGEDataset,
    split: str = "test",
    directions=DEFAULT_DIRECTIONS,
) -> np.ndarray:
    """Filtered ranks in split order; per triple the tail rank, then
    the head rank."""
    triples = getattr(data, split)
    per_direction = [
        _filtered_ranks(model, triples, data.filters[d], tails=d == "tail")
        for d in ("tail", "head") if d in directions
    ]
    return np.stack(per_direction, axis=1).ravel()


def metrics_from_ranks(ranks: np.ndarray) -> Dict[str, float]:
    return {
        "hits1": float(np.mean(ranks <= 1)),
        "hits3": float(np.mean(ranks <= 3)),
        "hits10": float(np.mean(ranks <= 10)),
        "mr": float(np.mean(ranks)),
        "mrr": float(np.mean(1.0 / ranks)),
    }


def evaluate(
    model: KGEModel,
    data: KGEDataset,
    split: str = "test",
    directions=DEFAULT_DIRECTIONS,
) -> Dict[str, float]:
    """Filtered evaluation of one split."""
    return metrics_from_ranks(ranks_numpy(model, data, split, directions))
