"""Triple indexing, known-target filters and negative sampling for KGE."""
from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from repro.benchmark.build import Benchmark


@dataclasses.dataclass(frozen=True)
class KnownTargets:
    """Every known target of each (anchor, relation) query, in CSR form.

    Entries are sorted by the row key ``anchor * n_rel + relation``, so
    the targets of one query are the contiguous run ``targets[lo:hi]``
    whose bounds binary search finds in ``keys``.
    """

    n_rel: int
    keys: np.ndarray
    targets: np.ndarray

    @classmethod
    def build(cls, anchors: np.ndarray, rels: np.ndarray, targets: np.ndarray,
              n_rel: int) -> "KnownTargets":
        keys = anchors.astype(np.int64) * n_rel + rels
        order = np.argsort(keys, kind="stable")
        return cls(n_rel, keys[order], targets[order])

    def mask(self, scores: np.ndarray, anchors: np.ndarray, rels: np.ndarray) -> None:
        """In place: scores[i, t] = -inf for every known target t of
        query (anchors[i], rels[i])."""
        q = anchors.astype(np.int64) * self.n_rel + rels
        lo = np.searchsorted(self.keys, q, "left")
        hi = np.searchsorted(self.keys, q, "right")
        for row, a, b in zip(scores, lo, hi):
            row[self.targets[a:b]] = -np.inf


@dataclasses.dataclass
class KGEDataset:
    """Integer-indexed view of one benchmark.

    ``train``/``dev``/``test`` are (n, 3) int32 arrays of
    (head, relation, tail) indices.  ``known`` holds every true triple
    across all splits — the *filtered* evaluation protocol removes these
    from candidate rankings, through ``filters["tail"]`` (known tails of
    each (h, r)) and ``filters["head"]`` (known heads of each (t, r)).
    """

    entities: List[str]
    relations: List[str]
    train: np.ndarray
    dev: np.ndarray
    test: np.ndarray
    ent_idx: Dict[str, int]
    rel_idx: Dict[str, int]
    known: Set[Tuple[int, int, int]]
    filters: Dict[str, KnownTargets]

    @property
    def n_ent(self) -> int:
        return len(self.entities)

    @property
    def n_rel(self) -> int:
        return len(self.relations)

    @classmethod
    def from_frames(
        cls,
        train: pd.DataFrame,
        dev: pd.DataFrame,
        test: pd.DataFrame,
    ) -> "KGEDataset":
        all_pdf = pd.concat([train, dev, test], ignore_index=True)
        entities = sorted(set(all_pdf["h"]) | set(all_pdf["t"]))
        relations = sorted(set(all_pdf["r"]))
        ent_idx = {e: i for i, e in enumerate(entities)}
        rel_idx = {r: i for i, r in enumerate(relations)}

        def enc(df: pd.DataFrame) -> np.ndarray:
            if len(df) == 0:
                return np.zeros((0, 3), dtype=np.int32)
            return np.stack(
                [
                    df["h"].map(ent_idx).to_numpy(np.int32),
                    df["r"].map(rel_idx).to_numpy(np.int32),
                    df["t"].map(ent_idx).to_numpy(np.int32),
                ],
                axis=1,
            )

        tr, dv, te = enc(train), enc(dev), enc(test)
        every = np.concatenate([tr, dv, te])
        known = {tuple(row) for row in every.tolist()}
        h, r, t = every.T
        filters = {"tail": KnownTargets.build(h, r, t, len(relations)),
                   "head": KnownTargets.build(t, r, h, len(relations))}
        return cls(entities, relations, tr, dv, te, ent_idx, rel_idx, known, filters)

    @classmethod
    def from_benchmark(cls, bench: Benchmark) -> "KGEDataset":
        return cls.from_frames(bench.train_pdf, bench.dev_pdf, bench.test_pdf)


def negative_sample(
    pos: np.ndarray, n_ent: int, k: int, rng: np.random.Generator,
    known: Optional[Set[Tuple[int, int, int]]] = None,
) -> np.ndarray:
    """k negatives per positive by corrupting head or tail (50/50).

    With ``known`` given, corruptions that collide with true triples are
    re-drawn once (best-effort filtering — standard practice).
    """
    n = len(pos)
    neg = np.repeat(pos, k, axis=0)
    corrupt_tail = rng.random(n * k) < 0.5
    repl = rng.integers(0, n_ent, n * k)
    neg[corrupt_tail, 2] = repl[corrupt_tail]
    neg[~corrupt_tail, 0] = repl[~corrupt_tail]
    if known is not None:
        for i in range(len(neg)):
            if tuple(neg[i]) in known:
                col = 2 if corrupt_tail[i] else 0
                neg[i, col] = rng.integers(0, n_ent)
    return neg
