"""Salience evaluation (paper Sec. IV-F; Table V, accuracy).

Task: given a statement ⟨entity, relation, concept⟩, score 1 iff the
relation is a *key trait* — ⟨running shoes, relatedScene, running⟩ is
salient; ⟨shoes, relatedScene, running⟩ is not.

Ground truth comes from the generator's *latent* category→concept
affinity (see :func:`repro.corpus.products.affinity_permutation`):
statements whose concept sits at the top of the category's affinity
ordering are salient; far-down concepts are not (middle ranks are
dropped, like an expert panel excluding ambiguous cases).  "+KG"
variants see the facet statistics measured from the finite KG — a noisy
estimate of the latent affinity, which is exactly the paper's claim
that salience "is heavily dependent on commonsense knowledge …
crucial constituent in OpenBG".
"""
from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pandas as pd

from repro.construction.assemble import OpenBG
from repro.core import schema as S
from repro.corpus.products import CONCEPT_RELS, affinity_permutation
from repro.downstream import train_valid_split
from repro.downstream.classifier import SoftmaxClassifier
from repro.pretrain.model import FoundationModel

#: Affinity-rank thresholds: ≤ SALIENT_RANK → label 1; ≥ NONSALIENT_RANK → 0.
SALIENT_RANK = 1
NONSALIENT_RANK = 4


def build_dataset(kg: OpenBG, seed: int = 0) -> pd.DataFrame:
    """(category, r, node, cat_label, concept_label, label) rows."""
    cat_label = kg.onto.taxonomies["Category"].label_of()
    rows = []
    for rel in CONCEPT_RELS:
        root = S.OBJECT_PROPERTY_RANGE[rel]
        leaves = kg.onto.taxonomies[root].leaves()["node_id"].to_numpy()
        if len(leaves) < NONSALIENT_RANK + 1:
            continue
        node_label = kg.onto.taxonomies[root].label_of()
        for category in sorted(kg.catalog.products["category"].unique()):
            perm = affinity_permutation(root, category, len(leaves))
            rank_of = {leaves[perm[k]]: k for k in range(len(leaves))}
            for node, rank in rank_of.items():
                if rank <= SALIENT_RANK:
                    label = 1
                elif rank >= NONSALIENT_RANK:
                    label = 0
                else:
                    continue  # ambiguous middle band, dropped
                rows.append(
                    {
                        "category": category,
                        "r": rel,
                        "node": node,
                        "cat_label": cat_label[category],
                        "concept_label": node_label[node],
                        "label": label,
                    }
                )
    df = pd.DataFrame(rows)
    # balance classes deterministically
    g = np.random.default_rng(seed)
    pos = df[df["label"] == 1]
    neg = df[df["label"] == 0]
    n = min(len(pos), len(neg))
    pos = pos.iloc[g.permutation(len(pos))[:n]]
    neg = neg.iloc[g.permutation(len(neg))[:n]]
    return pd.concat([pos, neg], ignore_index=True)


def _featurize(model: FoundationModel, df: pd.DataFrame) -> np.ndarray:
    rows = []
    for cat_l, conc_l, category, rel, node in df[
        ["cat_label", "concept_label", "category", "r", "node"]
    ].itertuples(index=False):
        base = model.encode([cat_l, conc_l])
        extra = np.zeros(3)
        if model.kg is not None:
            stats = model.kg.statement_stats.get((category, rel, node))
            if stats is not None:
                typ, rem = stats
                extra = np.array([typ, min(rem, 5.0), 1.0])
        rows.append(np.concatenate([base, extra]))
    return np.stack(rows)


def run_salience(
    kg: OpenBG,
    models: Dict[str, FoundationModel],
    dataset: Optional[pd.DataFrame] = None,
    epochs: int = 30,
) -> Dict[str, float]:
    """Accuracy per model variant."""
    if dataset is None:
        dataset = build_dataset(kg)
    if len(dataset) < 10:
        # degenerate at tiny scales (concept taxonomies too small to
        # define a salient/non-salient band) — nothing to evaluate
        return {}
    train, valid = train_valid_split(dataset)
    y_tr = train["label"].to_numpy()
    y_va = valid["label"].to_numpy()
    out = {}
    for name, model in models.items():
        X_tr = _featurize(model, train)
        X_va = _featurize(model, valid)
        clf = SoftmaxClassifier(2, X_tr.shape[1], seed=17).fit(
            X_tr, y_tr, epochs=epochs
        )
        out[name] = clf.accuracy(X_va, y_va)
    return out
