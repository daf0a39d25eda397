"""Category prediction (paper Sec. IV-B; Tables V and VI).

Task: link an *item* (a noisy instance of a product) to its leaf
category — "link prediction in a KG specifically for item categories".

Dataset: items derive from product titles with realistic degradation:
the category word itself is dropped 60% of the time (sellers rarely
spell out the taxonomy label), other tokens drop at 15%, extra
marketing noise is appended.  So the category must usually be inferred
from brand/value/concept evidence — exactly the evidence OpenBG priors
carry, which is why "+KG" variants win and win hardest in k-shot
(Table VI).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd

from repro.construction.assemble import OpenBG
from repro.corpus.vocab import NOISE_TOKENS
from repro.downstream import train_valid_split
from repro.downstream.classifier import SoftmaxClassifier
from repro.pretrain.model import FoundationModel


def build_dataset(
    kg: OpenBG, items_per_product: int = 3, seed: int = 0
) -> pd.DataFrame:
    """(tokens, category) item rows; deterministic."""
    g = np.random.default_rng(seed)
    cat_label = kg.onto.taxonomies["Category"].label_of()
    rows = []
    for pid, category, title in kg.catalog.products[
        ["product_id", "category", "title"]
    ].itertuples(index=False):
        toks_full = title.split()
        label_tok = cat_label[category]
        for _ in range(items_per_product):
            toks = []
            for t in toks_full:
                if t == label_tok:
                    if g.random() < 0.4:
                        toks.append(t)
                elif g.random() > 0.15:
                    toks.append(t)
            toks += [str(w) for w in g.choice(NOISE_TOKENS, size=g.integers(0, 3))]
            if not toks:
                toks = [str(g.choice(NOISE_TOKENS))]
            rows.append({"tokens": " ".join(toks), "category": category})
    return pd.DataFrame(rows)


def _featurize(
    model: FoundationModel, df: pd.DataFrame, categories: List[str]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    X = np.stack([model.encode(t.split()) for t in df["tokens"]])
    priors = None
    if model.kg is not None:
        priors = np.stack(
            [
                model.kg.category_prior(t.split(), categories)[:, None]
                for t in df["tokens"]
            ]
        )
    return X, priors


def k_shot_subsample(train: pd.DataFrame, k: int) -> pd.DataFrame:
    """k examples per category (Table VI's 1-/5-shot protocol), drawn
    with a fixed seed."""
    g = np.random.default_rng(3)
    parts = []
    for _, grp in train.groupby("category"):
        take = min(k, len(grp))
        parts.append(grp.iloc[g.permutation(len(grp))[:take]])
    return pd.concat(parts, ignore_index=True)


def run_category_prediction(
    kg: OpenBG,
    models: Dict[str, FoundationModel],
    dataset: Optional[pd.DataFrame] = None,
    k_shot: Optional[int] = None,
    epochs: int = 30,
) -> Dict[str, float]:
    """Accuracy per model variant (one Table V column / Table VI row)."""
    if dataset is None:
        dataset = build_dataset(kg)
    categories = sorted(dataset["category"].unique())
    cat_idx = {c: i for i, c in enumerate(categories)}
    train, valid = train_valid_split(dataset)
    if k_shot is not None:
        train = k_shot_subsample(train, k_shot)
    y_tr = train["category"].map(cat_idx).to_numpy()
    y_va = valid["category"].map(cat_idx).to_numpy()

    out = {}
    for name, model in models.items():
        X_tr, p_tr = _featurize(model, train, categories)
        X_va, p_va = _featurize(model, valid, categories)
        clf = SoftmaxClassifier(
            len(categories), X_tr.shape[1], n_priors=1 if p_tr is not None else 0,
            seed=11,
        ).fit(X_tr, y_tr, p_tr, epochs=epochs)
        out[name] = clf.accuracy(X_va, y_va, p_va)
    return out
