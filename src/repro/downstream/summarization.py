"""Title summarization (paper Sec. IV-D; Table V, ROUGE-L).

Task: compress an expatiatory title to its essential content.  Long
titles are built by injecting extra marketing tokens into product
titles; the reference keeps the informative tokens (brand, category,
values, concepts) in order.  Models are extractive: a per-token
keep/drop logistic head over each variant's features; KG variants add
"token is a KG entity/value/label" evidence, which is exactly why
attribute-bearing tokens survive compression (the paper's analysis).
"""
from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pandas as pd

from repro.construction.assemble import OpenBG
from repro.construction.lexicon import Lexicon
from repro.corpus.vocab import NOISE_TOKENS
from repro.downstream import train_valid_split
from repro.downstream.classifier import SoftmaxClassifier
from repro.downstream.rouge import corpus_rouge_l
from repro.pretrain.model import FoundationModel


def build_dataset(kg: OpenBG, seed: int = 0) -> pd.DataFrame:
    """(long, ref) token strings.  ``ref`` = non-noise tokens of the
    original title; ``long`` = title + 3–6 extra marketing tokens at
    random positions.  Informative = brand surfaces, attribute values
    and taxonomy labels."""
    g = np.random.default_rng(seed)
    lex = Lexicon.of(kg.onto)
    informative = lex.brand_tokens | set(lex.value_to_attr) | lex.taxonomy_labels

    rows = []
    for title in kg.catalog.products["title"]:
        toks = title.split()
        # stylistic keeps/drops: human editors keep the odd marketing
        # token and cut the odd informative one — an irreducible-error
        # floor so no extractor can reach ROUGE-L 1.0
        ref = [
            t
            for t in toks
            if (t in informative and g.random() < 0.9)
            or (t not in informative and g.random() < 0.12)
        ]
        if not ref:
            continue
        extra = list(g.choice(NOISE_TOKENS, size=g.integers(3, 7)))
        long_toks = list(toks)
        for e in extra:
            long_toks.insert(int(g.integers(0, len(long_toks) + 1)), str(e))
        rows.append({"long": " ".join(long_toks), "ref": " ".join(ref)})
    return pd.DataFrame(rows)


def _token_features(model: FoundationModel, tok: str) -> np.ndarray:
    feats = model.encode([tok])
    kg_flags = np.zeros(3)
    if model.kg is not None:
        kg_flags[0] = 1.0 if tok in model.kg.value_to_attr else 0.0
        kg_flags[1] = 1.0 if tok in model.kg.brand_tokens else 0.0
        kg_flags[2] = (
            1.0
            if tok in model.kg.concept_label_root or tok in model.kg.category_labels
            else 0.0
        )
    return np.concatenate([feats, kg_flags])


def run_summarization(
    kg: OpenBG,
    models: Dict[str, FoundationModel],
    dataset: Optional[pd.DataFrame] = None,
    epochs: int = 15,
) -> Dict[str, float]:
    """Corpus ROUGE-L (×100-comparable in [0,1]) per model variant."""
    if dataset is None:
        dataset = build_dataset(kg)
    train, valid = train_valid_split(dataset)

    out = {}
    for name, model in models.items():
        X_rows: List[np.ndarray] = []
        y_rows: List[int] = []
        for long, ref in train[["long", "ref"]].itertuples(index=False):
            keep = set(ref.split())
            for tok in long.split():
                X_rows.append(_token_features(model, tok))
                y_rows.append(1 if tok in keep else 0)
        X = np.stack(X_rows)
        y = np.array(y_rows)
        clf = SoftmaxClassifier(2, X.shape[1], seed=13).fit(X, y, epochs=epochs)

        preds, refs = [], []
        for long, ref in valid[["long", "ref"]].itertuples(index=False):
            toks = long.split()
            Xv = np.stack([_token_features(model, t) for t in toks])
            keep = clf.predict(Xv)
            preds.append([t for t, k_ in zip(toks, keep) if k_ == 1])
            refs.append(ref.split())
        out[name] = corpus_rouge_l(preds, refs)
    return out
