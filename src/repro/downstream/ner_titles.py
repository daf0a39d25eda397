"""NER for item titles (paper Sec. IV-C; Tables V and VII).

Task: recognize property–value pairs in titles.  Tags are the owning
property: a value token ``val01234`` must be tagged ``B-attr:0007`` —
the token surface does *not* encode the property (opaque vocabulary),
so the tagger needs memorization, embedding clusters, or the KG
value→attribute gazetteer (the "+KG" edge, decisive in k-shot).

Model variants differ only in the feature extractor handed to the
shared structured perceptron: all get lexical features; pretrained
variants add embedding-cluster features; "+KG" adds gazetteer features.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.construction.assemble import OpenBG
from repro.construction.lexicon import Lexicon
from repro.construction.tagger import PerceptronTagger, span_prf, token_features
from repro.downstream import train_valid_split
from repro.pretrain.model import FoundationModel

Sentence = Tuple[List[str], List[str]]  # tokens, BIO tags


def build_ner_dataset(kg: OpenBG) -> List[Sentence]:
    """Titles + fine-grained BIO tags from the ontology's lexicon."""
    lex = Lexicon.of(kg.onto)
    out: List[Sentence] = []
    for title in kg.catalog.products["title"]:
        toks = title.split()
        tags = []
        for t in toks:
            if t in lex.value_to_attr:
                tags.append(f"B-{lex.value_to_attr[t]}")
            elif t in lex.brand_tokens:
                tags.append("B-brand")
            elif t in lex.category_labels:
                tags.append("B-category")
            elif t in lex.concept_label_root:
                tags.append(f"B-{lex.concept_label_root[t]}")
            else:
                tags.append("O")
        out.append((toks, tags))
    return out


class VariantFeatures:
    """Picklable feature extractor for one model variant."""

    def __init__(self, model: FoundationModel):
        self.clusters = model.clusters()
        if model.kg is not None:
            self.value_attr = model.kg.value_to_attr
            self.brand = model.kg.brand_tokens
            self.concept_root = model.kg.concept_label_root
            self.cat_labels = model.kg.category_labels
        else:
            self.value_attr = {}
            self.brand = frozenset()
            self.concept_root = {}
            self.cat_labels = frozenset()

    def __call__(self, tokens: Sequence[str], i: int) -> List[str]:
        feats = token_features(tokens, i)
        w = tokens[i]
        cl = self.clusters.get(w)
        if cl is not None:
            feats.append(f"cl={cl}")
            if i > 0:
                feats.append(f"pcl={self.clusters.get(tokens[i - 1], -1)}")
        if self.value_attr:
            if w in self.value_attr:
                feats.append(f"gaz_attr={self.value_attr[w]}")
            if w in self.brand:
                feats.append("gaz_brand")
            if w in self.concept_root:
                feats.append(f"gaz_concept={self.concept_root[w]}")
            if w in self.cat_labels:
                feats.append("gaz_cat")
        return feats


def k_shot_subsample(train: List[Sentence], k: int) -> List[Sentence]:
    """Greedy k-shot cover (Table VII's protocol): scan a seeded shuffle
    of ``train`` and keep a sentence if any of its entity types is in
    fewer than k kept sentences so far — Few-NERD's greedy sampling (Ding
    et al., ACL 2021) without its 2k upper bound.

    Every type then appears in at least min(k, its train count) kept
    sentences.  It is not a ≤ k cap: a kept sentence brings all its
    types along, so frequent types appear in far more than k (``category``,
    tagged in every title, in every kept sentence).
    """
    g = np.random.default_rng(3)
    order = g.permutation(len(train))
    quota: Dict[str, int] = {}
    picked = []
    for j in order:
        toks, tags = train[j]
        types = {t[2:] for t in tags if t.startswith("B-")}
        if any(quota.get(tp, 0) < k for tp in types):
            picked.append(train[j])
            for tp in types:
                quota[tp] = quota.get(tp, 0) + 1
    return picked


def run_ner(
    kg: OpenBG,
    models: Dict[str, FoundationModel],
    dataset: Optional[List[Sentence]] = None,
    k_shot: Optional[int] = None,
    epochs: int = 5,
) -> Dict[str, Tuple[float, float, float]]:
    """(P, R, F) per model variant."""
    if dataset is None:
        dataset = build_ner_dataset(kg)
    train, valid = train_valid_split(dataset)
    if k_shot is not None:
        train = k_shot_subsample(train, k_shot)
    tag_set = sorted({t for _, tags in dataset for t in tags})

    out = {}
    for name, model in models.items():
        tagger = PerceptronTagger(tag_set, feature_fn=VariantFeatures(model))
        tagger.fit([s for s, _ in train], [t for _, t in train], epochs=epochs)
        pred = [tagger.predict(s) for s, _ in valid]
        out[name] = span_prf([t for _, t in valid], pred)
    return out
