"""IE for reviews (paper Sec. IV-E; Table V, triple P/R/F).

Task: extract ⟨aspect, property, opinion⟩ triples from reviews (e.g.
⟨cushion, quality, nice⟩).  Models tag review tokens with a shared
structured perceptron (roles: ASP/PROP/OP) under each variant's feature
extractor — "+KG" variants get the taxonomy lexicon (aspect nouns are
category labels in OpenBG, the paper's stated mechanism) — and then
assemble triples: each PROP token pairs with the nearest ASP on its
left and the nearest OP on its right.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import pandas as pd

from repro.construction.assemble import OpenBG
from repro.construction.tagger import PerceptronTagger, micro_prf, token_features
from repro.corpus.reviews import REVIEW_PROPERTIES
from repro.downstream import train_valid_split
from repro.pretrain.model import FoundationModel

ROLE_TAGS = ["O", "B-ASP", "B-PROP", "B-OP"]

Triple = Tuple[str, str, str]


def role_tags_for(tokens: List[str], gold: str) -> List[str]:
    """Token-level role labels induced from the gold triples."""
    aspects: Set[str] = set()
    props: Set[str] = set()
    ops: Set[str] = set()
    for t in gold.split(";"):
        a, p, o = t.split("|")
        aspects.add(a)
        props.add(p)
        ops.add(o)
    tags = []
    for tok in tokens:
        if tok in aspects:
            tags.append("B-ASP")
        elif tok in props:
            tags.append("B-PROP")
        elif tok in ops:
            tags.append("B-OP")
        else:
            tags.append("O")
    return tags


def assemble_triples(tokens: Sequence[str], tags: Sequence[str]) -> Set[Triple]:
    """PROP anchors; nearest ASP left, nearest OP right."""
    out: Set[Triple] = set()
    for i, tag in enumerate(tags):
        if tag != "B-PROP":
            continue
        asp = next(
            (tokens[j] for j in range(i - 1, -1, -1) if tags[j] == "B-ASP"), None
        )
        op = next(
            (tokens[j] for j in range(i + 1, len(tokens)) if tags[j] == "B-OP"),
            None,
        )
        if asp is not None and op is not None:
            out.add((asp, tokens[i], op))
    return out


class IEFeatures:
    """Feature extractor per variant: lexical + clusters + KG lexicons."""

    def __init__(self, model: FoundationModel):
        self.clusters = model.clusters()
        self.kg_cat_labels = (
            model.kg.category_labels if model.kg is not None else frozenset()
        )
        self.kg_concepts = (
            frozenset(model.kg.concept_label_root) if model.kg is not None else frozenset()
        )
        self.prop_lexicon = frozenset(REVIEW_PROPERTIES)

    def __call__(self, tokens: Sequence[str], i: int) -> List[str]:
        feats = token_features(tokens, i)
        w = tokens[i]
        cl = self.clusters.get(w)
        if cl is not None:
            feats.append(f"cl={cl}")
        if w in self.prop_lexicon:
            feats.append("lex_prop")
        if self.kg_cat_labels:
            if w in self.kg_cat_labels:
                feats.append("kg_aspect")
            if w in self.kg_concepts:
                feats.append("kg_concept")
        return feats


#: Micro P/R/F over per-review triple sets.
triple_prf = micro_prf


def run_ie(
    kg: OpenBG,
    models: Dict[str, FoundationModel],
    reviews: pd.DataFrame,
    epochs: int = 5,
) -> Dict[str, Tuple[float, float, float]]:
    """(P, R, F) per model variant on held-out reviews."""
    train, valid = train_valid_split(reviews)

    def prep(df):
        toks = [t.split() for t in df["text"]]
        tags = [role_tags_for(tk, g) for tk, g in zip(toks, df["gold"])]
        golds = [
            {tuple(t.split("|")) for t in g.split(";")} for g in df["gold"]
        ]
        return toks, tags, golds

    tr_toks, tr_tags, _ = prep(train)
    va_toks, _, va_gold = prep(valid)

    out = {}
    for name, model in models.items():
        tagger = PerceptronTagger(ROLE_TAGS, feature_fn=IEFeatures(model))
        tagger.fit(tr_toks, tr_tags, epochs=epochs)
        preds = [
            assemble_triples(toks, tagger.predict(toks)) for toks in va_toks
        ]
        out[name] = triple_prf(va_gold, preds)
    return out
