"""Pre-training corpora: X_sup (KG-derived pairs) and X_uns (raw text).

Sec. IV-A: supervised data are label-sample pairs normalized into
unified textual expressions with discrete prompts (product-category,
item-title, item-triple, …); unsupervised data are raw e-commerce
texts.  Both are rebuilt here from the synthetic world; the general
corpus (for RoBERTa/mT5/BERT/UIE substitutes) is a disjoint token
stream.
"""
from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd

from repro.construction.assemble import OpenBG
from repro.corpus.vocab import GENERAL_TOKENS, NOISE_TOKENS


def unsupervised_texts(kg: OpenBG, reviews: pd.DataFrame) -> List[List[str]]:
    """X_uns: tokenized titles, comments, and reviews (domain corpus)."""
    p = kg.catalog.products
    out = [t.split() for t in p["title"]]
    out += [c.split() for c in p["comment"]]
    out += [t.split() for t in reviews["text"]]
    return out


def supervised_pairs(kg: OpenBG) -> pd.DataFrame:
    """X_sup: (src, tgt, kind) prompt pairs derived from the KG.

    Kinds mirror the paper's list: product-category, item-title,
    item-triple (attributes), triple-review is covered by the review
    generator.  Counted in EXPERIMENTS.md; also folded into the +KG
    embedding corpus so label/value tokens co-occur with titles.
    """
    p = kg.catalog.products
    cat_label = kg.onto.taxonomies["Category"].label_of()
    rows = [
        pd.DataFrame(
            {
                "src": p["title"],
                "tgt": p["category"].map(cat_label),
                "kind": "product-category",
            }
        ),
        pd.DataFrame(
            {"src": p["product_id"], "tgt": p["title"], "kind": "item-title"}
        ),
    ]
    attrs = kg.catalog.attributes
    title_of = p.set_index("product_id")["title"]
    rows.append(
        pd.DataFrame(
            {
                "src": attrs["product_id"].map(title_of),
                "tgt": attrs["r"] + " " + attrs["value"],
                "kind": "item-triple",
            }
        )
    )
    return pd.concat(rows, ignore_index=True)


def kg_text_corpus(kg: OpenBG) -> List[List[str]]:
    """Supervised pairs rendered as token sequences (for +KG embeddings)."""
    pairs = supervised_pairs(kg)
    return [
        (str(s) + " " + str(t)).split()
        for s, t in pairs[["src", "tgt"]].itertuples(index=False)
    ]


def general_texts(n_sentences: int = 2000, seed: int = 23) -> List[List[str]]:
    """The general-domain corpus: GENERAL_TOKENS with a sprinkle of the
    shared noise/marketing tokens (the small vocabulary overlap a
    general-web corpus would have with e-commerce text)."""
    # ``g.choice(a, size=m)`` with replacement and no ``p`` is
    # ``a[g.integers(0, len(a), size=m, dtype=np.int64)]`` (same values,
    # same generator state); the token lists become arrays once per call.
    g = np.random.default_rng(seed)
    general = np.array(GENERAL_TOKENS)
    noise = np.array(NOISE_TOKENS)
    out = []
    for _ in range(n_sentences):
        length = int(g.integers(5, 12))
        idx = g.integers(0, len(general), size=length, dtype=np.int64)
        toks = general[idx].tolist()
        if g.random() < 0.3:
            toks.append(str(noise[g.integers(0, len(noise), dtype=np.int64)]))
        out.append(toks)
    return out
