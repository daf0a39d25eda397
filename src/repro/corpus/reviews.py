"""Synthetic customer reviews with ground-truth opinion triples.

Reviews drive two parts of the reproduction: the bottom-up concept
pipeline mines them (Sec. II-C extracts concepts from "user-written
reviews, product titles, and search queries"), and the IE-for-reviews
downstream task (Sec. IV-E) extracts ⟨aspect, property, opinion⟩
triples from them.  Each review embeds 1–3 such triples in filler
tokens, mirroring the paper's example ⟨cushion, quality, nice⟩.
"""
from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd

from repro.core.config import ScaledConfig
from repro.corpus.products import RawCatalog
from repro.ontology.model import Ontology

#: Property → opinion vocabulary (positive/negative surface tokens).
REVIEW_PROPERTIES = {
    "prop_quality": ["op_good", "op_bad", "op_solid", "op_flimsy"],
    "prop_size": ["op_fits", "op_small", "op_large", "op_exact"],
    "prop_price": ["op_cheap", "op_costly", "op_fair"],
    "prop_speed": ["op_quick", "op_slow"],
    "prop_look": ["op_pretty", "op_plain", "op_stylish"],
}

REVIEW_FILLER = [f"rf_{w}" for w in (
    "bought", "for", "my", "dad", "really", "like", "it", "very", "much",
    "came", "today", "will", "buy", "again", "store", "nice", "pack",
)]

#: Mean reviews per product.
REVIEWS_PER_PRODUCT = 2.0


def generate_reviews(
    onto: Ontology, catalog: RawCatalog, cfg: ScaledConfig
) -> pd.DataFrame:
    """Reviews frame: review_id, product_id, text, gold.

    ``gold`` encodes the embedded triples as
    ``aspect|property|opinion;...`` — aspects are the product's category
    label (the noun a customer uses for the item), properties/opinions
    from the closed review vocabulary.  The concept pipeline also finds
    concept labels here: each review mentions one of the product's
    linked concepts with probability 0.3.
    """
    g = np.random.default_rng(cfg.derived_seed("reviews"))
    cat_nodes = onto.taxonomies["Category"].nodes
    cat_label = dict(zip(cat_nodes["node_id"], cat_nodes["label"]))
    concept_label = {}
    for tax in onto.concept_taxonomies.values():
        concept_label.update(zip(tax.nodes["node_id"], tax.nodes["label"]))
    links = catalog.concept_links
    link_targets = links["t"].to_numpy()
    link_pos = links.groupby("product_id").indices

    # A single draw ``g.choice(a)`` is ``a[g.integers(0, len(a),
    # dtype=np.int64)]``: the same value and the same generator state, at
    # a quarter of the cost.  ``pick`` makes that draw; the draws without
    # replacement stay ``g.choice`` calls.
    def pick(a):
        return a[g.integers(0, len(a), dtype=np.int64)]

    props = np.array(list(REVIEW_PROPERTIES))
    opinions = {pr: np.array(ops) for pr, ops in REVIEW_PROPERTIES.items()}
    filler = np.array(REVIEW_FILLER)
    review_ids: List[str] = []
    product_ids: List[str] = []
    texts: List[str] = []
    golds: List[str] = []
    for pid, cat in zip(
        catalog.products["product_id"].tolist(), catalog.products["category"].tolist()
    ):
        aspect = cat_label[cat]
        pos = link_pos.get(pid)
        for _ in range(int(g.poisson(REVIEWS_PER_PRODUCT))):
            k = int(g.integers(1, 4))
            chosen = g.choice(props, size=k, replace=False).tolist()
            gold: List[str] = []
            toks: List[str] = g.choice(filler, size=4, replace=False).tolist()
            for pr in chosen:
                op = str(pick(opinions[pr]))
                gold.append(f"{aspect}|{pr}|{op}")
                # 25% of mentions invert opinion/property order ("good
                # quality" vs "quality good") — the adjacency heuristic
                # every extractor uses then errs, an irreducible floor
                if g.random() < 0.25:
                    toks += [aspect, op, pr]
                else:
                    toks += [aspect, pr, op]
            # distractors: stray opinion/property mentions outside any
            # triple ("fast delivery though" style) give IE an error
            # floor — extraction must rely on structure, not lexicon hits
            if g.random() < 0.25:
                stray_pr = str(pick(props))
                toks.append(str(pick(opinions[stray_pr])))
            if g.random() < 0.15:
                unused = [p for p in REVIEW_PROPERTIES if p not in chosen]
                if unused:
                    toks.append(pick(unused))
            if pos is not None and g.random() < 0.3:
                toks.append(concept_label[link_targets[pick(pos)]])
            toks += g.choice(filler, size=2, replace=False).tolist()
            review_ids.append(f"rev:{len(review_ids):08d}")
            product_ids.append(pid)
            texts.append(" ".join(toks))
            golds.append(";".join(gold))
    return pd.DataFrame(
        {
            "review_id": review_ids,
            "product_id": product_ids,
            "text": texts,
            "gold": golds,
        }
    )
