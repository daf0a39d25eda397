"""Raw noisy product-record generation (the pre-KG catalogue).

Emits what the paper's upstream NLP/preprocessing stage hands to KG
construction (Sec. II-B): for each product a leaf-category assignment, a
*surface* brand/place string (canonical, alias, or misspelled — the
reason schema mapping exists), ground-truth concept links (the signal
behind titles, which the bottom-up concept pipeline must re-extract),
attribute key/values, a tokenized title with BIO ground truth, a
comment, an image flag, and an item count.

Everything is deterministic in the config seed.  The ground-truth
columns ``brand_node`` and ``title_tags`` only *score* the construction
pipelines.  ``concept_links`` is ground truth too, but it does feed the
KG today: ``assemble_openbg`` emits the relatedScene / forCrowd /
aboutTheme / appliedTime triples straight from it, and
``KGFeatures.build`` reads it (ROADMAP, "Build the KG's concept triples
with the construction pipeline").

Draw-order contract: every frame is a function of the sequence of calls
on the ``catalog`` generator — each call's kind, population size,
``size``, ``replace``, ``p`` and position.  Code around the draws
(lookups, grouping, string formatting) may change freely; a change to
that sequence changes every frame downstream of it.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.core import schema as S
from repro.core.config import ScaledConfig
from repro.corpus.vocab import NOISE_TOKENS, N_VALUES_PER_ATTR, SurfaceForms
from repro.ontology.model import Ontology

#: Object-property link targets drawn from concept leaf nodes.
CONCEPT_RELS = (S.RELATED_SCENE, S.FOR_CROWD, S.ABOUT_THEME, S.APPLIED_TIME)

#: How raw surface strings are distributed over form variants.
FORM_PROBS = {"canonical": 0.7, "alias": 0.2, "misspelled": 0.1}


def zipf_probs(n: int, a: float = 1.05) -> np.ndarray:
    """Normalized Zipf weights over ``n`` ranks (long-tail sampling)."""
    w = 1.0 / np.arange(1, n + 1) ** a
    return w / w.sum()


@dataclasses.dataclass
class RawCatalog:
    """The synthetic raw catalogue.

    ``products``       one row per product (see module docstring);
    ``concept_links``  ground-truth (product_id, rel, node_id) rows;
    ``attributes``     (product_id, rel, value) rows, unique per (p, rel).
    """

    products: pd.DataFrame
    concept_links: pd.DataFrame
    attributes: pd.DataFrame

    @property
    def n_products(self) -> int:
        return len(self.products)


def _sample_forms(
    g: np.random.Generator, forms: pd.DataFrame, nodes: np.ndarray
) -> Tuple[List[str], np.ndarray]:
    """Surface strings and form variants, one each per linked node: one
    form draw for all nodes, then a dict lookup per node."""
    variants = g.choice(
        list(FORM_PROBS), size=len(nodes), p=list(FORM_PROBS.values())
    )
    lut = dict(zip(zip(forms["node_id"], forms["form"]), forms["surface"]))
    return [lut[key] for key in zip(nodes, variants)], variants


def affinity_permutation(root: str, category: str, n_leaves: int) -> np.ndarray:
    """The latent category→concept affinity ordering.

    Each (category, concept-root) pair deterministically permutes the
    leaf concepts; a concept's *affinity rank* for a category is its
    position in this permutation.  Link sampling draws zipf over ranks,
    so low-rank (high-affinity) concepts dominate that category's links
    — the latent structure behind typicality/remarkability/salience
    (ground truth for the Table V salience task).
    """
    import zlib

    seed = zlib.crc32(f"affinity:{root}:{category}".encode()) % (2**31)
    return np.random.default_rng(seed).permutation(n_leaves)


def _poisson_links(
    g: np.random.Generator,
    n_products: int,
    rate: float,
    targets: np.ndarray,
    rel: str,
    categories: np.ndarray,
    root: str,
) -> pd.DataFrame:
    """Per-product Poisson(rate) links; targets zipf-sampled through the
    product's category-affinity permutation."""
    counts = g.poisson(rate, n_products)
    total = int(counts.sum())
    if total == 0:
        return pd.DataFrame(columns=["pidx", "r", "t"])
    pidx = np.repeat(np.arange(n_products), counts)
    ranks = g.choice(len(targets), size=total, p=zipf_probs(len(targets)))
    uniq_cats, cat_inv = np.unique(categories, return_inverse=True)
    perm_matrix = np.stack(
        [affinity_permutation(root, c, len(targets)) for c in uniq_cats]
    )
    node_idx = perm_matrix[cat_inv[pidx], ranks]
    return (
        pd.DataFrame({"pidx": pidx, "r": rel, "t": targets[node_idx]})
        .drop_duplicates()
        .reset_index(drop=True)
    )


def generate_catalog(
    onto: Ontology, forms: SurfaceForms, cfg: ScaledConfig
) -> RawCatalog:
    """Generate the full raw catalogue at the config's scale."""
    g = np.random.default_rng(cfg.derived_seed("catalog"))
    n = cfg.n_products
    cat_leaves = onto.taxonomies["Category"].leaves()

    category = g.choice(
        cat_leaves["node_id"].to_numpy(), size=n, p=zipf_probs(len(cat_leaves))
    )

    # Brand / Place presence at paper per-product rates (~0.62 / ~0.70).
    def _link_class(which: str, rate: float):
        leaves = onto.taxonomies[which].leaves()["node_id"].to_numpy()
        present = g.random(n) < min(1.0, rate)
        nodes = np.where(
            present, g.choice(leaves, size=n, p=zipf_probs(len(leaves))), None
        )
        table = forms.brand_forms if which == "Brand" else forms.place_forms
        surface = np.full(n, None, dtype=object)
        form = np.full(n, None, dtype=object)
        surface[present], form[present] = _sample_forms(
            g, table, nodes[present].astype(object)
        )
        return nodes, surface, form

    brand_node, brand_surface, brand_form = _link_class(
        "Brand", cfg.object_property_rate(S.BRAND_IS)
    )
    place_node, place_surface, place_form = _link_class(
        "Place", cfg.object_property_rate(S.PLACE_OF_ORIGIN)
    )

    # Concept links per object property at paper rates (relatedScene ~9.4/prod …),
    # zipf over each product category's latent affinity ordering.
    link_frames = []
    for rel in CONCEPT_RELS:
        root = S.OBJECT_PROPERTY_RANGE[rel]
        targets = onto.taxonomies[root].leaves()["node_id"].to_numpy()
        link_frames.append(
            _poisson_links(
                g, n, cfg.object_property_rate(rel), targets, rel, category, root
            )
        )
    concept_links = pd.concat(link_frames, ignore_index=True)

    # Attribute triples: ~24.6 per product over zipf-ranked attribute types.
    # Value *rank* is zipf, mapped through a per-(attribute, category)
    # affinity permutation — products of one category share preferred
    # values (rice bags share weights), which is the learnable structure
    # link prediction over attribute relations depends on.
    attr_rels = np.array([S.attr_rel(i) for i in range(cfg.n_attribute_rel_types)])
    counts = g.poisson(cfg.attributes_per_product, n)
    pidx = np.repeat(np.arange(n), counts)
    rels = g.choice(attr_rels, size=len(pidx), p=zipf_probs(len(attr_rels)))
    ranks = g.choice(
        N_VALUES_PER_ATTR, size=len(pidx), p=zipf_probs(N_VALUES_PER_ATTR)
    )
    # One sort groups the rows by (attribute, category) pair; each group
    # maps its ranks through that pair's permutation with one gather.
    rel_inv, uniq_rels = pd.factorize(rels)
    cat_inv, uniq_cats = pd.factorize(category)
    value_arrs = [np.array(forms.attr_values[r], dtype=object) for r in uniq_rels]
    pair = rel_inv * len(uniq_cats) + cat_inv[pidx]
    order = np.argsort(pair)
    starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
    values = np.empty(len(pidx), dtype=object)
    for s, e in zip(starts, [*starts[1:], len(order)]):
        rows = order[s:e]
        ri, ci = divmod(int(pair[rows[0]]), len(uniq_cats))
        perm = affinity_permutation(uniq_rels[ri], uniq_cats[ci], N_VALUES_PER_ATTR)
        values[rows] = value_arrs[ri][perm[ranks[rows]]]
    attributes = (
        pd.DataFrame({"pidx": pidx, "r": rels, "value": values})
        .drop_duplicates(["pidx", "r", "value"])
        .reset_index(drop=True)
    )

    has_image = g.random(n) < cfg.image_fraction
    n_items = g.poisson(cfg.items_per_product, n)

    # ---- titles: brand + category + attr values + concept labels + noise --
    concept_label_lut: Dict[str, str] = {}
    concept_root_lut: Dict[str, str] = {}
    for root, tax in onto.concept_taxonomies.items():
        for nid, label in zip(tax.nodes["node_id"], tax.nodes["label"]):
            concept_label_lut[nid] = label
            concept_root_lut[nid] = root

    # The draw-free part of each title, in title order: the category
    # label, the product's first three attribute values and its first two
    # concept labels (frame order).
    cat_lut = dict(zip(cat_leaves["node_id"], cat_leaves["label"]))
    body_toks: List[List[str]] = [[cat_lut[c]] for c in category.tolist()]
    body_tags: List[List[str]] = [["B-Category"] for _ in range(n)]
    picks = attributes.groupby("pidx").head(3)
    for i, v in zip(picks["pidx"].tolist(), picks["value"].tolist()):
        body_toks[i].append(v)
        body_tags[i].append("B-Attr")
    picks = concept_links.groupby("pidx").head(2)
    for i, nid in zip(picks["pidx"].tolist(), picks["t"].tolist()):
        body_toks[i].append(concept_label_lut[nid])
        body_tags[i].append(f"B-{concept_root_lut[nid]}")

    noise = np.array(NOISE_TOKENS)
    titles, tags_col, comments = [], [], []
    for brand, toks, tags in zip(brand_surface.tolist(), body_toks, body_tags):
        if brand is not None and g.random() < 0.9:
            toks = [str(brand), *toks]
            tags = ["B-Brand", *tags]
        n_noise = int(g.integers(2, 5))
        toks += g.choice(noise, size=n_noise, replace=False).tolist()
        tags += ["O"] * n_noise
        order = g.permutation(len(toks)).tolist()
        title = " ".join([toks[j] for j in order])
        titles.append(title)
        tags_col.append(" ".join([tags[j] for j in order]))
        extra = " ".join(g.choice(noise, size=5, replace=False).tolist())
        comments.append(title + " " + extra)

    # Each id is formatted once and gathered by the link and attribute rows.
    product_ids = np.array([S.product_id(i) for i in range(n)], dtype=object)
    products = pd.DataFrame(
        {
            "product_id": product_ids,
            "category": category,
            "brand_node": brand_node,
            "brand_surface": brand_surface,
            "brand_form": brand_form,
            "place_node": place_node,
            "place_surface": place_surface,
            "place_form": place_form,
            "has_image": has_image,
            "n_items": n_items,
            "title": titles,
            "title_tags": tags_col,
            "comment": comments,
        }
    )
    concept_links = concept_links.assign(
        product_id=product_ids[concept_links["pidx"].to_numpy(dtype=np.int64)]
    )[["product_id", "r", "t"]]
    attributes = attributes.assign(
        product_id=product_ids[attributes["pidx"].to_numpy(dtype=np.int64)]
    )[["product_id", "r", "value"]]
    return RawCatalog(products=products, concept_links=concept_links, attributes=attributes)
