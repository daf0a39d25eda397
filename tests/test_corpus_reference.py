"""The corpus generators against verbatim copies of their per-row versions.

``generate_catalog``, ``generate_reviews`` and ``general_texts`` were
rewritten around their random draws: dict and array lookups instead of
per-row pandas access, one grouping sort for the attribute values, and
``a[g.integers(0, len(a), dtype=np.int64)]`` for single ``g.choice``
draws.  The sequence of generator calls is their contract, so every
frame must equal the reference's exactly (values, dtypes, index).
"""
from typing import Dict, List

import numpy as np
import pandas as pd
import pytest

from repro.core import schema as S
from repro.core.config import TEST_CONFIG, ScaledConfig
from repro.corpus import build_surface_forms, generate_catalog, generate_reviews
from repro.corpus.products import (
    CONCEPT_RELS,
    FORM_PROBS,
    RawCatalog,
    _poisson_links,
    affinity_permutation,
    zipf_probs,
)
from repro.corpus.reviews import REVIEW_FILLER, REVIEW_PROPERTIES, REVIEWS_PER_PRODUCT
from repro.corpus.vocab import (
    GENERAL_TOKENS,
    N_VALUES_PER_ATTR,
    NOISE_TOKENS,
    SurfaceForms,
)
from repro.ontology import build_core_ontology
from repro.ontology.model import Ontology
from repro.pretrain.corpus import general_texts


# ---- reference: the generators before the rewrite (verbatim) -------------
# Per-row MultiIndex, Series and groupby lookups, a permutation cache per
# attribute row, and ``g.choice`` for every draw.

def _ref_sample_forms(
    g: np.random.Generator, forms: pd.DataFrame, nodes: np.ndarray
) -> pd.DataFrame:
    """Surface string + form variant for each linked node (vectorized)."""
    variants = g.choice(
        list(FORM_PROBS), size=len(nodes), p=list(FORM_PROBS.values())
    )
    lut = forms.set_index(["node_id", "form"])["surface"]
    surf = [lut[(n, v)] for n, v in zip(nodes, variants)]
    return pd.DataFrame({"surface": surf, "form": variants})


def _ref_generate_catalog(
    onto: Ontology, forms: SurfaceForms, cfg: ScaledConfig
) -> RawCatalog:
    """Generate the full raw catalogue at the config's scale."""
    g = np.random.default_rng(cfg.derived_seed("catalog"))
    n = cfg.n_products
    cat_leaves = onto.taxonomies["Category"].leaves()
    cat_lut = cat_leaves.set_index("node_id")["label"]

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
        filled = nodes[present].astype(object)
        sf = _ref_sample_forms(g, table, filled)
        surface = np.full(n, None, dtype=object)
        form = np.full(n, None, dtype=object)
        surface[present] = sf["surface"].to_numpy()
        form[present] = sf["form"].to_numpy()
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
    perm_cache: Dict[tuple, np.ndarray] = {}
    values = []
    for p_i, r, rank in zip(pidx, rels, ranks):
        key = (r, category[p_i])
        perm = perm_cache.get(key)
        if perm is None:
            perm = affinity_permutation(r, category[p_i], N_VALUES_PER_ATTR)
            perm_cache[key] = perm
        values.append(forms.attr_values[r][perm[rank]])
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
        for nid, label in tax.nodes[["node_id", "label"]].itertuples(index=False):
            concept_label_lut[nid] = label
            concept_root_lut[nid] = root

    attr_picks = attributes.groupby("pidx").head(3).groupby("pidx")
    attr_by_p: Dict[int, List[str]] = {
        int(k): v["value"].tolist() for k, v in attr_picks
    }
    conc_picks = concept_links.groupby("pidx").head(2).groupby("pidx")
    conc_by_p: Dict[int, List[str]] = {
        int(k): v["t"].tolist() for k, v in conc_picks
    }

    titles, tags_col, comments = [], [], []
    for i in range(n):
        toks: List[str] = []
        tags: List[str] = []
        if brand_surface[i] is not None and g.random() < 0.9:
            toks.append(str(brand_surface[i]))
            tags.append("B-Brand")
        toks.append(cat_lut[category[i]])
        tags.append("B-Category")
        for v in attr_by_p.get(i, []):
            toks.append(v)
            tags.append("B-Attr")
        for nid in conc_by_p.get(i, []):
            toks.append(concept_label_lut[nid])
            tags.append(f"B-{concept_root_lut[nid]}")
        n_noise = int(g.integers(2, 5))
        for w in g.choice(NOISE_TOKENS, size=n_noise, replace=False):
            toks.append(str(w))
            tags.append("O")
        order = g.permutation(len(toks))
        titles.append(" ".join(toks[j] for j in order))
        tags_col.append(" ".join(tags[j] for j in order))
        extra = " ".join(g.choice(NOISE_TOKENS, size=5, replace=False))
        comments.append(titles[-1] + " " + extra)

    products = pd.DataFrame(
        {
            "product_id": [S.product_id(i) for i in range(n)],
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
        product_id=[S.product_id(int(i)) for i in concept_links["pidx"]]
    )[["product_id", "r", "t"]]
    attributes = attributes.assign(
        product_id=[S.product_id(int(i)) for i in attributes["pidx"]]
    )[["product_id", "r", "value"]]
    return RawCatalog(products=products, concept_links=concept_links, attributes=attributes)


def _ref_generate_reviews(
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
    cat_label = onto.taxonomies["Category"].nodes.set_index("node_id")["label"]
    concept_label = {}
    for tax in onto.concept_taxonomies.values():
        concept_label.update(
            dict(tax.nodes[["node_id", "label"]].itertuples(index=False))
        )
    links_by_p = catalog.concept_links.groupby("product_id")["t"].agg(list)

    props = list(REVIEW_PROPERTIES)
    rows = []
    rid = 0
    for pid, cat in catalog.products[["product_id", "category"]].itertuples(
        index=False
    ):
        for _ in range(int(g.poisson(REVIEWS_PER_PRODUCT))):
            aspect = cat_label[cat]
            k = int(g.integers(1, 4))
            chosen = g.choice(props, size=k, replace=False)
            gold: List[str] = []
            toks: List[str] = list(g.choice(REVIEW_FILLER, size=4, replace=False))
            for pr in chosen:
                op = str(g.choice(REVIEW_PROPERTIES[pr]))
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
                stray_pr = str(g.choice(props))
                toks.append(str(g.choice(REVIEW_PROPERTIES[stray_pr])))
            if g.random() < 0.15:
                unused = [p for p in props if p not in chosen]
                if unused:
                    toks.append(str(g.choice(unused)))
            if pid in links_by_p.index and g.random() < 0.3:
                toks.append(concept_label[str(g.choice(links_by_p[pid]))])
            toks += list(g.choice(REVIEW_FILLER, size=2, replace=False))
            rows.append(
                {
                    "review_id": f"rev:{rid:08d}",
                    "product_id": pid,
                    "text": " ".join(toks),
                    "gold": ";".join(gold),
                }
            )
            rid += 1
    return pd.DataFrame(rows)


def _ref_general_texts(n_sentences: int = 2000, seed: int = 23) -> List[List[str]]:
    """The general-domain corpus: GENERAL_TOKENS with a sprinkle of the
    shared noise/marketing tokens (the small vocabulary overlap a
    general-web corpus would have with e-commerce text)."""
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n_sentences):
        length = int(g.integers(5, 12))
        toks = list(g.choice(GENERAL_TOKENS, size=length))
        if g.random() < 0.3:
            toks.append(str(g.choice(NOISE_TOKENS)))
        out.append([str(t) for t in toks])
    return out


# ---- the rewrite must reproduce them exactly -------------------------------

CONFIGS = [TEST_CONFIG, ScaledConfig(scale=2e-4, rel_scale=0.05, seed=7)]


def _assert_same_frame(got: pd.DataFrame, want: pd.DataFrame) -> None:
    assert list(got.columns) == list(want.columns)
    assert list(got.dtypes) == list(want.dtypes)
    assert got.equals(want)


@pytest.fixture(scope="module", params=CONFIGS, ids=["test_config", "2e-4"])
def both(request):
    cfg = request.param
    onto = build_core_ontology(cfg)
    forms = build_surface_forms(onto)
    got = generate_catalog(onto, forms, cfg)
    return cfg, onto, got, _ref_generate_catalog(onto, forms, cfg)


@pytest.mark.parametrize("frame", ["products", "concept_links", "attributes"])
def test_catalog_equals_reference(both, frame):
    _, _, got, want = both
    _assert_same_frame(getattr(got, frame), getattr(want, frame))


def test_reviews_equal_reference(both):
    cfg, onto, got, want = both
    _assert_same_frame(
        generate_reviews(onto, got, cfg), _ref_generate_reviews(onto, want, cfg)
    )


@pytest.mark.parametrize("n, seed", [(2000, 23), (50, 1)])
def test_general_texts_equal_reference(n, seed):
    assert general_texts(n, seed=seed) == _ref_general_texts(n, seed=seed)
