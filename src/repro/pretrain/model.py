"""Foundation-model substrate + KG-derived features + the model grid.

The grid mirrors the paper's baselines (Tables V–VII):

=================  ==========  ====  ===========================
variant            pretrained  dim   KG features
=================  ==========  ====  ===========================
RoBERTa-large      general     64    —
RoBERTa-base       general     32    —
RoBERTa-base+KG    general     32    yes
UIE                general     40    —
mT5                general     40    —
BERT               general     24    —
mPLUG-base         domain      32    —
mPLUG-base+KG      domain+KG   32    yes
mPLUG-large+KG     domain+KG   64    yes
=================  ==========  ====  ===========================

"domain+KG" pre-training additionally folds the X_sup prompt corpus
into the embedding fit; "yes" KG features expose gazetteers, category
log-priors (Spark aggregations over the catalogue's brand surfaces,
attribute values and concept links) and statement statistics to the
task heads.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from repro.construction.assemble import OpenBG
from repro.construction.facets import statement_scores
from repro.construction.lexicon import Lexicon
from repro.pretrain.corpus import (
    general_texts,
    kg_text_corpus,
    unsupervised_texts,
)
from repro.pretrain.features import TokenEmbeddings, hashed_bow, kmeans_clusters

#: Width of the hashed bag-of-words channel every variant's encoding carries.
BOW_DIM = 32


def token_logpriors(counts: Iterable[pd.DataFrame]) -> Dict[str, Dict[str, float]]:
    """token → category → log((n + 0.1) / (Σ_token n + 1)) from per-source
    ``(token, category, n)`` count frames.

    Tokens enter in sorted order within each source, categories in row
    order; a (token, category) seen again in a later source overwrites
    the value and keeps its place, which :meth:`KGFeatures.category_prior`
    reads when it sums ``exp`` over a token's values."""
    token_cat: Dict[str, Dict[str, float]] = {}
    for c in counts:
        c = c.sort_values("token", kind="stable")
        tot = c.groupby("token")["n"].transform("sum")
        for token, cat, n, t in zip(c["token"], c["category"], c["n"], tot):
            token_cat.setdefault(token, {})[cat] = math.log((n + 0.1) / (t + 1.0))
    return token_cat


@dataclasses.dataclass(frozen=True)
class KGFeatures(Lexicon):
    """OpenBG-derived features for "+KG" model variants: the ontology's
    :class:`Lexicon` (gazetteers) plus two KG statistics.

    ``token_cat_logprior`` maps a surface token (brand surface, value
    token, concept label) to log P(category | token) — computed with
    Spark aggregations over the catalogue's ``products.brand_surface``,
    ``attributes.value`` and ``concept_links`` (as concept labels), each
    joined to ``products.category``; ``kg.triples`` is not read.
    ``statement_stats`` maps (category, relation, concept-node) to
    (typicality, remarkability) from the facet pipeline.
    """

    token_cat_logprior: Dict[str, Dict[str, float]]
    statement_stats: Dict[Tuple[str, str, str], Tuple[float, float]]

    @classmethod
    def build(cls, spark: SparkSession, kg: OpenBG) -> "KGFeatures":
        lex = Lexicon.of(kg.onto)
        cat = kg.catalog

        # ---- Spark: token → category log-priors over catalogue tokens -----
        prod_cat = spark.createDataFrame(
            cat.products[["product_id", "category"]]
        )
        sources = []
        brands = cat.products.dropna(subset=["brand_surface"])[
            ["product_id", "brand_surface"]
        ].rename(columns={"brand_surface": "token"})
        if len(brands):
            sources.append(spark.createDataFrame(brands))
        values = cat.attributes[["product_id", "value"]].rename(
            columns={"value": "token"}
        )
        sources.append(spark.createDataFrame(values))
        label_of = pd.Series(lex.concept_label_node).reset_index()
        label_of.columns = ["token", "t"]
        concepts = cat.concept_links.merge(label_of, on="t")[
            ["product_id", "token"]
        ]
        if len(concepts):
            sources.append(spark.createDataFrame(concepts))

        token_cat = token_logpriors(
            src.join(prod_cat, on="product_id")
            .groupBy("token", "category")
            .agg(F.count("*").alias("n"))
            .toPandas()
            for src in sources
        )

        # ---- Spark: facet statistics for salience ------------------------
        links = spark.createDataFrame(cat.concept_links)
        scored = statement_scores(spark, links, prod_cat, kg.onto).toPandas()
        statement_stats = {
            (row.category, row.r, row.t): (row.typicality, row.remarkability)
            for row in scored.itertuples()
        }
        return cls(**vars(lex), token_cat_logprior=token_cat, statement_stats=statement_stats)

    def category_prior(self, tokens: Sequence[str], categories: List[str]) -> np.ndarray:
        """Σ_token log P(category | token) over known tokens, as a vector
        aligned with ``categories`` (0 where no evidence)."""
        out = np.zeros(len(categories))
        idx = {c: i for i, c in enumerate(categories)}
        for t in tokens:
            d = self.token_cat_logprior.get(t)
            if not d:
                continue
            floor = math.log(0.1 / (sum(math.exp(v) for v in d.values()) * 10 + 1))
            for i, c in enumerate(categories):
                out[i] += d.get(c, floor)
        return out


@dataclasses.dataclass
class FoundationModel:
    """One pre-trained model variant: embeddings + optional KG features."""

    name: str
    emb: TokenEmbeddings
    kg: Optional[KGFeatures] = None
    n_clusters: int = 16
    _clusters: Optional[Dict[str, int]] = None

    @property
    def feature_dim(self) -> int:
        return self.emb.dim + 1 + BOW_DIM

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Dense features: mean embedding ⊕ OOV rate ⊕ hashed BoW."""
        return np.concatenate([self.emb.encode(tokens), hashed_bow(tokens, BOW_DIM)])

    def clusters(self) -> Dict[str, int]:
        """Token → cluster id (discrete features for the perceptron)."""
        if self._clusters is None:
            self._clusters = kmeans_clusters(self.emb, self.n_clusters, seed=7)
        return self._clusters


def model_grid(
    spark: SparkSession, kg: OpenBG, reviews: pd.DataFrame
) -> Dict[str, FoundationModel]:
    """Build all paper baselines' substitutes over one world.

    RoBERTa-base and RoBERTa-base+KG share one embedding fit: they differ
    only in the KG features."""
    domain = unsupervised_texts(kg, reviews)
    domain_kg = domain + kg_text_corpus(kg)
    general = general_texts()
    kgf = KGFeatures.build(spark, kg)

    def emb(corpus, dim, seed):
        return TokenEmbeddings.train(corpus, dim=dim, seed=seed)

    roberta_base = emb(general, 32, 2)
    return {
        "RoBERTa-large": FoundationModel("RoBERTa-large", emb(general, 64, 1), n_clusters=32),
        "RoBERTa-base": FoundationModel("RoBERTa-base", roberta_base),
        "RoBERTa-base+KG": FoundationModel("RoBERTa-base+KG", roberta_base, kg=kgf),
        "UIE": FoundationModel("UIE", emb(general, 40, 3)),
        "mT5": FoundationModel("mT5", emb(general, 40, 4)),
        "BERT": FoundationModel("BERT", emb(general, 24, 5)),
        "mPLUG-base": FoundationModel("mPLUG-base", emb(domain, 32, 6)),
        "mPLUG-base+KG": FoundationModel("mPLUG-base+KG", emb(domain_kg, 32, 6), kg=kgf),
        "mPLUG-large+KG": FoundationModel(
            "mPLUG-large+KG", emb(domain_kg, 64, 6), kg=kgf, n_clusters=32
        ),
    }
