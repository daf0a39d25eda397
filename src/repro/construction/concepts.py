"""Bottom-up concept construction (paper Sec. II-C).

Pipeline:

1. **annotate** — a fraction of titles plays the role of the paper's
   crowd-sourced annotations (ground-truth BIO tags from the generator);
2. **train** — fit the :class:`PerceptronTagger` (BERT-CRF substitute)
   on the annotated subset;
3. **extract** — tag *all* titles distributed via ``mapInPandas`` (the
   tagger is broadcast), keeping tokens tagged with one of the five
   concept roots — this is "create instances of Concept";
4. **classify** — the predicted tag type *is* the classification into
   the five predefined top-level concepts (Scene/Crowd/Theme/Time/
   MarketSegment); surfaces resolve to concept nodes via the label
   lexicon, yielding extracted product→concept links.

The taxonomy summarization step ("summarize narrower concepts to
broader ones level by level") is realized by attaching extracted leaf
concepts into the ontology's concept forests (already level-structured).
"""
from __future__ import annotations

from typing import Dict, Iterator, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StringType, StructField, StructType

from repro.core.config import CONCEPT_TYPES
from repro.construction.tagger import PerceptronTagger, span_prf
from repro.corpus.products import RawCatalog

#: Tag set used for concept extraction: the five concept roots + the
#: non-concept title constituents (kept so the tagger can tell them apart).
CONCEPT_TAGS = ["O", "B-Brand", "B-Category", "B-Attr"] + [
    f"B-{root}" for root in CONCEPT_TYPES
]

EXTRACT_SCHEMA = StructType(
    [
        StructField("product_id", StringType(), False),
        StructField("r", StringType(), False),
        StructField("t", StringType(), False),
    ]
)

#: Concept root → the object property its extracted mentions instantiate.
ROOT_TO_RELATION = {
    "Scene": "relatedScene",
    "Crowd": "forCrowd",
    "Theme": "aboutTheme",
    "Time": "appliedTime",
    "MarketSegment": "inMarket:0000",
}


def annotation_split(
    catalog: RawCatalog, frac: float = 0.5
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """Split products into an 'annotated' subset and the rest."""
    n = len(catalog.products)
    k = max(10, int(n * frac))
    ann = catalog.products.iloc[:k]
    rest = catalog.products.iloc[k:]
    return ann, rest


def train_concept_tagger(
    annotated: pd.DataFrame, epochs: int = 5, seed: int = 0
) -> PerceptronTagger:
    """Fit the tagger on annotated titles (tokens + BIO ground truth)."""
    sents = [t.split() for t in annotated["title"]]
    labels = [t.split() for t in annotated["title_tags"]]
    return PerceptronTagger(CONCEPT_TAGS).fit(sents, labels, epochs=epochs, seed=seed)


def extract_concept_links(
    spark: SparkSession,
    titles: DataFrame,
    tagger: PerceptronTagger,
    lexicon: Dict[str, str],
) -> DataFrame:
    """Distributed extraction: titles(product_id, title) → product→concept links.

    Tokens tagged ``B-<ConceptRoot>`` that resolve through the lexicon
    become ⟨product, relation-of-root, concept-node⟩ rows; off-lexicon
    predictions are dropped (the paper's denoising / review stage).
    """
    bc_tagger = spark.sparkContext.broadcast(tagger)
    bc_lex = spark.sparkContext.broadcast(lexicon)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        tg = bc_tagger.value
        lex = bc_lex.value
        for pdf in batches:
            rows = []
            for pid, title in pdf[["product_id", "title"]].itertuples(index=False):
                toks = title.split()
                for tok, tag in zip(toks, tg.predict(toks)):
                    if not tag.startswith("B-"):
                        continue
                    root = tag[2:]
                    if root not in ROOT_TO_RELATION:
                        continue
                    node = lex.get(tok)
                    if node is not None and node.split(":")[0] == _prefix(root):
                        rows.append((pid, ROOT_TO_RELATION[root], node))
            out = pd.DataFrame(rows, columns=["product_id", "r", "t"])
            yield out.drop_duplicates()

    return titles.select("product_id", "title").mapInPandas(run, EXTRACT_SCHEMA)


def _prefix(root: str) -> str:
    from repro.core import schema as S

    return S.TAXONOMY_PREFIX[root].rstrip(":")


def tagger_quality(tagger: PerceptronTagger, heldout: pd.DataFrame) -> Dict[str, float]:
    """Span P/R/F of the tagger on held-out annotated titles."""
    sents = [t.split() for t in heldout["title"]]
    gold = [t.split() for t in heldout["title_tags"]]
    pred = [tagger.predict(s) for s in sents]
    p, r, f = span_prf(gold, pred)
    return {"precision": p, "recall": r, "f1": f}


def extraction_quality(
    extracted: DataFrame, truth: pd.DataFrame
) -> Dict[str, float]:
    """P/R of extracted product→concept links vs generator ground truth.

    Ground truth is restricted to concepts actually *mentioned in the
    title* (the extractor cannot know links that left no textual trace);
    tested as the construction-pipeline acceptance gate.
    """
    got = set(
        map(tuple, extracted.select("product_id", "t").toPandas().to_numpy())
    )
    want = set(map(tuple, truth[["product_id", "t"]].to_numpy()))
    tp = len(got & want)
    return {
        "precision": tp / max(1, len(got)),
        "recall": tp / max(1, len(want)),
        "n_extracted": len(got),
        "n_truth": len(want),
    }
