"""Brand/Place linking: trie precise matching + fuzzy synonym matching.

Sec. II-B(3): "for each product containing place and brand information,
we map the textual labels of its place and brand to standard names
defined in 'Place' and 'Brand' taxonomy, by jointly conducting trie
prefix tree precise matching and fuzzy matching of synonyms."

The matcher runs in three stages per raw surface string:

1. **precise** — exact trie hit on the canonical-name trie;
2. **synonym** — exact trie hit on the synonym trie (registered aliases);
3. **fuzzy** — nearest dictionary surface within edit distance
   ``FUZZY_K`` = 2, catching misspellings neither trie lists.  Candidates
   come from a deletion-neighbourhood index (FastSS: Bocek, Hunt &
   Stiller 2007, "Fast Similarity Search in Large Dictionaries"; SymSpell
   uses the same idea) and are verified with ``bounded_levenshtein``, so
   a lookup costs the query's deletion variants plus a few verifications
   instead of one comparison per dictionary entry.

Distribution: the tries, table and index are broadcast, and matching
runs inside ``mapInPandas`` so a billion-row catalogue links without
collecting to the driver.
"""
from __future__ import annotations

import zlib
from typing import Iterator, List, Optional, Set, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StringType, StructField, StructType

from repro.construction.trie import Trie, bounded_levenshtein
from repro.corpus.vocab import SurfaceForms

#: Output schema of the linking stage.
LINK_SCHEMA = StructType(
    [
        StructField("product_id", StringType(), False),
        StructField("surface", StringType(), True),
        StructField("node_id", StringType(), True),
        StructField("method", StringType(), True),  # precise|synonym|fuzzy|None
    ]
)


def _deletions(s: str, k: int) -> Set[str]:
    """Every string obtained from ``s`` by deleting at most ``k`` characters."""
    out = frontier = {s}
    for _ in range(k):
        frontier = {w[:i] + w[i + 1:] for w in frontier for i in range(len(w))}
        out = out | frontier
    return out


def _crc32(variants: Set[str]) -> np.ndarray:
    # zlib.crc32, not hash(): the index is built on the driver and probed
    # on Spark workers, whose PYTHONHASHSEED differs per process.
    return np.fromiter(
        (zlib.crc32(v.encode()) for v in variants), np.uint32, len(variants)
    )


class SurfaceMatcher:
    """Picklable matcher over one class's surface-form dictionary."""

    #: fuzzy budget: adjacent-character swaps cost 2 plain-Levenshtein
    #: edits, so k=2 is the smallest bound that absorbs them.
    FUZZY_K = 2

    def __init__(self, synonym_table: pd.DataFrame):
        canon = synonym_table[synonym_table["form"] == "canonical"]
        self.precise_trie = Trie.from_pairs(
            zip(canon["surface"], canon["node_id"])
        )
        self.synonym_trie = Trie.from_pairs(
            zip(synonym_table["surface"], synonym_table["node_id"])
        )
        # dictionary for the fuzzy stage: (surface, node) by position
        self.entries: List[Tuple[str, str]] = list(
            zip(synonym_table["surface"], synonym_table["node_id"])
        )
        # deletion-neighbourhood index: the CRC-32 of every <=FUZZY_K-
        # deletion variant of every entry, sorted, with the entry's
        # position alongside (ascending within one key)
        crcs = [_crc32(_deletions(s, self.FUZZY_K)) for s, _ in self.entries]
        keys = np.concatenate([np.empty(0, np.uint32), *crcs])
        pos = np.repeat(
            np.arange(len(crcs), dtype=np.int32), [len(c) for c in crcs]
        )
        order = np.argsort(keys, kind="stable")
        self.variant_crc: np.ndarray = keys[order]
        self.variant_pos: np.ndarray = pos[order]

    def _candidates(self, raw: str) -> List[int]:
        """Ascending dictionary positions sharing a <=FUZZY_K-deletion
        variant (by CRC-32) with ``raw``."""
        q = _crc32(_deletions(raw, self.FUZZY_K))
        lo = np.searchsorted(self.variant_crc, q, "left")
        hi = np.searchsorted(self.variant_crc, q, "right")
        runs = [self.variant_pos[a:b] for a, b in zip(lo, hi) if b > a]
        return np.unique(np.concatenate(runs)).tolist() if runs else []

    def match(self, raw: Optional[str]) -> Tuple[Optional[str], Optional[str]]:
        """(node_id, method) for one raw string; (None, None) on miss.

        The fuzzy stage returns the entry with the minimum (edit distance,
        dictionary position) within ``FUZZY_K``: dictionary surfaces can
        be 1 edit apart from each other (brand_…00004 vs …00005), so
        first-hit-wins would mislink misspellings.  Candidates are
        verified in ascending position and the first distance-1 entry
        ends the search (distance 0 is a synonym-trie hit).

        The index is exact, not approximate: if ``ed(raw, s) <= k``, then
        deleting at most k characters from each side yields a common
        string (each substitution deletes one character on both sides,
        each insertion or deletion one on one side), so every entry the
        full scan would accept is a candidate.  A CRC-32 collision only
        adds a candidate, which verification rejects.
        """
        if raw is None or raw == "":
            return None, None
        hit = self.precise_trie.lookup(raw)
        if hit is not None:
            return hit, "precise"
        hit = self.synonym_trie.lookup(raw)
        if hit is not None:
            return hit, "synonym"
        best_d, best_node = None, None
        for p in self._candidates(raw):
            surface, node = self.entries[p]
            d = bounded_levenshtein(raw, surface, self.FUZZY_K)
            if d is not None and (best_d is None or d < best_d):
                best_d, best_node = d, node
                if d == 1:
                    break
        if best_node is not None:
            return best_node, "fuzzy"
        return None, None


def build_matcher(forms: SurfaceForms, which: str) -> SurfaceMatcher:
    """Matcher for "Brand" or "Place" from the registered surface forms.

    The *misspelled* variants are deliberately excluded from the
    dictionary — they model out-of-dictionary noise the fuzzy stage must
    absorb, which is what distinguishes it from the synonym stage.
    """
    tbl = forms.synonym_table(which)
    return SurfaceMatcher(tbl[tbl["form"] != "misspelled"].reset_index(drop=True))


def link_surfaces(
    spark: SparkSession,
    products: DataFrame,
    matcher: SurfaceMatcher,
    surface_col: str,
) -> DataFrame:
    """Distributed linking: products(product_id, <surface_col>) → links.

    Returns one row per product with the resolved node and method (nulls
    for products with no raw string or no acceptable match).
    """
    bc = spark.sparkContext.broadcast(matcher)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = bc.value
        for pdf in batches:
            out = pdf[["product_id"]].copy()
            matched = [m.match(s) for s in pdf[surface_col]]
            out["surface"] = pdf[surface_col].values
            out["node_id"] = [n for n, _ in matched]
            out["method"] = [meth for _, meth in matched]
            yield out

    return products.select("product_id", surface_col).mapInPandas(
        run, schema=LINK_SCHEMA
    )


def linking_quality(links: DataFrame, truth: pd.DataFrame, which: str) -> dict:
    """Precision/recall of linking against generator ground truth.

    ``truth`` columns: product_id, ``brand_node``/``place_node``.
    Precision over emitted links; recall over products that truly carry
    the class.  Used by tests to assert the pipeline works, mirroring
    the paper's human quality review.
    """
    col = "brand_node" if which == "Brand" else "place_node"
    got = links.toPandas().set_index("product_id")["node_id"]
    t = truth.set_index("product_id")[col]
    emitted = got.dropna()
    correct = (emitted == t.loc[emitted.index]).sum()
    has_true = t.dropna()
    recalled = (got.loc[has_true.index].dropna() == has_true).sum()
    return {
        "precision": correct / max(1, len(emitted)),
        "recall": recalled / max(1, len(has_true)),
        "n_emitted": int(len(emitted)),
        "n_true": int(len(has_true)),
    }
