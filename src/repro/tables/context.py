"""Shared, lazily-cached experiment context for the table harnesses.

Tables I–II run at ``BENCH_CONFIG`` scale (Table I's three blocks share
one set of KG statistics); Tables III–VII share one ``EXP_CONFIG``
world, its benchmarks, its review corpus, and the foundation-model
grid — built once per process.  Tables V–VII also
share their per-task sample caps and the k-shot row layout.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional

import pandas as pd
from pyspark.sql import SparkSession

from repro.benchmark.build import Benchmark, build_all_benchmarks
from repro.construction import stats
from repro.construction.assemble import OpenBG, build_world
from repro.core.config import ScaledConfig
from repro.corpus import generate_reviews

#: Per-task sample caps of Tables V–VII; they keep featurization
#: tractable at experiment scale.
CAPS = dict(category=6000, ner=4000, summarization=4000, ie=5000)


class ExperimentContext:
    """Caches worlds/stats/benchmarks/grids keyed by config identity."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self._worlds: Dict[tuple, OpenBG] = {}
        self._stats: Dict[tuple, dict] = {}
        self._benches: Dict[tuple, Dict[str, Benchmark]] = {}
        self._reviews: Dict[tuple, pd.DataFrame] = {}
        self._grids: Dict[tuple, dict] = {}

    @staticmethod
    def _key(cfg: ScaledConfig) -> tuple:
        return (cfg.scale, cfg.rel_scale, cfg.seed)

    def world(self, cfg: ScaledConfig) -> OpenBG:
        k = self._key(cfg)
        if k not in self._worlds:
            kg = build_world(self.spark, cfg)
            kg.triples.cache().count()
            self._worlds[k] = kg
        return self._worlds[k]

    def kg_stats(self, cfg: ScaledConfig) -> dict:
        """The world's Table I statistics: overall, taxonomy, relations."""
        k = self._key(cfg)
        if k not in self._stats:
            kg = self.world(cfg)
            self._stats[k] = {
                "overall": stats.overall_stats(kg),
                "taxonomy": stats.taxonomy_stats(kg),
                "relations": stats.relation_stats(kg),
            }
        return self._stats[k]

    def benchmarks(self, cfg: ScaledConfig, boost: float = 1.0) -> Dict[str, Benchmark]:
        k = self._key(cfg) + (boost,)
        if k not in self._benches:
            self._benches[k] = build_all_benchmarks(self.world(cfg), boost=boost)
        return self._benches[k]

    def reviews(self, cfg: ScaledConfig) -> pd.DataFrame:
        k = self._key(cfg)
        if k not in self._reviews:
            kg = self.world(cfg)
            self._reviews[k] = generate_reviews(kg.onto, kg.catalog, cfg)
        return self._reviews[k]

    def grid(self, cfg: ScaledConfig, names: Optional[list] = None) -> dict:
        from repro.pretrain.model import model_grid

        k = self._key(cfg)
        if k not in self._grids:
            self._grids[k] = model_grid(
                self.spark, self.world(cfg), self.reviews(cfg)
            )
        g = self._grids[k]
        return g if names is None else {n: g[n] for n in names}


def k_shot_table(
    paper: Dict[str, Dict[int, float]], run_k: Callable[[int], Dict[str, float]]
) -> pd.DataFrame:
    """Tables VI/VII: per model, the paper's and our score at 1 and 5
    shots; ``run_k(k)`` gives each model's score in [0, 1]."""
    ours = {k: run_k(k) for k in (1, 5)}
    rows = []
    for model, by_k in paper.items():
        row = {"model": model}
        for k in (1, 5):
            row[f"paper {k}-shot"] = by_k[k]
            row[f"ours {k}-shot"] = round(ours[k][model] * 100, 2)
        rows.append(row)
    return pd.DataFrame(rows)


def df_to_markdown(df: pd.DataFrame, floatfmt: str = "{:.3f}") -> str:
    """Minimal GitHub-markdown renderer (pandas' needs tabulate)."""
    def fmt(v):
        if isinstance(v, float):
            return floatfmt.format(v)
        return str(v)

    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(fmt(row[c]) for c in cols) + " |")
    return "\n".join(lines)
