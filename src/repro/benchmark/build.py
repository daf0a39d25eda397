"""Three-stage OpenBG benchmark sampling (Sec. III-A, Eq. 1–2).

Stage 1 — **relation refinement**: the paper filters relations manually
by (i) high frequency and (ii) close business relevance.  Mechanized
here as: candidate triples are the *business* triples (product heads,
object + attribute relations — labels/comments/meta excluded), ranked
by frequency, top-N kept.  Each candidate pool is ranked once:
OpenBG500 and OpenBG500-L take their top-N from the same ranking, and
OpenBG-IMG takes its top-N from the image pool's ranking restricted to
R500, so R136 ⊆ R500 holds by construction.

Stage 2 — **head-entity filtering** (Eq. 1): relations split into
head-relations (the upper half of stage 1's ranking) and
tail-relations; entities under each sampled at rates α_h > α_l.

Stage 3 — **tail-entity sampling** (Eq. 2): triples with sampled heads
and refined relations, sampled at rate α^N to hit the split-size
target.

One per-head aggregate over the refined triples (does the head carry a
head-relation, how many triples does it head, its two sampling hashes)
serves stages 2 and 3: it gives the head counts behind α_h and α_l, the
sampled heads E^N and |T(E^N, R^N)| behind α^N.  A last job then draws
the sample itself.

All sampling decisions are deterministic xxhash64 thresholds, so the
same config always yields the same benchmark.
"""
from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, List, Optional

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core import schema as S
from repro.core.config import ScaledConfig
from repro.construction.assemble import OpenBG

#: Denominator of the deterministic-sampling hash bucket.
_BUCKETS = 1_000_000

#: Share of the entity budget spent on sampled heads (stage 2).
HEAD_SHARE = 0.6

#: α_h / α_l (Eq. 1 requires α_h > α_l).
ALPHA_RATIO = 4.0


@dataclasses.dataclass(frozen=True)
class BenchmarkSpec:
    """Targets for one benchmark (scaled Table II row).

    ``boost`` multiplies the volume targets relative to the straight
    ``paper × scale`` values — the KGE experiments (Tables III/IV) use a
    boosted extraction so the scaled-down benchmarks stay large enough
    to train on, exactly as documented in DESIGN.md.
    """

    name: str
    n_rel: int
    ent_target: int
    train_target: int
    n_dev: int
    n_test: int
    multimodal: bool = False


@dataclasses.dataclass
class Benchmark:
    """One constructed benchmark.

    Splits are materialized pandas frames: the sampling stages already
    bounded their size, and holding them on the driver keeps every
    downstream consumer (KGE training, stats, tests) from re-running
    the three-stage pipeline.
    """

    spec: BenchmarkSpec
    train_pdf: "pd.DataFrame"
    dev_pdf: "pd.DataFrame"
    test_pdf: "pd.DataFrame"
    relations: List[str]
    multimodal_entities: int

    def all_pdf(self) -> "pd.DataFrame":
        return pd.concat(
            [self.train_pdf, self.dev_pdf, self.test_pdf], ignore_index=True
        )

    def entity_count(self) -> int:
        a = self.all_pdf()
        return len(set(a["h"]) | set(a["t"]))


def default_specs(cfg: ScaledConfig, boost: float = 1.0) -> Dict[str, BenchmarkSpec]:
    """The three paper benchmarks scaled by ``cfg`` (and ``boost``)."""
    out = {}
    for name, multimodal in (
        ("OpenBG-IMG", True),
        ("OpenBG500", False),
        ("OpenBG500-L", False),
    ):
        t = cfg.benchmark_targets(name, boost)
        out[name] = BenchmarkSpec(
            name=name,
            n_rel=cfg.benchmark_n_rel(name),
            ent_target=t["n_ent"],
            train_target=t["n_train"],
            n_dev=max(5, t["n_dev"]),
            n_test=max(5, t["n_test"]),
            multimodal=multimodal,
        )
    return out


def business_triples(kg: OpenBG, multimodal: bool) -> DataFrame:
    """Candidate pool: product-headed object/attribute triples.

    For the multimodal (IMG) pool, heads are restricted to products
    carrying an imageIs triple.
    """
    excluded = {S.RDFS_LABEL, S.LABEL_EN, S.RDFS_COMMENT, S.IMAGE_IS,
                S.SKOS_PREFLABEL, S.SKOS_ALTLABEL}
    pool = kg.triples.filter(
        F.col("h").startswith(S.PRODUCT_PREFIX)
        & F.col("rel_kind").isin([S.KIND_OBJECT, S.KIND_DATA])
        & ~F.col("r").isin(list(excluded))
    )
    if multimodal:
        spark = kg.triples.sparkSession
        img = spark.createDataFrame(
            kg.multimodal_products()[["product_id"]]
        ).withColumnRenamed("product_id", "h")
        pool = pool.join(img, on="h")
    return pool


@contextlib.contextmanager
def _cached(df: DataFrame) -> Iterator[DataFrame]:
    """``df`` cached for the duration of the block, then unpersisted."""
    df = df.cache()
    try:
        yield df
    finally:
        df.unpersist()


def _hash_frac(col: str, seed: int):
    return F.pmod(F.xxhash64(col, F.lit(seed)), F.lit(_BUCKETS)) / _BUCKETS


def _hash_frac3(seed: int):
    """Uniform [0,1) key over the whole (h, r, t) triple.

    Mixing per-column hashes arithmetically is NOT uniform (few distinct
    tails → lumpy sums that can zero out small sampling rates); hashing
    all three columns jointly is.
    """
    return F.pmod(F.xxhash64("h", "r", "t", F.lit(seed)), F.lit(_BUCKETS)) / _BUCKETS


def _rank_relations(pool: DataFrame) -> List[str]:
    """Every relation of ``pool``, most frequent first (ties by name)."""
    counts = pool.groupBy("r").count().collect()
    return [r for _, r in sorted((-row["count"], row["r"]) for row in counts)]


def refine_relations(pool: DataFrame, n_rel: int) -> List[str]:
    """Stage 1: the top-``n_rel`` relations of ``pool`` by frequency."""
    return _rank_relations(pool)[:n_rel]


def split_benchmark(
    sampled_pdf: pd.DataFrame, spec: BenchmarkSpec
) -> Dict[str, pd.DataFrame]:
    """Leakage-guarded train/dev/test split (driver-side).

    The input carries a deterministic ``_k`` rank key computed in Spark;
    the size-bounded sample is split here in pandas.  Eval triples whose
    head, tail, or relation never occurs in train are demoted to train
    (standard KGC protocol — no unseen-entity evaluation), so eval
    splits may come out slightly under target; measured sizes are what
    Table II reports.
    """
    df = sampled_pdf.sort_values(["_k", "h", "r", "t"]).reset_index(drop=True)
    n_eval = spec.n_dev + spec.n_test

    # Greedy scan in rank order: a row may go to eval only if all of its
    # h / t / r still occur ≥2 times among the not-yet-evaluated rows —
    # guaranteeing at least one training occurrence survives.
    from collections import Counter

    h_cnt = Counter(df["h"])
    t_cnt = Counter(df["t"])
    r_cnt = Counter(df["r"])
    eval_idx: List[int] = []
    for i, (h, r, t) in enumerate(df[["h", "r", "t"]].itertuples(index=False)):
        if len(eval_idx) >= n_eval:
            break
        if h_cnt[h] >= 2 and t_cnt[t] >= 2 and r_cnt[r] >= 2:
            eval_idx.append(i)
            h_cnt[h] -= 1
            t_cnt[t] -= 1
            r_cnt[r] -= 1
    eval_rows = df.iloc[eval_idx][["h", "r", "t"]]
    train = df.drop(index=eval_idx)[["h", "r", "t"]]
    dev = eval_rows.iloc[: spec.n_dev]
    test = eval_rows.iloc[spec.n_dev : spec.n_dev + spec.n_test]
    return {
        "train": train.reset_index(drop=True),
        "dev": dev.reset_index(drop=True),
        "test": test.reset_index(drop=True),
    }


def build_benchmark(
    kg: OpenBG,
    spec: BenchmarkSpec,
    relations: Optional[List[str]] = None,
    pool: Optional[DataFrame] = None,
) -> Benchmark:
    """Run all three stages + split for one benchmark spec.

    ``relations``: stage 1's refined relations, most frequent first;
    refined from ``pool`` when not given.  ``pool``: a cached candidate
    pool shared by benchmarks of the same modality; built (and dropped
    again) here when not given.
    """
    if pool is None:
        with _cached(business_triples(kg, spec.multimodal).coalesce(8)) as pool:
            return build_benchmark(kg, spec, relations, pool)
    if relations is None:
        relations = refine_relations(pool, spec.n_rel)
    seed = kg.cfg.derived_seed(f"bench-{spec.name}")
    head_rels = relations[: max(1, len(relations) // 2)]
    t_r = pool.filter(F.col("r").isin(relations))

    # Stages 2–3 read one row per head of T(·, R^N).
    per_head = (
        t_r.groupBy("h")
        .agg(
            F.max(F.col("r").isin(head_rels)).alias("is_head"),
            F.count("*").alias("n"),
        )
        .select(
            "h", "is_head", "n",
            _hash_frac("h", seed).alias("f_head"),
            _hash_frac("h", seed + 1).alias("f_tail"),
        )
        .toPandas()
    )

    # Stage 2 (Eq. 1): E^N = Sample(E_head, α_h) + Sample(E_tail, α_l).
    is_head = per_head["is_head"].to_numpy(dtype=bool)
    n_hh = int(is_head.sum())
    n_ht = len(per_head) - n_hh
    # α_h > α_l with a fixed ratio; solve α_h·n_hh + (α_h/ρ)·n_ht = budget
    budget = spec.ent_target * HEAD_SHARE
    alpha_h = min(1.0, budget / max(1.0, n_hh + n_ht / ALPHA_RATIO))
    alpha_l = alpha_h / ALPHA_RATIO
    sampled = per_head[
        np.where(is_head, per_head["f_head"] < alpha_h, per_head["f_tail"] < alpha_l)
    ]

    # Stage 3 (Eq. 2): T^N = Sample(T(E^N, R^N), α^N).
    want = spec.train_target + spec.n_dev + spec.n_test
    alpha = min(1.0, want / max(1, int(sampled["n"].sum())))
    heads = pool.sparkSession.createDataFrame(sampled[["h"]], schema="h string")
    sampled_pdf = (
        t_r.join(heads, on="h")
        .filter(_hash_frac3(seed) < alpha)
        .select("h", "r", "t")
        .withColumn("_k", _hash_frac3(seed + 13))
        .toPandas()
    )
    splits = split_benchmark(sampled_pdf, spec)

    n_mm = 0
    if spec.multimodal:
        a = pd.concat(splits.values())
        img_heads = set(kg.multimodal_products()["product_id"])
        n_mm = len((set(a["h"]) | set(a["t"])) & img_heads)
    return Benchmark(
        spec=spec,
        train_pdf=splits["train"],
        dev_pdf=splits["dev"],
        test_pdf=splits["test"],
        relations=relations,
        multimodal_entities=n_mm,
    )


def build_all_benchmarks(kg: OpenBG, boost: float = 1.0) -> Dict[str, Benchmark]:
    """Build the three benchmarks with the R136 ⊆ R500 containment.

    Each candidate pool is cached while the benchmarks over it are
    sampled, ranked once, and unpersisted when sampling ends.
    """
    specs = default_specs(kg.cfg, boost=boost)
    with _cached(business_triples(kg, multimodal=False).coalesce(8)) as pool, \
            _cached(business_triples(kg, multimodal=True).coalesce(4)) as pool_img:
        ranked = _rank_relations(pool)
        r500 = set(ranked[: specs["OpenBG500"].n_rel])
        ranked_img = [r for r in _rank_relations(pool_img) if r in r500]
        out = {
            name: build_benchmark(
                kg, specs[name], relations=rels[: specs[name].n_rel], pool=p
            )
            for name, rels, p in (
                ("OpenBG-IMG", ranked_img, pool_img),
                ("OpenBG500", ranked, pool),
                ("OpenBG500-L", ranked, pool),
            )
        }
    return out
