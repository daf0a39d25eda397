"""Tests for the three-stage benchmark construction (Sec. III-A)."""
import pytest
import pyspark.sql.functions as F

from repro.benchmark import benchmark_stats, default_specs
from repro.benchmark.build import (
    build_all_benchmarks,
    build_benchmark,
    business_triples,
    refine_relations,
    split_benchmark,
)
from repro.benchmark.stats import relation_distribution
from repro.core.config import TEST_CONFIG


def test_specs_scale_from_paper():
    specs = default_specs(TEST_CONFIG, boost=1.0)
    assert specs["OpenBG500"].n_rel == max(1, round(500 * TEST_CONFIG.rel_scale))
    assert specs["OpenBG-IMG"].multimodal
    assert specs["OpenBG500-L"].train_target > specs["OpenBG500"].train_target


def test_pool_excludes_labels_and_meta(kg):
    pool = business_triples(kg, multimodal=False)
    rels = {r["r"] for r in pool.select("r").distinct().collect()}
    assert "rdfs:label" not in rels and "rdf:type" not in rels
    assert all(not r.startswith("skos:") for r in rels)
    assert pool.filter(~F.col("h").startswith("prod:")).count() == 0


def test_multimodal_pool_heads_have_images(kg):
    pool = business_triples(kg, multimodal=True)
    img = set(kg.multimodal_products()["product_id"])
    heads = {r["h"] for r in pool.select("h").distinct().collect()}
    assert heads <= img


def test_refine_relations_by_frequency(kg):
    pool = business_triples(kg, multimodal=False)
    top5 = refine_relations(pool, 5)
    freq = {
        r["r"]: r["n"]
        for r in pool.groupBy("r").agg(F.count("*").alias("n")).collect()
    }
    assert len(top5) == 5
    floor = min(freq[r] for r in top5)
    assert all(freq[r] <= floor for r in freq if r not in top5)


def test_img_relations_subset_of_500(benches):
    """Paper property: R136 ⊆ R500."""
    assert set(benches["OpenBG-IMG"].relations) <= set(
        benches["OpenBG500"].relations
    )


def test_relation_counts_at_most_spec(benches):
    for name, b in benches.items():
        assert len(b.relations) <= b.spec.n_rel


def test_split_sizes_ordered(benches):
    """IMG < 500 < 500-L in train size, as in Table II."""
    s = {k: benchmark_stats(b) for k, b in benches.items()}
    assert s["OpenBG-IMG"]["n_train"] < s["OpenBG500"]["n_train"]
    assert s["OpenBG500"]["n_train"] <= s["OpenBG500-L"]["n_train"]
    assert s["OpenBG-IMG"]["n_ent"] < s["OpenBG500-L"]["n_ent"]


def test_splits_disjoint(benches):
    for b in benches.values():
        keys = {
            name: set(pdf[["h", "r", "t"]].itertuples(index=False))
            for name, pdf in (
                ("train", b.train_pdf), ("dev", b.dev_pdf), ("test", b.test_pdf)
            )
        }
        for eval_split in ("dev", "test"):
            assert len(keys["train"] & keys[eval_split]) == 0
        assert len(keys["dev"] & keys["test"]) == 0


def test_no_unseen_entities_in_eval(benches):
    """Leakage guard: every dev/test entity and relation occurs in train."""
    for b in benches.values():
        tr_e = set(b.train_pdf["h"]) | set(b.train_pdf["t"])
        tr_r = set(b.train_pdf["r"])
        for pdf in (b.dev_pdf, b.test_pdf):
            assert pdf["h"].isin(tr_e).all()
            assert pdf["t"].isin(tr_e).all()
            assert pdf["r"].isin(tr_r).all()


def test_eval_sizes_close_to_spec(benches):
    for b in benches.values():
        st = benchmark_stats(b)
        assert st["n_dev"] <= b.spec.n_dev
        assert st["n_test"] <= b.spec.n_test
        assert st["n_dev"] >= 1 and st["n_test"] >= 1


def test_img_multimodal_entity_fraction(benches):
    """IMG benchmark has a substantial multimodal entity share (~53% in
    the paper; heads are image products by construction here)."""
    st = benchmark_stats(benches["OpenBG-IMG"])
    assert 0 < st["n_ent_multimodal"] <= st["n_ent"]
    assert st["n_ent_multimodal"] / st["n_ent"] > 0.1


def test_benchmark_relation_distribution_long_tail(benches):
    dist = relation_distribution(benches["OpenBG500"])
    assert dist["n"].iloc[0] > dist["n"].median() * 3


def test_benchmark_deterministic(kg, benches):
    b2 = build_benchmark(kg, benches["OpenBG500"].spec)
    assert len(b2.train_pdf) == len(benches["OpenBG500"].train_pdf)
    assert b2.relations == benches["OpenBG500"].relations


def test_entity_budget_respected(benches):
    """Entity counts land within a sane factor of the spec target."""
    for b in benches.values():
        n_ent = b.entity_count()
        assert n_ent <= b.spec.ent_target * 40  # tails add entities
        assert n_ent > 0


# ---- the sampler against its reference ---------------------------------------
# The three stages as they ran before they shared one relation ranking and
# one per-head aggregate: each stage counts for itself.  Kept verbatim
# (BenchmarkSpec.head_share / alpha_ratio, 0.6 and 4.0, written out) as the
# reference every split of the current sampler must equal.

_BUCKETS = 1_000_000


def _hash_frac(col, seed):
    return F.pmod(F.xxhash64(col, F.lit(seed)), F.lit(_BUCKETS)) / _BUCKETS


def _hash_frac3(seed):
    return F.pmod(F.xxhash64("h", "r", "t", F.lit(seed)), F.lit(_BUCKETS)) / _BUCKETS


def _ref_refine_relations(pool, n_rel, within=None):
    df = pool
    if within is not None:
        df = df.filter(F.col("r").isin(within))
    freq = df.groupBy("r").agg(F.count("*").alias("n")).orderBy(
        F.desc("n"), "r"
    )
    return [row["r"] for row in freq.limit(n_rel).collect()]


def _ref_filter_head_entities(pool, relations, spec, seed):
    sub = pool.filter(F.col("r").isin(relations))
    freq = {r["r"]: r["n"] for r in sub.groupBy("r").agg(F.count("*").alias("n")).collect()}
    ranked = sorted(relations, key=lambda r: (-freq.get(r, 0), r))
    head_rels = ranked[: max(1, len(ranked) // 2)]

    heads_head = sub.filter(F.col("r").isin(head_rels)).select("h").distinct()
    heads_all = sub.select("h").distinct()
    heads_tail = heads_all.join(heads_head, on="h", how="left_anti")

    n_hh, n_ht = heads_head.count(), heads_tail.count()
    budget = spec.ent_target * 0.6
    rho = 4.0
    alpha_h = min(1.0, budget / max(1.0, n_hh + n_ht / rho))
    alpha_l = alpha_h / rho

    sampled = heads_head.filter(_hash_frac("h", seed) < alpha_h).unionByName(
        heads_tail.filter(_hash_frac("h", seed + 1) < alpha_l)
    )
    return sampled


def _ref_sample_triples(pool, relations, heads, spec, seed):
    t_er = pool.filter(F.col("r").isin(relations)).join(heads, on="h")
    n = t_er.count()
    want = spec.train_target + spec.n_dev + spec.n_test
    alpha = min(1.0, want / max(1, n))
    return t_er.filter(_hash_frac3(seed) < alpha)


def _ref_build_benchmark(kg, spec, pool, r500=None):
    seed = kg.cfg.derived_seed(f"bench-{spec.name}")
    relations = _ref_refine_relations(pool, spec.n_rel, within=r500)
    heads = _ref_filter_head_entities(pool, relations, spec, seed)
    sampled_pdf = (
        _ref_sample_triples(pool, relations, heads, spec, seed)
        .select("h", "r", "t")
        .withColumn("_k", _hash_frac3(seed + 13))
        .toPandas()
    )
    return relations, split_benchmark(sampled_pdf, spec)


def test_sampler_equals_reference(kg, benches):
    specs = default_specs(kg.cfg, boost=3.0)
    pool = business_triples(kg, multimodal=False).coalesce(8)
    pool_img = business_triples(kg, multimodal=True).coalesce(4)
    ref = {"OpenBG500": _ref_build_benchmark(kg, specs["OpenBG500"], pool)}
    ref["OpenBG-IMG"] = _ref_build_benchmark(
        kg, specs["OpenBG-IMG"], pool_img, r500=ref["OpenBG500"][0]
    )
    ref["OpenBG500-L"] = _ref_build_benchmark(kg, specs["OpenBG500-L"], pool)
    for name, (relations, splits) in ref.items():
        b = benches[name]
        assert b.relations == relations, name
        for split, pdf in (
            ("train", b.train_pdf), ("dev", b.dev_pdf), ("test", b.test_pdf)
        ):
            assert len(splits[split]) > 0, (name, split)
            assert pdf.equals(splits[split]), (name, split)


@pytest.fixture(scope="module")
def traced_build(spark, kg):
    """``build_all_benchmarks`` run in its own Spark job group: its job
    count and the session's persistent-RDD count before and after."""
    sc = spark.sparkContext
    cached_before = sc._jsc.getPersistentRDDs().size()
    sc.setJobGroup("benchmark-sampling", "build_all_benchmarks")
    try:
        build_all_benchmarks(kg, boost=3.0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty(30_000)
    jobs = sc.statusTracker().getJobIdsForGroup("benchmark-sampling")
    return {"jobs": len(jobs), "cached_before": cached_before,
            "cached_after": sc._jsc.getPersistentRDDs().size()}


def test_sampling_leaves_no_cached_pool(kg, traced_build):
    assert traced_build["cached_after"] == traced_build["cached_before"]
    # A pool cached earlier in the session would hide a leak from the
    # count above (caching an already cached plan is a no-op).
    for multimodal, parts in ((False, 8), (True, 4)):
        pool = business_triples(kg, multimodal).coalesce(parts)
        assert not pool.storageLevel.useMemory and not pool.storageLevel.useDisk


def test_sampling_job_count(traced_build):
    """One ranking per pool and one head aggregate per benchmark: half
    the 70 Spark jobs the per-stage counts took, or fewer."""
    assert 0 < traced_build["jobs"] <= 35, traced_build
