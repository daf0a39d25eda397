"""The benchmark workloads over the OpenBG pipeline.

Each workload has

- ``prepare()``: the set-up work that builds the timed phase's inputs;
  the harness runs it several times and reports the median as
  ``setup_s``;
- ``rep()``: one repetition of the timed phase, made of calls into the
  program's public functions, each inside a tracer span;
- ``check(out)``: output checks of one repetition, run untimed;
- ``probe()`` and ``layer_metrics(rep_ids)``: the per-layer numbers of a
  traced run.

Inputs come only from the seed: it goes to ``ScaledConfig(seed=…)`` and
to the query sampler.  Scales are chosen so that one run, including the
Spark start, takes at most about a minute on 4 cores.
"""
from __future__ import annotations

import dataclasses
import pickle
import statistics
import time
from typing import Callable, Dict, List

import numpy as np
import pandas as pd

from repro.benchmark.build import BenchmarkSpec, build_all_benchmarks, split_benchmark
from repro.construction import stats
from repro.construction.assemble import OpenBG, assemble_openbg
from repro.construction.schema_mapping import (
    build_matcher,
    link_surfaces,
    linking_quality,
)
from repro.core import schema as S
from repro.core.config import ScaledConfig
from repro.corpus import build_surface_forms, generate_catalog, generate_reviews
from repro.downstream import category_pred, ner_titles, salience, summarization
from repro.downstream.ie_reviews import run_ie
from repro.kge.data import KGEDataset
from repro.kge.evaluate import evaluate, ranks_numpy
from repro.ontology import build_core_ontology
from repro.pretrain.model import KGFeatures, model_grid
from repro.tables import kge_common

#: The five KGE models, one per family: translational, bilinear,
#: Tucker, text and multimodal.
MODELS = ("TransE", "DistMult", "TuckER", "KG-BERT", "TransAE")
BENCHES = ("OpenBG-IMG", "OpenBG500", "OpenBG500-L")
TASKS = ("category", "ner", "summarization", "ie", "salience",
         "category_kshot", "ner_kshot")
#: layers that run Spark jobs, each with per-span Spark counters
SPARK_LAYERS = ("assemble", "stats", "benchmark", "pretrain")

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: a workload does not call in its timed phase reports 0.
PER_LAYER: Dict[str, str] = {
    "schema_mapping.link_s": "s",
    "schema_mapping.rows": "count",
    "schema_mapping.precise_share": "share",
    "schema_mapping.synonym_share": "share",
    "schema_mapping.fuzzy_share": "share",
    "schema_mapping.miss_share": "share",
    "schema_mapping.ms_per_fallthrough_row": "ms",
    "schema_mapping.matcher_bytes": "bytes",
    "assemble.call_s": "s",
    "assemble.materialize_s": "s",
    "assemble.triples": "count",
    "stats.table1_s": "s",
    "benchmark.sampling_s": "s",
    **{f"{layer}.{k}": u
       for layer in SPARK_LAYERS
       for k, u in (("spark_jobs", "count"), ("spark_tasks", "count"),
                    ("shuffle_write_mb", "MB"), ("executor_cpu_s", "s"))},
    **{f"benchmark.{k}.{b}": "count"
       for b in BENCHES for k in ("train_triples", "test_triples", "n_ent")},
    "kge.dataset_s": "s",
    "kge.features_s": "s",
    **{f"kge.fit_s.{m}": "s" for m in MODELS},
    **{f"kge.fit_triples_per_s.{m}": "1/s" for m in MODELS},
    **{f"kge.rank_s.{m}": "s" for m in MODELS},
    **{f"kge.rank_queries_per_s.{m}": "1/s" for m in MODELS},
    "kge.candidates_scored": "count",
    "pretrain.model_grid_s": "s",
    "pretrain.kg_features_s": "s",
    **{f"downstream.{t}_s": "s" for t in TASKS},
    **{f"downstream.examples.{t}": "count" for t in TASKS},
    "trace.run_s": "s",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def time_metric(name: str) -> str:
    """Span name → metric name: ``kge.fit.TransE`` → ``kge.fit_s.TransE``."""
    layer, op, *qual = name.split(".", 2)
    return ".".join([layer, op + "_s", *qual])


class Workload:
    """Shared plumbing; subclasses fill in the four steps."""

    name = ""
    why = ""
    uses_spark = True
    #: set-up repetitions; the first pays one-time import and first-call
    #: costs, so ``setup_s`` is the median of the later ones
    setup_reps = 2

    def __init__(self, spark, tracer, seed: int, check: Callable[[str, bool], None]):
        self.spark = spark
        self.tracer = tracer
        self.seed = seed
        self.check_ok = check
        self.outputs: List[dict] = []

    def span(self, name: str):
        return self.tracer.span(name)

    def warm_up(self) -> None:
        """Extra work before the set-up repetitions (none by default)."""

    def prepare(self) -> None:
        raise NotImplementedError

    def rep(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> None:
        raise NotImplementedError

    def items(self, out: dict) -> int:
        """Units of work in one repetition (for ``items_per_s``)."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """Input sizes and quantities reported with every result."""
        return {}

    def probe(self) -> None:
        """Untimed layer calls a traced run adds after the repetitions."""

    def layer_metrics(self, rep_ids: List[str]) -> Dict[str, float]:
        """Per-layer metrics over the traced repetitions ``rep_ids``."""
        return {}

    # ---- helpers over recorded spans ----------------------------------------
    def _per_rep(self, rep_ids, pick) -> float:
        """Median over repetitions of ``pick(spans of one repetition)``."""
        by_run: Dict[str, list] = {r: [] for r in rep_ids}
        for s in self.tracer.spans:
            if s["run"] in by_run:
                by_run[s["run"]].append(s)
        return _median(pick(spans) for spans in by_run.values())

    def span_times(self, rep_ids) -> Dict[str, float]:
        """Median per-repetition seconds of every span name but the root."""
        names = {s["name"] for s in self.tracer.spans if s["run"] in rep_ids}
        names.discard("run")
        return {
            time_metric(n): self._per_rep(
                rep_ids,
                lambda ss, n=n: sum(s["end"] - s["start"] for s in ss if s["name"] == n),
            )
            for n in names
        }

    def spark_counter(self, rep_ids, prefix: str, key: str) -> float:
        """Median per-repetition Spark counter over spans named ``prefix*``."""
        return self._per_rep(
            rep_ids,
            lambda ss: sum(
                self.tracer.inclusive(s["id"], key)
                for s in ss if s["name"].startswith(prefix)
            ),
        )


def _world(cfg: ScaledConfig):
    onto = build_core_ontology(cfg)
    forms = build_surface_forms(onto)
    return onto, forms, generate_catalog(onto, forms, cfg)


def _kg_build(spark, span, onto, forms, catalog, cfg) -> tuple:
    """assemble → materialize: the construction chain of Sec. II."""
    with span("assemble.call"):
        kg = assemble_openbg(spark, onto, forms, catalog, cfg)
    with span("assemble.materialize"):
        n = kg.triples.cache().count()
    return kg, n


# ---------------------------------------------------------------------------
def _factories(data: KGEDataset, kg: OpenBG) -> dict:
    f = dict(kge_common.structural_factories())
    f.update(kge_common.text_factories(data, kg))
    f.update(kge_common.multimodal_factories(data, kg))
    return f


class Pipeline(Workload):
    """The Spark pipeline end to end, one stage after the other.

    Construction (Sec. II) and its Table I queries, three-stage benchmark
    sampling (Table II), the five KGE models on OpenBG-IMG at the Table
    III budget, then the pre-training grid and the downstream tasks of
    Tables V–VII on the KG just built.  At this scale the salience task
    has fewer than 10 examples, so ``run_salience`` returns no scores
    (its documented behaviour); only its dataset build is measured.
    """

    name = "pipeline"
    why = ("the Spark pipeline once through: construction, Table I, sampling, "
           "KGE fit on OpenBG-IMG, pre-training grid and downstream tasks")
    SCALE = 1e-4
    BOOST = 3.0
    GRID = ("mPLUG-base", "mPLUG-base+KG")
    #: tasks the check runs a second time (NER and IE are the slow ones)
    RERUN = ("category", "summarization", "salience", "category_kshot")
    setup_reps = 5

    def warm_up(self) -> None:
        # Starts the JVM's executors and the Python workers (with pandas,
        # Arrow and the program imported) before anything is timed.  A
        # warm-up through every stage would cost as much as the timed
        # repetition itself, so the stages' own first-run costs stay in it.
        def touch(batches):  # nested, so that it is pickled by value
            import repro.construction.schema_mapping  # noqa: F401

            yield from batches

        pdf = pd.DataFrame({"k": np.arange(1000) % 7, "v": np.arange(1000)})
        df = self.spark.createDataFrame(pdf)
        df.groupBy("k").count().collect()
        for _ in range(2):
            df.mapInPandas(touch, df.schema).toPandas()

    def prepare(self) -> None:
        self.cfg = ScaledConfig(scale=self.SCALE, rel_scale=0.1, seed=self.seed)
        self.world = _world(self.cfg)
        onto, _, catalog = self.world
        self.reviews = generate_reviews(onto, catalog, self.cfg)

    def rep(self) -> dict:
        kg, n = _kg_build(self.spark, self.span, *self.world, self.cfg)
        with self.span("stats.table1"):
            table1 = {
                "overall": stats.overall_stats(kg),
                "rel": stats.relation_stats(kg),
                "kinds": stats.kind_stats(kg),
                "tax_nodes": int(stats.taxonomy_stats(kg)["all"].sum()),
            }
        with self.span("benchmark.sampling"):
            benches = build_all_benchmarks(kg, boost=self.BOOST)
        kge = self._kge(kg, benches["OpenBG-IMG"])
        with self.span("pretrain.model_grid"):
            grid = model_grid(self.spark, kg, self.reviews)
        sub = {n: grid[n] for n in self.GRID}
        scores, examples = self._tasks(kg, sub)
        return {"kg": kg, "n": n, "table1": table1, "benches": benches, **kge,
                "sub": sub, "scores": scores, "examples": examples}

    def _kge(self, kg: OpenBG, bench) -> dict:
        budget = dict(kge_common.BUDGETS[bench.spec.name])
        dim = budget.pop("dim")
        with self.span("kge.dataset"):
            data = KGEDataset.from_benchmark(bench)
        with self.span("kge.features"):
            factories = _factories(data, kg)
        models, metrics = {}, {}
        for name in MODELS:
            models[name] = factories[name](data.n_ent, data.n_rel, dim, 0)
            with self.span(f"kge.fit.{name}"):
                models[name].fit(data, **budget)
            with self.span(f"kge.rank.{name}"):
                metrics[name] = evaluate(models[name], data)
        return {"data": data, "models": models, "metrics": metrics,
                "epochs": budget["epochs"]}

    def _tasks(self, kg: OpenBG, sub: dict, only=TASKS) -> tuple:
        """The five Table V tasks and the Table VI/VII k-shot runs.

        Each task's span includes building its dataset; the k-shot runs
        reuse the full-resource task's dataset.
        """
        datasets: Dict[str, object] = {}

        def data(task: str):
            if task not in datasets:
                datasets[task] = {
                    "category": category_pred.build_dataset,
                    "ner": ner_titles.build_ner_dataset,
                    "summarization": summarization.build_dataset,
                    "salience": salience.build_dataset,
                }[task](kg)
            return datasets[task]

        runs = {
            "category": lambda: category_pred.run_category_prediction(
                kg, sub, dataset=data("category")),
            "ner": lambda: ner_titles.run_ner(kg, sub, dataset=data("ner")),
            "summarization": lambda: summarization.run_summarization(
                kg, sub, dataset=data("summarization")),
            "ie": lambda: run_ie(kg, sub, self.reviews),
            "salience": lambda: salience.run_salience(kg, sub, dataset=data("salience")),
            "category_kshot": lambda: {
                k: category_pred.run_category_prediction(
                    kg, sub, dataset=data("category"), k_shot=k) for k in (1, 5)},
            "ner_kshot": lambda: {
                k: ner_titles.run_ner(kg, sub, dataset=data("ner"), k_shot=k)
                for k in (1, 5)},
        }
        scores = {}
        for task in only:
            with self.span(f"downstream.{task}"):
                scores[task] = runs[task]()
        examples = {t: len(self.reviews) if t == "ie" else len(data(t.replace("_kshot", "")))
                    for t in only}
        return scores, examples

    # ---- checks ---------------------------------------------------------------
    def check(self, out: dict) -> None:
        self._check_kg(out)
        self._check_benchmarks(out)
        self._check_tasks(out)
        self.outputs.append({
            "n": out["n"], "table1": out["table1"], "scores": out["scores"],
            "benchmarks": {
                name: {"train": len(b.train_pdf), "dev": len(b.dev_pdf),
                       "test": len(b.test_pdf), "n_rel": len(b.relations),
                       "n_ent": b.entity_count()}
                for name, b in out["benches"].items()},
        })
        if len(self.outputs) > 1:
            self.check_ok("repetition reproduces the first", self.outputs[-1] == self.outputs[0])
        self.last = out
        # build_all_benchmarks caches two candidate pools and never
        # unpersists them; the next repetition starts from a clean cache.
        self.spark.catalog.clearCache()

    def _check_kg(self, out: dict) -> None:
        ok, t1, n = self.check_ok, out["table1"], out["n"]
        ok("materialized count equals Table I triple count", n == t1["overall"]["n_triples"])
        ok("rdf:type count equals entity count",
           t1["rel"].get(S.RDF_TYPE) == t1["overall"]["n_entities"])
        ok("triples split exactly into object/data/meta", sum(t1["kinds"].values()) == n)
        if self.outputs:
            return  # the same inputs again: the repetition must match the first
        ok("(h, r, t) is distinct",
           out["kg"].triples.select("h", "r", "t").distinct().count() == n)
        _, forms, catalog = self.world
        prods = self.spark.createDataFrame(
            catalog.products[["product_id", "brand_surface", "place_surface"]])
        self.method_mix = {}
        for which, col in (("Brand", "brand_surface"), ("Place", "place_surface")):
            links = link_surfaces(
                self.spark, prods, build_matcher(forms, which), col).toPandas()
            q = linking_quality(_Frame(links), catalog.products, which)
            ok(f"{which} linking precision >= 0.95", q["precision"] >= 0.95)
            ok(f"{which} linking recall >= 0.90", q["recall"] >= 0.90)
            raw = links["surface"].notna() & (links["surface"] != "")
            self.method_mix[which] = (
                links.loc[raw, "method"].fillna("miss").value_counts().to_dict())

    def _check_benchmarks(self, out: dict) -> None:
        ok, benches, data = self.check_ok, out["benches"], out["data"]
        ok("R_IMG is a subset of R500",
           set(benches["OpenBG-IMG"].relations) <= set(benches["OpenBG500"].relations))
        for name, b in benches.items():
            tr, dv, te = (set(df.itertuples(index=False, name=None))
                          for df in (b.train_pdf, b.dev_pdf, b.test_pdf))
            ok(f"{name} splits are disjoint", not (tr & dv or tr & te or dv & te))
            seen = set(b.train_pdf["h"]) | set(b.train_pdf["t"])
            ev = pd.concat([b.dev_pdf, b.test_pdf])
            ok(f"{name} eval entities all occur in train",
               set(ev["h"]) <= seen and set(ev["t"]) <= seen)
        for name, model in out["models"].items():
            ranks = ranks_numpy(model, data)
            ok(f"{name} ranks lie in [1, n_ent]",
               len(ranks) == len(data.test)
               and bool(np.all((ranks >= 1) & (ranks <= data.n_ent))))
            ok(f"{name} metrics lie in [0, 1]", _metrics_ok(out["metrics"][name]))

    def _check_tasks(self, out: dict) -> None:
        scores = out["scores"]
        self.check_ok("every task but salience produced scores",
                      all(scores[t] for t in TASKS if t != "salience"))
        self.check_ok("task scores lie in [0, 1]",
                      all(0.0 <= v <= 1.0 for v in _leaves(scores)))
        if not self.outputs:
            # the cheaper tasks once more, untimed, on the same grid
            again, _ = self._tasks(out["kg"], out["sub"], only=self.RERUN)
            self.check_ok("task scores identical when run again",
                          again == {t: scores[t] for t in self.RERUN})

    # ---- reporting ------------------------------------------------------------
    def items(self, out: dict) -> int:
        return out["n"]

    def sizes(self) -> dict:
        first = self.outputs[0] if self.outputs else {}
        return {
            "scale": self.SCALE, "rel_scale": 0.1, "boost": self.BOOST,
            "products": self.world[2].n_products,
            "triples": first.get("n"),
            "entities": first.get("table1", {}).get("overall", {}).get("n_entities"),
            "relation_types": self.world[0].n_relation_types,
            "linking_method_mix": getattr(self, "method_mix", None),
            "benchmarks": first.get("benchmarks"),
            "kge_queries_per_model": len(self.last["data"].test) if self.outputs else None,
            "reviews": len(self.reviews),
            "task_examples": self.last["examples"] if self.outputs else None,
        }

    def probe(self) -> None:
        t0 = time.perf_counter()
        with self.span("pretrain.kg_features"):
            KGFeatures.build(self.spark, self.last["kg"])
        self.kg_features_s = time.perf_counter() - t0

    def layer_metrics(self, rep_ids) -> Dict[str, float]:
        m = self.span_times(rep_ids)
        out, data = self.last, self.last["data"]
        m["assemble.triples"] = out["n"]
        for layer in SPARK_LAYERS:
            for key in ("spark_jobs", "spark_tasks", "executor_cpu_s"):
                m[f"{layer}.{key}"] = self.spark_counter(rep_ids, f"{layer}.", key)
            m[f"{layer}.shuffle_write_mb"] = self.spark_counter(
                rep_ids, f"{layer}.", "shuffle_write_bytes") / 1e6
        for name, b in out["benches"].items():
            m[f"benchmark.train_triples.{name}"] = len(b.train_pdf)
            m[f"benchmark.test_triples.{name}"] = len(b.test_pdf)
            m[f"benchmark.n_ent.{name}"] = b.entity_count()
        for name in MODELS:
            m[f"kge.fit_triples_per_s.{name}"] = (
                len(data.train) * out["epochs"] / m[f"kge.fit_s.{name}"])
            m[f"kge.rank_queries_per_s.{name}"] = len(data.test) / m[f"kge.rank_s.{name}"]
        m["kge.candidates_scored"] = len(MODELS) * len(data.test) * data.n_ent
        m["pretrain.kg_features_s"] = self.kg_features_s
        for t, k in out["examples"].items():
            m[f"downstream.examples.{t}"] = k
        return m


def _metrics_ok(metrics: dict) -> bool:
    return all(0.0 <= metrics[k] <= 1.0 for k in ("hits1", "hits3", "hits10", "mrr"))


# ---------------------------------------------------------------------------
class _Frame:
    """The one DataFrame method ``linking_quality`` calls, over pandas."""

    def __init__(self, pdf: pd.DataFrame):
        self.pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self.pdf


class Linking(Workload):
    """Brand/Place schema mapping (Sec. II-B) without Spark; half of ``lookup``.

    Runs the matcher that the distributed linking step applies to every
    row.  Each class gets a seeded sample of its raw surfaces with a
    fixed mix of canonical, alias and misspelled forms (the generator's
    70/20/10).  A misspelling is two edits from its canonical form, so
    each one scans the whole dictionary: every seed makes the fuzzy
    stage do the same number of comparisons.
    """

    SCALE = 1e-3
    MIX = {"canonical": 140, "alias": 40, "misspelled": 20}
    CLASSES = (("Brand", "brand"), ("Place", "place"))

    def prepare(self) -> None:
        cfg = ScaledConfig(scale=self.SCALE, rel_scale=0.1, seed=self.seed)
        _, self.forms, catalog = _world(cfg)
        self.matchers = {w: build_matcher(self.forms, w) for w, _ in self.CLASSES}
        g = np.random.default_rng(cfg.derived_seed("perfbench-linking"))
        p = catalog.products
        self.rows = {}
        for which, col in self.CLASSES:
            parts = [p[p[f"{col}_form"] == form].sample(k, random_state=g)
                     for form, k in self.MIX.items()]
            self.rows[which] = pd.concat(parts)[
                ["product_id", f"{col}_surface", f"{col}_node", f"{col}_form"]]

    def rep(self) -> dict:
        out = {}
        for which, col in self.CLASSES:
            m = self.matchers[which]
            with self.span("schema_mapping.link"):
                out[which] = [m.match(s) for s in self.rows[which][f"{col}_surface"]]
        return out

    def check(self, out: dict) -> None:
        for which, col in self.CLASSES:
            rows = self.rows[which]
            links = pd.DataFrame({"product_id": rows["product_id"].to_numpy(),
                                  "node_id": [n for n, _ in out[which]]})
            q = linking_quality(_Frame(links), rows, which)
            self.check_ok(f"{which} linking precision >= 0.95", q["precision"] >= 0.95)
            self.check_ok(f"{which} linking recall >= 0.90", q["recall"] >= 0.90)
        if self.outputs:
            self.check_ok("repetition reproduces the first", out == self.outputs[0])
        self.outputs.append(out)

    def items(self, out: dict) -> int:
        return sum(len(v) for v in out.values())

    def sizes(self) -> dict:
        return {
            "scale": self.SCALE, "rows_per_class": sum(self.MIX.values()),
            "form_mix": self.MIX,
            "dictionary_entries": {w: len(m.entries) for w, m in self.matchers.items()},
            "method_mix": self._methods() if self.outputs else None,
        }

    def _methods(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for matches in self.outputs[0].values():
            for _, method in matches:
                counts[method or "miss"] = counts.get(method or "miss", 0) + 1
        return counts

    def probe(self) -> None:
        # the rows that reach the fuzzy stage, timed on their own
        t0 = time.perf_counter()
        n = 0
        for which, col in self.CLASSES:
            m = self.matchers[which]
            for s, (_, method) in zip(self.rows[which][f"{col}_surface"],
                                      self.outputs[0][which]):
                if method not in ("precise", "synonym"):
                    m.match(s)
                    n += 1
        self.fallthrough_ms = 1e3 * (time.perf_counter() - t0) / max(1, n)

    def layer_metrics(self, rep_ids) -> Dict[str, float]:
        m = self.span_times(rep_ids)
        methods = self._methods()
        rows = sum(methods.values())
        m.update({f"schema_mapping.{k}_share": methods.get(k, 0) / rows
                  for k in ("precise", "synonym", "fuzzy", "miss")})
        m["schema_mapping.rows"] = rows
        m["schema_mapping.ms_per_fallthrough_row"] = self.fallthrough_ms
        m["schema_mapping.matcher_bytes"] = sum(
            len(pickle.dumps(x)) for x in self.matchers.values())
        return m


# ---------------------------------------------------------------------------
class KgeRank(Workload):
    """Filtered tail ranking with fitted models; half of ``lookup``.

    It reads the KGE layer only: the models are fitted in the set-up.

    The dataset is an OpenBG500-L-shaped benchmark made without Spark:
    the product-headed business triples (attributes, concept links and
    Brand/Place links) of a generated catalogue, cut to the top
    relations and split by the program's leakage-guarded splitter.
    """

    SCALE = 5e-4
    N_QUERIES = 5000
    #: queries per model in one repetition; repetitions walk through
    #: the seeded query list
    CHUNK = 50

    def prepare(self) -> None:
        cfg = ScaledConfig(scale=self.SCALE, rel_scale=0.1, seed=self.seed)
        onto, _, catalog = _world(cfg)
        self.kg = OpenBG(triples=None, onto=onto, catalog=catalog, cfg=cfg)
        p = catalog.products
        links = [
            catalog.attributes.rename(columns={"value": "t"})[["product_id", "r", "t"]],
            catalog.concept_links[["product_id", "r", "t"]],
        ]
        for col, rel in (("brand_node", S.BRAND_IS), ("place_node", S.PLACE_OF_ORIGIN)):
            has = p[p[col].notna()]
            links.append(pd.DataFrame({"product_id": has["product_id"], "r": rel,
                                       "t": has[col]}))
        pool = pd.concat(links, ignore_index=True).rename(columns={"product_id": "h"})
        n_rel = cfg.benchmark_n_rel("OpenBG500-L")
        keep = pool["r"].value_counts().sort_index().sort_values(
            ascending=False, kind="stable").index[:n_rel]
        pool = pool[pool["r"].isin(keep)].drop_duplicates(["h", "r", "t"])
        rng = np.random.default_rng(cfg.derived_seed("perfbench-kge-rank"))
        pool = pool.assign(_k=rng.random(len(pool)))
        spec = BenchmarkSpec(name="OpenBG500-L", n_rel=n_rel, ent_target=0,
                             train_target=len(pool), n_dev=1000,
                             n_test=self.N_QUERIES)
        splits = split_benchmark(pool, spec)
        self.data = KGEDataset.from_frames(splits["train"], splits["dev"], splits["test"])
        budget = dict(kge_common.BUDGETS["OpenBG500-L"], epochs=1)
        dim = budget.pop("dim")
        factories = _factories(self.data, self.kg)
        self.models = {}
        for name in MODELS:
            self.models[name] = factories[name](self.data.n_ent, self.data.n_rel, dim, 0)
            self.models[name].fit(self.data, **budget)
        # every true (h, r) → t of all splits, for the brute-force check
        self.known_tails: Dict[tuple, set] = {}
        d = self.data
        for h, r, t in np.concatenate([d.train, d.dev, d.test]).tolist():
            self.known_tails.setdefault((h, r), set()).add(t)
        self.chunks = [self.data.test[i:i + self.CHUNK]
                       for i in range(0, len(self.data.test), self.CHUNK)]
        self.next_chunk = 0

    def rep(self) -> dict:
        chunk = self.chunks[self.next_chunk % len(self.chunks)]
        self.next_chunk += 1
        view = dataclasses.replace(self.data, test=chunk)
        metrics = {}
        for name, model in self.models.items():
            with self.span(f"kge.rank.{name}"):
                metrics[name] = evaluate(model, view)
        return {"view": view, "metrics": metrics}

    def check(self, out: dict) -> None:
        view = out["view"]
        g = np.random.default_rng(self.seed + len(self.outputs))
        sample = view.test[g.choice(len(view.test), size=min(10, len(view.test)),
                                    replace=False)]
        probe = dataclasses.replace(view, test=sample)
        for name, model in self.models.items():
            got = ranks_numpy(model, probe)
            want = []
            for h, r, t in sample.tolist():
                scores = np.asarray(model.score_candidates(h, r, tails=True), float)
                others = list(self.known_tails[(h, r)] - {t})
                scores[others] = -np.inf
                want.append(1 + int(np.sum(scores > scores[t])))
            self.check_ok(f"{name} ranks equal brute-force filtered ranks",
                          got.tolist() == want)
            self.check_ok(f"{name} metrics lie in [0, 1]", _metrics_ok(out["metrics"][name]))
        self.outputs.append({"queries": len(view.test)})

    def items(self, out: dict) -> int:
        return len(out["view"].test) * len(self.models)

    def sizes(self) -> dict:
        d = self.data
        return {
            "scale": self.SCALE, "rel_scale": 0.1, "benchmark": "OpenBG500-L-shaped",
            "products": self.kg.catalog.n_products,
            "train": len(d.train), "dev": len(d.dev), "test": len(d.test),
            "n_ent": d.n_ent, "n_rel": d.n_rel,
            "queries_per_model_per_rep": self.CHUNK,
        }

    def layer_metrics(self, rep_ids) -> Dict[str, float]:
        m = self.span_times(rep_ids)
        for name in MODELS:
            m[f"kge.rank_queries_per_s.{name}"] = self.CHUNK / m[f"kge.rank_s.{name}"]
        m["kge.candidates_scored"] = len(MODELS) * self.CHUNK * self.data.n_ent
        return m


def _leaves(x):
    """Every number in a nested dict/tuple of task scores."""
    if isinstance(x, dict):
        for v in x.values():
            yield from _leaves(v)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _leaves(v)
    else:
        yield float(x)


# ---------------------------------------------------------------------------
class Lookup(Workload):
    """The program's two read-only lookups, one after the other, no Spark.

    A repetition links the fixed Brand/Place sample (``Linking``) and
    ranks the next chunk of test queries with the five fitted models
    (``KgeRank``).  Nothing is built or trained in the timed phase, so it
    moves with the fuzzy scan and the ranker only; their spans tell the
    two apart.  A repetition takes a second or two, so a run holds many.
    """

    name = "lookup"
    why = ("Brand/Place matching at 1e-3, then filtered tail ranking with five "
           "models fitted in set-up; no Spark, nothing trained while timed")
    uses_spark = False
    setup_reps = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.parts = (Linking(*args), KgeRank(*args))

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def rep(self) -> tuple:
        return tuple(part.rep() for part in self.parts)

    def check(self, out: tuple) -> None:
        for part, o in zip(self.parts, out):
            part.check(o)

    def items(self, out: tuple) -> int:
        """Surfaces matched plus tail queries ranked."""
        return sum(part.items(o) for part, o in zip(self.parts, out))

    def sizes(self) -> dict:
        linking, kge_rank = self.parts
        return {"linking": linking.sizes(), "kge_rank": kge_rank.sizes()}

    def probe(self) -> None:
        for part in self.parts:
            part.probe()

    def layer_metrics(self, rep_ids) -> Dict[str, float]:
        m: Dict[str, float] = {}
        for part in self.parts:
            m.update(part.layer_metrics(rep_ids))
        return m


WORKLOADS = {w.name: w for w in (Pipeline, Lookup)}
