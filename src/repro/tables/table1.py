"""Table I — statistics of OpenBG (paper vs measured at scale).

Every row pairs the paper's count with its scaled target
(paper × scale) and the value measured from our assembled KG, so a
reader can diff shape: which families dominate, where small-scale
saturation trims high-rate relations.
"""
from __future__ import annotations

import pandas as pd

from repro.core import config as C
from repro.core.config import BENCH_CONFIG, ScaledConfig
from repro.tables.context import ExperimentContext


def run(ctx: ExperimentContext, cfg: ScaledConfig = BENCH_CONFIG) -> dict:
    """Measured stats blocks (computed once per context) + the config,
    ready for rendering."""
    return {"cfg": cfg, **ctx.kg_stats(cfg)}


def _paper_rows(
    key: str, paper: dict, measured: dict, cfg: ScaledConfig, rel_scaled: set
) -> pd.DataFrame:
    """Per paper count: the count, paper × scale (``rel_scale`` for the
    names in ``rel_scaled``, ``scale`` otherwise) and the measured value."""
    rows = []
    for name, p in paper.items():
        scale = cfg.rel_scale if name in rel_scaled else cfg.scale
        rows.append(
            {
                key: name,
                "paper": p,
                "paper x scale": int(round(p * scale)),
                "measured": measured.get(name, 0),
            }
        )
    return pd.DataFrame(rows)


def overall_rows(res: dict) -> pd.DataFrame:
    paper = {
        "n_core_classes": C.PAPER_N_CORE_CLASSES,
        "n_core_concepts": C.PAPER_N_CORE_CONCEPTS,
        "n_relation_types": C.PAPER_N_RELATION_TYPES,
        "n_products": C.PAPER_N_PRODUCTS,
        "n_triples": C.PAPER_N_TRIPLES,
        "n_entities": C.PAPER_N_ENTITIES,
    }
    return _paper_rows("stat", paper, res["overall"], res["cfg"], {"n_relation_types"})


def taxonomy_rows(res: dict) -> pd.DataFrame:
    rows = []
    for _, r in res["taxonomy"].iterrows():
        paper_levels = C.PAPER_TAXONOMY_LEVELS[r["root"]]
        rows.append(
            {
                "taxonomy": r["root"],
                "paper levels": paper_levels,
                "paper all": sum(paper_levels),
                "measured levels": r["levels"],
                "measured all": r["all"],
                "measured leaf": r["leaf"],
            }
        )
    return pd.DataFrame(rows)


def relation_rows(res: dict) -> pd.DataFrame:
    paper = {
        **C.PAPER_OBJECT_PROPERTY_COUNTS,
        **C.PAPER_DATA_PROPERTY_COUNTS,
        **C.PAPER_META_PROPERTY_COUNTS,
    }
    #: axioms on relation *types* scale with rel_scale, not volume scale
    rel_scaled = {"rdfs:subPropertyOf", "owl:equivalentPropertyOf"}
    return _paper_rows("relation", paper, res["relations"], res["cfg"], rel_scaled)
