"""Table VII — low-resource (1-/5-shot) NER for titles (F1)."""
from __future__ import annotations

import pandas as pd

from repro.core.config import EXP_CONFIG, ScaledConfig
from repro.downstream.ner_titles import build_ner_dataset, run_ner
from repro.tables.context import CAPS, ExperimentContext, k_shot_table

PAPER = {
    "UIE": {1: 57.20, 5: 66.80},
    "RoBERTa-base+KG": {1: 59.60, 5: 67.90},
    "mPLUG-base": {1: 40.51, 5: 50.96},
    "mPLUG-base+KG": {1: 57.84, 5: 61.55},
    "mPLUG-large+KG": {1: 62.57, 5: 70.41},
}


def run(ctx: ExperimentContext, cfg: ScaledConfig = EXP_CONFIG) -> pd.DataFrame:
    kg = ctx.world(cfg)
    grid = ctx.grid(cfg, list(PAPER))
    ds = build_ner_dataset(kg)[: CAPS["ner"]]
    return k_shot_table(
        PAPER,
        lambda k: {m: prf[2] for m, prf in run_ner(kg, grid, dataset=ds, k_shot=k).items()},
    )
