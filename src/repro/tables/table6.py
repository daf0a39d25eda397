"""Table VI — low-resource (1-/5-shot) category prediction."""
from __future__ import annotations

import pandas as pd

from repro.core.config import EXP_CONFIG, ScaledConfig
from repro.downstream.category_pred import build_dataset, run_category_prediction
from repro.tables.context import CAPS, ExperimentContext, k_shot_table

PAPER = {
    "RoBERTa-large": {1: 24.16, 5: 68.73},
    "RoBERTa-base+KG": {1: 35.74, 5: 68.99},
    "mPLUG-base": {1: 37.88, 5: 67.17},
    "mPLUG-base+KG": {1: 48.94, 5: 70.18},
    "mPLUG-large+KG": {1: 57.68, 5: 71.57},
}


def run(ctx: ExperimentContext, cfg: ScaledConfig = EXP_CONFIG) -> pd.DataFrame:
    kg = ctx.world(cfg)
    grid = ctx.grid(cfg, list(PAPER))
    ds = build_dataset(kg).head(CAPS["category"])
    return k_shot_table(
        PAPER, lambda k: run_category_prediction(kg, grid, dataset=ds, k_shot=k)
    )
