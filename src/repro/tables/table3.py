"""Table III — link prediction on OpenBG-IMG (single- + multimodal)."""
from __future__ import annotations

import pandas as pd

from repro.core.config import EXP_CONFIG, ScaledConfig
from repro.tables.context import ExperimentContext
from repro.tables.kge_common import merge_with_paper, run_models

#: Paper Table III (OpenBG-IMG).
PAPER = {
    "TransE": dict(hits1=0.150, hits3=0.387, hits10=0.647, mr=118, mrr=0.315),
    "TransH": dict(hits1=0.129, hits3=0.525, hits10=0.743, mr=112, mrr=0.357),
    "TransD": dict(hits1=0.137, hits3=0.532, hits10=0.746, mr=110, mrr=0.364),
    "DistMult": dict(hits1=0.060, hits3=0.157, hits10=0.279, mr=524, mrr=0.139),
    "ComplEx": dict(hits1=0.143, hits3=0.244, hits10=0.371, mr=782, mrr=0.221),
    "TuckER": dict(hits1=0.497, hits3=0.690, hits10=0.820, mr=1473, mrr=0.611),
    "KG-BERT": dict(hits1=0.092, hits3=0.207, hits10=0.405, mr=61, mrr=0.194),
    "StAR": dict(hits1=0.176, hits3=0.307, hits10=0.493, mr=79, mrr=0.280),
    "TransAE": dict(hits1=0.274, hits3=0.489, hits10=0.715, mr=36, mrr=0.421),
    "RSME": dict(hits1=0.485, hits3=0.687, hits10=0.838, mr=72, mrr=0.607),
    "MKGformer": dict(hits1=0.448, hits3=0.651, hits10=0.822, mr=23, mrr=0.575),
}

SINGLE_MODAL = ["TransE", "TransH", "TransD", "DistMult", "ComplEx", "TuckER",
                "KG-BERT", "StAR"]
MULTI_MODAL = ["TransAE", "RSME", "MKGformer"]


def run(
    ctx: ExperimentContext,
    cfg: ScaledConfig = EXP_CONFIG,
    boost: float = 4.0,
) -> pd.DataFrame:
    """Train/evaluate all 11 baselines on the IMG-analogue benchmark.

    ``boost`` inflates the IMG extraction (the image-bearing product
    pool is small at scale; DESIGN.md "Scaling model").
    """
    kg = ctx.world(cfg)
    bench = ctx.benchmarks(cfg, boost=boost)["OpenBG-IMG"]
    measured = run_models(bench, kg, SINGLE_MODAL + MULTI_MODAL)
    return merge_with_paper(measured, PAPER)
