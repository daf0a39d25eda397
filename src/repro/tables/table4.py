"""Table IV — link prediction on OpenBG500 and OpenBG500-L."""
from __future__ import annotations

import pandas as pd

from repro.core.config import EXP_CONFIG, ScaledConfig
from repro.tables.context import ExperimentContext
from repro.tables.kge_common import merge_with_paper, run_models

#: Paper Table IV, OpenBG500 block.
PAPER_500 = {
    "TransE": dict(hits1=0.207, hits3=0.340, hits10=0.513, mr=5381, mrr=0.304),
    "TransH": dict(hits1=0.143, hits3=0.402, hits10=0.569, mr=6501, mrr=0.296),
    "TransD": dict(hits1=0.146, hits3=0.411, hits10=0.576, mr=6129, mrr=0.302),
    "DistMult": dict(hits1=0.068, hits3=0.131, hits10=0.255, mr=5709, mrr=0.129),
    "ComplEx": dict(hits1=0.081, hits3=0.187, hits10=0.313, mr=6393, mrr=0.156),
    "TuckER": dict(hits1=0.428, hits3=0.615, hits10=0.735, mr=2573, mrr=0.541),
    "KG-BERT": dict(hits1=0.071, hits3=0.145, hits10=0.262, mr=401, mrr=0.138),
    "GenKGC": dict(hits1=0.203, hits3=0.280, hits10=0.351, mr="-", mrr="-"),
}

#: Paper Table IV, OpenBG500-L block ('-' = omitted for compute budget).
PAPER_500L = {
    "TransE": dict(hits1=0.314, hits3=0.583, hits10=0.820, mr=888, mrr=0.482),
    "TransH": dict(hits1=0.247, hits3=0.569, hits10=0.813, mr=1157, mrr=0.441),
    "TransD": dict(hits1=0.279, hits3=0.575, hits10=0.820, mr=858, mrr=0.461),
    "DistMult": dict(hits1=0.012, hits3=0.147, hits10=0.299, mr=3065, mrr=0.108),
    "ComplEx": dict(hits1=0.088, hits3=0.195, hits10=0.300, mr=4569, mrr=0.165),
}

MODELS_500 = ["TransE", "TransH", "TransD", "DistMult", "ComplEx", "TuckER",
              "KG-BERT", "GenKGC"]
#: The paper omits TuckER/KG-BERT/GenKGC on -L (single V100); we keep the
#: same roster so the '-' cells line up.
MODELS_500L = ["TransE", "TransH", "TransD", "DistMult", "ComplEx"]


def run(
    ctx: ExperimentContext,
    cfg: ScaledConfig = EXP_CONFIG,
    boost: float = 4.0,
) -> pd.DataFrame:
    kg = ctx.world(cfg)
    benches = ctx.benchmarks(cfg, boost=boost)
    out = []
    for name, models, paper in (
        ("OpenBG500", MODELS_500, PAPER_500),
        ("OpenBG500-L", MODELS_500L, PAPER_500L),
    ):
        measured = run_models(benches[name], kg, models)
        merged = merge_with_paper(measured, paper)
        merged.insert(0, "dataset", name)
        out.append(merged)
    return pd.concat(out, ignore_index=True)
