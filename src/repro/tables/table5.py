"""Table V — evaluation of the five downstream tasks (full resource)."""
from __future__ import annotations

import pandas as pd

from repro.core.config import EXP_CONFIG, ScaledConfig
from repro.downstream.category_pred import build_dataset as cat_ds, run_category_prediction
from repro.downstream.ie_reviews import run_ie
from repro.downstream.ner_titles import build_ner_dataset, run_ner
from repro.downstream.salience import run_salience
from repro.downstream.summarization import build_dataset as summ_ds, run_summarization
from repro.tables.context import CAPS, ExperimentContext

#: Paper Table V.  '/' in the paper = model not evaluated on that task.
PAPER = {
    "category (acc)": {
        "RoBERTa-large": 68.80, "mPLUG-base": 73.10,
        "mPLUG-base+KG": 74.48, "mPLUG-large+KG": 74.60,
    },
    "ner (F1)": {
        "RoBERTa-large": 69.10, "UIE": 65.00, "mPLUG-base": 67.78,
        "mPLUG-base+KG": 73.00, "mPLUG-large+KG": 73.79,
    },
    "summarization (ROUGE-L)": {
        "mT5": 70.12, "mPLUG-base": 71.82,
        "mPLUG-base+KG": 72.30, "mPLUG-large+KG": 78.29,
    },
    "ie (F1)": {
        "mT5": 83.32, "mPLUG-base": 82.83,
        "mPLUG-base+KG": 83.76, "mPLUG-large+KG": 84.91,
    },
    "salience (acc)": {
        "BERT": 63.34, "mPLUG-base": 66.45,
        "mPLUG-base+KG": 69.45, "mPLUG-large+KG": 69.87,
    },
}

#: Per column: the task's runner and its keyword inputs (capped) from the
#: world and its reviews.  Each task runs on the models of its paper column.
TASKS = {
    "category (acc)": (
        run_category_prediction,
        lambda kg, reviews: {"dataset": cat_ds(kg).head(CAPS["category"])},
    ),
    "ner (F1)": (
        run_ner,
        lambda kg, reviews: {"dataset": build_ner_dataset(kg)[: CAPS["ner"]]},
    ),
    "summarization (ROUGE-L)": (
        run_summarization,
        lambda kg, reviews: {"dataset": summ_ds(kg).head(CAPS["summarization"])},
    ),
    "ie (F1)": (run_ie, lambda kg, reviews: {"reviews": reviews.head(CAPS["ie"])}),
    "salience (acc)": (run_salience, lambda kg, reviews: {}),
}


def run(ctx: ExperimentContext, cfg: ScaledConfig = EXP_CONFIG) -> pd.DataFrame:
    kg = ctx.world(cfg)
    reviews = ctx.reviews(cfg)
    rows = []
    for task, paper_col in PAPER.items():
        runner, inputs = TASKS[task]
        results = runner(kg, ctx.grid(cfg, list(paper_col)), **inputs(kg, reviews))
        # P/R/F tasks report F1
        ours_col = {
            m: (v[2] if isinstance(v, tuple) else v) * 100 for m, v in results.items()
        }
        for model in sorted(set(paper_col) | set(ours_col)):
            rows.append(
                {
                    "task": task,
                    "model": model,
                    "paper": paper_col.get(model, "/"),
                    "ours": round(ours_col[model], 2) if model in ours_col else "/",
                }
            )
    return pd.DataFrame(rows)
