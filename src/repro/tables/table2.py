"""Table II — summary statistics of the OpenBG benchmarks."""
from __future__ import annotations

import pandas as pd

from repro.benchmark.stats import benchmark_stats
from repro.core.config import BENCH_CONFIG, PAPER_BENCHMARKS, ScaledConfig
from repro.tables.context import ExperimentContext


def run(
    ctx: ExperimentContext, cfg: ScaledConfig = BENCH_CONFIG, boost: float = 1.0
) -> pd.DataFrame:
    """One row per (benchmark × stat): paper, the sampler's target, measured."""
    benches = ctx.benchmarks(cfg, boost=boost)
    rows = []
    for name, paper in PAPER_BENCHMARKS.items():
        bench = benches[name]
        spec = bench.spec
        target = {
            "n_ent": spec.ent_target,
            "n_rel": spec.n_rel,
            "n_train": spec.train_target,
            "n_dev": spec.n_dev,
            "n_test": spec.n_test,
        }
        if spec.multimodal:
            target["n_ent_multimodal"] = cfg.benchmark_targets(name, boost)[
                "n_ent_multimodal"
            ]
        st = benchmark_stats(bench)
        rows.extend(
            {
                "dataset": name,
                "stat": col,
                "paper": paper[col],
                "target (scaled)": t,
                "measured": st[col],
            }
            for col, t in target.items()
        )
    return pd.DataFrame(rows)
