"""The EXPERIMENTS.md driver (``repro.tables.report``) and the Table II
harness on the test-scale world."""
import re

import pytest

from repro.construction import stats
from repro.core.config import TEST_CONFIG
from repro.tables import report, table2
from repro.tables.context import ExperimentContext, df_to_markdown


class _TestScaleContext(ExperimentContext):
    """Serves every config from the test-scale world, so the sections'
    default configs run on the session's small KG."""

    @staticmethod
    def _key(cfg):
        return ExperimentContext._key(TEST_CONFIG)


@pytest.fixture(scope="module")
def ctx(spark, kg):
    ctx = _TestScaleContext(spark)
    ctx._worlds[ctx._key(TEST_CONFIG)] = kg
    return ctx


def test_render_tables_one_and_two(ctx, monkeypatch):
    calls = []
    overall = stats.overall_stats
    monkeypatch.setattr(stats, "overall_stats", lambda kg: calls.append(kg) or overall(kg))

    md = report.render(ctx, ["I", "II"])

    chosen = [s for s in report.SECTIONS if s.table in ("I", "II")]
    assert re.findall(r"^## (.+)$", md, re.M) == [s.heading for s in chosen]
    assert len(calls) == 1
    t2 = chosen[-1]
    assert md.endswith(
        f"\n## {t2.heading}\n\n" + df_to_markdown(table2.run(ctx)) + "\n\n" + t2.note
    )
    assert "_Total runtime" not in md and not md.startswith(report.PREAMBLE)


def test_render_rejects_unknown_table(ctx):
    with pytest.raises(ValueError, match="VIII"):
        report.render(ctx, ["II", "VIII"])


def test_table2_targets_are_the_sampler_targets(ctx):
    df = table2.run(ctx, TEST_CONFIG)
    target = df.set_index(["dataset", "stat"])["target (scaled)"]
    for name, bench in ctx.benchmarks(TEST_CONFIG).items():
        spec = bench.spec
        assert [target[name, col] for col in ("n_rel", "n_ent", "n_train", "n_dev", "n_test")] == [
            spec.n_rel, spec.ent_target, spec.train_target, spec.n_dev, spec.n_test
        ]
