"""The Table V–VII harnesses end to end on the test-scale world."""
import pytest

from repro.core.config import TEST_CONFIG
from repro.tables import table5, table6, table7
from repro.tables.context import ExperimentContext


@pytest.fixture(scope="module")
def ctx(spark, kg, reviews, grid):
    """An experiment context whose caches already hold the session's
    test-scale world, reviews and grid."""
    ctx = ExperimentContext(spark)
    key = ctx._key(TEST_CONFIG)
    ctx._worlds[key], ctx._reviews[key], ctx._grids[key] = kg, reviews, grid
    return ctx


def _in_range(v):
    return v == "/" or 0 <= v <= 100


def test_table5_one_row_per_task_and_model(ctx):
    df = table5.run(ctx, TEST_CONFIG)
    want = sorted((t, m) for t, col in table5.PAPER.items() for m in col)
    assert sorted(zip(df["task"], df["model"])) == want
    assert all(_in_range(v) for v in df["ours"])


@pytest.mark.parametrize("table", [table6, table7], ids=["table6", "table7"])
def test_k_shot_tables_one_row_per_model(ctx, table):
    df = table.run(ctx, TEST_CONFIG)
    assert list(df["model"]) == list(table.PAPER)
    for col in ("ours 1-shot", "ours 5-shot"):
        assert all(_in_range(v) for v in df[col])
