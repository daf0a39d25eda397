"""EXPERIMENTS.md: the paper's Tables I–VII, paper vs measured.

``SECTIONS`` lists the document's sections in order; each names its
table, its heading, the harness call that gives its frame, and a shape
note.  :func:`render` turns the whole list (or the sections of some
tables) into markdown.  One shared :class:`ExperimentContext` keeps the
two worlds (``BENCH_CONFIG`` for Tables I–II, ``EXP_CONFIG`` for Tables
III–VII), the benchmarks and the model grid alive across tables.
"""
from __future__ import annotations

import sys
import time
from typing import Callable, Iterable, NamedTuple, Optional

import pandas as pd

from repro.tables import table1, table2, table3, table4, table5, table6, table7
from repro.tables.context import ExperimentContext, df_to_markdown

PREAMBLE = """# EXPERIMENTS — paper vs measured

Generated by `jobs/make_experiments_md.py`. Every table pairs the
paper's published numbers with ours, measured on the synthetic scaled
world (see DESIGN.md for the substitution table and the scaling model).

Scales: Tables I–II at `scale=1e-3` (KG volumes = paper × 1e-3,
relation-type counts = paper × 0.1); Tables III–VII on one shared world
at `scale=5e-3` with benchmark extraction boosted ×4 so the scaled-down
KGE datasets remain trainable. Absolute numbers are NOT expected to
match the paper (different substrate, ~1000× smaller data, tiny
models); the *shape* — which method wins, roughly by how much, where
the KG helps most — is the reproduction target. Shape notes follow
each table.
"""


class Section(NamedTuple):
    table: str
    heading: str
    frame: Callable[[ExperimentContext], pd.DataFrame]
    note: str = ""


SECTIONS = [
    Section(
        "I",
        "Table I — OpenBG statistics (overall)",
        lambda ctx: table1.overall_rows(table1.run(ctx)),
    ),
    Section(
        "I",
        "Table I — taxonomies (per-level counts)",
        lambda ctx: table1.taxonomy_rows(table1.run(ctx)),
    ),
    Section(
        "I",
        "Table I — relation-instance counts",
        lambda ctx: table1.relation_rows(table1.run(ctx)),
        "Shape notes: inMarket* dominates (as in the paper); rdf:type ≡ "
        "#entities holds by construction; high-rate concept relations "
        "(relatedScene) undershoot their scaled target because scaled-down "
        "concept vocabularies saturate (documented in DESIGN.md).",
    ),
    Section(
        "II",
        "Table II — benchmark statistics",
        table2.run,
        "Shape notes: IMG < 500 < 500-L on every volume dimension, "
        "R_IMG ⊆ R500, long-tail relation distributions (Fig. 5).",
    ),
    Section("III", "Table III — link prediction on OpenBG-IMG", table3.run),
    Section(
        "IV",
        "Table IV — link prediction on OpenBG500 / 500-L",
        table4.run,
        "Cells the paper leaves '-' (compute budget) keep the same roster here.",
    ),
    Section("V", "Table V — downstream tasks (full resource)", table5.run),
    Section("VI", "Table VI — low-resource category prediction", table6.run),
    Section("VII", "Table VII — low-resource NER for titles", table7.run),
]

#: Table ids in document order.
TABLES = list(dict.fromkeys(s.table for s in SECTIONS))


def render(ctx: ExperimentContext, tables: Optional[Iterable[str]] = None) -> str:
    """The markdown of the sections of ``tables`` (ids such as ``"III"``),
    in document order; with no ``tables``, the whole document: preamble,
    every section and the total runtime.  Logs each finished section to
    stderr."""
    t0 = time.time()
    chosen = TABLES if tables is None else list(tables)
    unknown = set(chosen) - set(TABLES)
    if unknown:
        raise ValueError(f"unknown tables {sorted(unknown)}; known: {TABLES}")
    parts = [PREAMBLE] if tables is None else []
    for s in SECTIONS:
        if s.table in chosen:
            note = "\n\n" + s.note if s.note else ""
            parts.append(f"\n## {s.heading}\n\n" + df_to_markdown(s.frame(ctx)) + note)
            print(f"[done] {s.heading}", file=sys.stderr, flush=True)
    if tables is None:
        parts.append(f"\n\n_Total runtime: {time.time() - t0:.0f}s_\n")
    return "\n".join(parts)
