"""Per-table reproduction harnesses (Tables I–VII).

Each ``tableN`` module exposes ``run(ctx)``, whose rows pair the
paper's published numbers with our measured ones (Table I's ``run``
returns measured blocks that ``overall_rows``, ``taxonomy_rows`` and
``relation_rows`` turn into frames).  ``report`` lists the sections of
EXPERIMENTS.md and renders them for ``jobs/make_experiments_md.py``.
"""
