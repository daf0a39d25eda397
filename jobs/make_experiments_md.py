"""Render the paper's Tables I–VII, paper vs measured (``repro.tables.report``).

With no argument or an output path, write the whole document to that
path (default EXPERIMENTS.md).  With table ids, print only the sections
of those tables to stdout.

Usage: python jobs/make_experiments_md.py [output_path | I II ... VII]
"""
import sys

from _session import get_spark


def main() -> None:
    from repro.tables.context import ExperimentContext
    from repro.tables.report import TABLES, render

    args = sys.argv[1:]
    to_file = len(args) <= 1 and not set(args) & set(TABLES)
    spark = get_spark("experiments")
    ctx = ExperimentContext(spark)
    if to_file:
        out_path = args[0] if args else "EXPERIMENTS.md"
        with open(out_path, "w") as f:
            f.write(render(ctx))
        print(f"wrote {out_path}")
    else:
        print(render(ctx, args))
    spark.stop()


if __name__ == "__main__":
    main()
