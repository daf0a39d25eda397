"""The jobs' Spark bootstrap works from a clean checkout."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMOKE = """
import jobs._session as session

def run(batches):
    import repro  # on a Spark Python worker
    yield from batches

spark = session.get_spark("session-smoke")
assert spark.range(1).mapInPandas(run, "id long").count() == 1
spark.stop()
"""


def test_spark_workers_import_repro_without_install():
    """No PYTHONPATH and no installed package: ``jobs/_session.py`` alone
    must make ``repro`` importable on the driver and the workers."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")
    }
    env.update(SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g")
    r = subprocess.run(
        [sys.executable, "-c", SMOKE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-4000:]
