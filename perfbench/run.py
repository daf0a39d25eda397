"""Benchmark of the OpenBG reproduction pipeline.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in turn
    python3 perfbench/run.py --write-benchmark-json

Run it from the repository root; it needs no installed package.  It puts
``src`` on ``PYTHONPATH`` for itself and for the Spark Python workers
before the JVM starts.  Workloads (see ``workloads.py``): ``pipeline``
(Spark, the paper's pipeline once through) and ``lookup`` (no Spark:
Brand/Place matching and filtered KGE tail ranking).

One run: start Spark if the workload uses it (``local[N]``, N = min(4,
cores)), warm up, run the workload's set-up several times (median →
``setup_s``), then repeat the timed phase until ``--seconds`` of it have
been measured, at least once, checking the outputs of every repetition
untimed.  Spark's cache is cleared between repetitions.

Steps that run in this process alone -- every set-up, and the
repetitions of a workload without Spark -- report their wall time scaled
to the machine's nominal speed (``speed.py``): a fixed reference
workload runs right before and right after the step, and the step's wall
time is scaled by ``REF_S`` over their mean.  On a shared host whose
speed drifts by up to half within a minute this is what makes two runs
comparable.  A Spark repetition is reported in wall seconds: its time
does not follow the reference's (scaling it made the pipeline's spread
over seeds wider, not narrower).  The raw wall times are printed with
the rest of a run's details on the ``info`` line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records spans around every layer
call, writes them to ``perfbench/_out/`` and reports the per-layer
metrics instead.  An operation is one layer call or one output check;
``failed_share`` (failed / attempted) is printed above the last line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
NAMES = ("pipeline", "lookup")

#: Spark and BLAS settings of every run, reported with each result.
CORES = min(4, os.cpu_count() or 1)
SETTINGS = {
    "spark_master": f"local[{CORES}]",
    "shuffle_partitions": CORES,
    "driver_memory": "2g",
    "blas_threads": 1,
}
#: End-to-end metrics: unit, direction, and the share of the parent's
#: median by which a change may worsen them.  ``run_s`` is the median
#: reported time of one timed repetition; ``items_per_s`` divides each
#: repetition's unit of work by it (KG triples built; surfaces matched
#: plus queries ranked).
E2E = {
    "run_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
RUN_SECONDS = 25


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if not args.write_benchmark_json and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    return args


def write_benchmark_json() -> None:
    """BENCHMARK.json from the workloads and metrics defined here."""
    from workloads import PER_LAYER, WORKLOADS

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in NAMES],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in E2E.items()],
        "per_layer": [{"name": k, "unit": u, "better": _better(k)}
                      for k, u in PER_LAYER.items()],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")


def _better(metric: str) -> str:
    """Rates are better higher; times, counts and sizes lower."""
    return "higher" if "_per_s" in metric else "lower"


def configure_environment(work: Path) -> None:
    """Everything that must be set before numpy, pandas or the JVM load."""
    for d in ("tmp", "spark", "warehouse"):
        (work / d).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(SETTINGS["blas_threads"])
    os.environ["TMPDIR"] = str(work / "tmp")
    # every JVM (launcher and driver) would otherwise write /tmp/hsperfdata_*
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {SETTINGS['spark_master']}",
        f"--driver-memory {SETTINGS['driver_memory']}",
        f"--driver-java-options -Djava.io.tmpdir={work / 'tmp'}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        # keep every job in the status store for the per-span counters
        "--conf spark.ui.retainedJobs=1000000",
        "--conf spark.ui.retainedStages=1000000",
        f"--conf spark.sql.warehouse.dir={work / 'warehouse'}",
        "pyspark-shell",
    ])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SETTINGS["shuffle_partitions"]))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the gateway JVM, and wait until it exits."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits on end of its stdin
        proc.wait(timeout=60)


def source_digest() -> str:
    """sha256 over ``src`` (a checkout need not be a git repository)."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"perfbench: [{time.perf_counter() - _T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


class Checks:
    """Counts output checks; a failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"perfbench: check failed: {name}", file=sys.stderr)


def timed(step, scale: bool = True):
    """``step()`` → (result, wall seconds, seconds reported).

    With ``scale`` the reported seconds are the wall time scaled to the
    reference speed; without, they are the wall time itself.
    """
    from speed import REF_S, reference_s

    ref0 = reference_s() if scale else None
    t0 = time.perf_counter()
    out = step()
    wall = time.perf_counter() - t0
    if not scale:
        return out, wall, wall
    return out, wall, wall * REF_S / ((ref0 + reference_s()) / 2)


def run_workload(args) -> int:
    from spans import Tracer
    from workloads import PER_LAYER, WORKLOADS

    t_process = time.perf_counter()
    cls = WORKLOADS[args.workload]
    spark = start_spark() if cls.uses_spark else None
    spark_start_s = time.perf_counter() - t_process
    tracer = Tracer(enabled=bool(args.trace), spark=spark)
    checks = Checks()
    w = cls(spark, tracer, args.seed, checks)
    setup_times, rep_times, rep_items, rep_overhead = [], [], [], []
    setup_reported, rep_reported = [], []
    error = None
    try:
        log(f"spark started ({spark_start_s:.2f}s)")
        tracer.run_id = "warmup"
        w.warm_up()
        log("warmed up")
        for i in range(w.setup_reps):
            tracer.run_id = f"setup-{i}"
            _, wall, reported = timed(w.prepare)
            setup_times.append(wall)
            setup_reported.append(reported)
            log(f"set-up {i}: {wall:.2f}s (reported {reported:.2f}s)")
        while not rep_times or sum(rep_times) < args.seconds:
            i = len(rep_times)
            tracer.run_id = f"rep-{i}"
            over0 = tracer.overhead_s
            out, wall, reported = timed(lambda: _traced_rep(tracer, w),
                                      scale=not cls.uses_spark)
            rep_times.append(wall)
            rep_reported.append(reported)
            rep_overhead.append(tracer.overhead_s - over0)
            rep_items.append(w.items(out))
            log(f"repetition {i}: {wall:.2f}s (reported {reported:.2f}s)")
            tracer.run_id = f"check-{i}"
            w.check(out)
            log(f"checked {i}")
            if checks.failed:
                break
        metrics = {
            "run_s": statistics.median(rep_reported),
            "setup_s": statistics.median(setup_reported[1:] or setup_reported),
            "items_per_s": statistics.median(
                n / t for n, t in zip(rep_items, rep_reported)),
        }
        if args.trace:
            rep_ids = [f"rep-{i}" for i in range(len(rep_times))]
            tracer.run_id = "probe"
            w.probe()
            tracer.attach_spark_counters()
            layer = w.layer_metrics(rep_ids)
            selft = tracer.self_times()
            roots = [s for s in tracer.spans if s["name"] == "run"]
            # wall time, like the spans it is compared with
            layer["trace.run_s"] = statistics.median(rep_times)
            layer["trace.overhead_share"] = sum(rep_overhead) / sum(rep_times)
            layer["trace.unattributed_share"] = statistics.median(
                selft[s["id"]] / (s["end"] - s["start"]) for s in roots)
            metrics = {k: layer.get(k, 0.0) for k in PER_LAYER}
            units = PER_LAYER
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            units = {k: u for k, (u, _, _) in E2E.items()}
        sizes = w.sizes()
    except Exception:  # the run must still report, and stop Spark
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        metrics, units, sizes = {}, {}, {}
    finally:
        if spark is not None:
            stop_spark(spark)
            log("spark stopped")

    if not args.trace and metrics:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = max(1, tracer.calls + checks.attempted)
    failed = tracer.failures + len(checks.failed) + (1 if error and not tracer.failures else 0)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), **SETTINGS,
        "spark_start_s": spark_start_s if spark is not None else None,
        "setup_times_s": setup_times, "rep_times_s": rep_times, "rep_items": rep_items,
        "setup_reported_s": setup_reported, "rep_reported_s": rep_reported,
        "inputs": sizes, "failed_checks": checks.failed,
        "failed_share": failed / attempted,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, default=str))
    print("info " + json.dumps(info, default=str))
    for k, v in metrics.items():
        print(f"{k:48s} {v:.6g} {units[k]}")
    print(f"{'failed_share':48s} {info['failed_share']:.6g} share ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if error is None else 1


def _traced_rep(tracer, w):
    with tracer.span("run", layer=False):
        return w.rep()


def run_all(args) -> int:
    """Each workload in its own process; prints every result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(line for line in lines[:-1] if not line.startswith("info ")))
        code = code or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr[-2000:], file=sys.stderr)
            return code or 1
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.write_benchmark_json:
        sys.path.insert(0, str(SRC))
        write_benchmark_json()
        return 0
    if args.workload == "all":
        return run_all(args)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    configure_environment(work)
    try:
        return run_workload(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it


if __name__ == "__main__":
    sys.exit(main())
