"""In-memory spans around layer calls, with Spark job counters per span.

A span is one call into a layer of the program, timed from the
benchmark's side: name, start, end, parent span and run id (the
repetition it belongs to).  Spans stay in memory and are written once,
when the benchmark ends.

With Spark, every span sets the Spark job group to its own id, so each
Spark job is attributed to the innermost open span.  After the run the
session's status store gives, per job group, the jobs, executed tasks,
shuffle bytes written and executor CPU time.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Tracer:
    """Counts layer calls always; records spans only when ``enabled``."""

    def __init__(self, enabled: bool, spark=None):
        self.enabled = enabled
        self.spark = spark
        self.spans: List[dict] = []
        self.run_id: Optional[str] = None
        self.calls = 0
        self.failures = 0
        #: seconds spent in the tracer's own bookkeeping inside spans
        self.overhead_s = 0.0
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: bool = True):
        """Time one layer call; an exception counts as a failed call.

        ``layer=False`` marks a span that groups layer calls (the root of
        a repetition) and is not itself counted as a call.
        """
        if layer:
            self.calls += 1
        if not self.enabled:
            try:
                yield
            except BaseException:
                self.failures += 1
                raise
            return
        t_enter = time.perf_counter()
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        self._set_group(sid)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t_enter
        try:
            yield
        except BaseException as e:
            self.failures += 1
            rec["error"] = repr(e)
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self._set_group(self._stack[-1] if self._stack else None)
            self.overhead_s += time.perf_counter() - rec["end"]

    def _set_group(self, sid: Optional[int]) -> None:
        if self.spark is None:
            return
        sc = self.spark.sparkContext
        if sid is None:
            sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            sc.setJobGroup(f"span-{sid}", self.spans[sid]["name"])

    # ---- analysis -----------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the time its children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in self.spans}

    def attach_spark_counters(self) -> None:
        """Add jobs/tasks/shuffle/CPU counts to each span (own jobs only)."""
        if self.spark is None or not self.enabled:
            return
        sc = self.spark.sparkContext
        jsc = sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty(30_000)
        store = jsc.statusStore()
        stages = {}
        no_quantiles = sc._gateway.new_array(sc._gateway.jvm.double, 0)
        it = store.stageList(None, False, False, no_quantiles, None).iterator()
        while it.hasNext():
            st = it.next()
            d = stages.setdefault(st.stageId(), [0, 0, 0])
            d[0] += st.numCompleteTasks()
            d[1] += st.shuffleWriteBytes()
            d[2] += st.executorCpuTime()
        per_span: Dict[int, Dict[str, float]] = {}
        it = store.jobsList(None).iterator()
        while it.hasNext():
            job = it.next()
            group = job.jobGroup()
            if not group.isDefined() or not group.get().startswith("span-"):
                continue
            c = per_span.setdefault(
                int(group.get()[5:]),
                {"spark_jobs": 0, "spark_tasks": 0, "shuffle_write_bytes": 0,
                 "executor_cpu_s": 0.0},
            )
            c["spark_jobs"] += 1
            ids = job.stageIds()
            for i in range(ids.size()):
                tasks, shuffle, cpu_ns = stages.get(ids.apply(i), (0, 0, 0))
                c["spark_tasks"] += tasks
                c["shuffle_write_bytes"] += shuffle
                c["executor_cpu_s"] += cpu_ns / 1e9
        for s in self.spans:
            if s["id"] in per_span:
                s["spark"] = per_span[s["id"]]

    def inclusive(self, sid: int, key: str) -> float:
        """A Spark counter summed over a span and all its descendants."""
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s["id"])
        total, todo = 0.0, [sid]
        while todo:
            i = todo.pop()
            total += self.spans[i].get("spark", {}).get(key, 0)
            todo.extend(kids[i])
        return total

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        selft = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                row = dict(s, start=s["start"] - t0, end=s["end"] - t0,
                           self_s=selft[s["id"]])
                f.write(json.dumps(row) + "\n")
