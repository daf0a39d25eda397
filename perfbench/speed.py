"""The machine's current speed, from a fixed piece of reference work.

The benchmark's host is shared: the same single-threaded code runs up to
about 1.6 times slower when neighbours load the machine, and such a state
lasts from seconds to minutes.  CPU time slows down with wall time, so the loss is
per cycle, not waiting.  Wall times of one run therefore depend on the
state the run lands in more than on the program.

``reference_s()`` times work that never touches the program: an
edit-distance loop in plain Python (the kind of work of the fuzzy
linking scan) and float32 scoring with an arg-sort in numpy (the kind of
work of a KGE ranker).  The harness runs it right before and right
after a timed step that lasts a few seconds and scales the step's wall
time by ``REF_S`` over the mean of the two, which gives the time the
step takes on this machine when the reference runs at its nominal speed.
"""
from __future__ import annotations

import time

import numpy as np

#: nominal seconds of one ``reference_s()`` call: a round figure in the
#: 0.07-0.11 s it takes on a 2.1 GHz Xeon vCPU as the host's load varies.
#: A step's scaled time is its wall time at that speed.
REF_S = 0.1

_WORDS = [f"{'kqzvbrtm'[i % 8]}{i * 7919 % 100000:05d}{'xyz'[i % 3] * (i % 4)}"
          for i in range(100)]
_rng = np.random.default_rng(0)
_ENT = _rng.standard_normal((4000, 64), dtype=np.float32)
_QRY = _rng.standard_normal((64, 16), dtype=np.float32)


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _python_work() -> int:
    return sum(_edit_distance(a, b) for a in _WORDS[:40] for b in _WORDS[40:])


def _numpy_work() -> float:
    total = 0.0
    for _ in range(24):
        scores = _ENT @ _QRY
        total += float(np.argsort(-scores, axis=0)[0].sum())
    return total


def reference_s() -> float:
    """Wall seconds of the fixed reference work, run once."""
    t0 = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - t0

