"""Outside-in layer trace: spans around calls into the program's modules,
plus counters read from Spark's own status store.

``Tracer.installed()`` wraps the public functions each layer offers (and
the Spark calls the engines make) with span recorders, and restores them
on exit. Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark import SparkContext
from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

from repro.core import cache, ptucker
from repro.tensor import spark_tensor

# (owner, attribute, span name). The engines import some helpers by
# name, so each module that calls one gets its own patch.
PATCHES = [
    (spark_tensor.ModePartitionedTensor, "__init__", "spark_tensor.views"),
    (ptucker, "spark_sse", "ptucker.sse_pass"),
    (cache, "spark_sse", "ptucker.sse_pass"),
    (ptucker, "spark_rerror", "ptucker.rerror_pass"),
    (ptucker, "assemble_factor", "ptucker.assemble"),
    (cache, "assemble_factor", "ptucker.assemble"),
    (ptucker, "qr_orthogonalize", "linalg.qr"),
    (cache, "qr_orthogonalize", "linalg.qr"),
    (ptucker, "truncate_core", "approx.truncate"),
    (SparkContext, "broadcast", "spark.broadcast"),
    (ClassicDataFrame, "toPandas", "spark.toPandas"),
    (ClassicDataFrame, "count", "spark.count"),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for the (single-threaded) driver."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.after_count = None  # optional hook run when a count() returns

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "spark.count" and self.after_count is not None:
                self.after_count()
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
        for (owner, attr, name), (_, _, fn) in zip(PATCHES, saved):
            setattr(owner, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def children(self, parent: int) -> list[Span]:
        return [s for s in self.spans if s.parent == parent]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total, cur = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, cur), min(e, hi)
        if e > s:
            total += e - s
            cur = e
    return total


def self_time(span: Span, kids: list[Span]) -> float:
    """A span's duration minus the part its children cover."""
    return span.dur - covered([(k.start, k.end) for k in kids], span.start, span.end)


def classify_passes(kids: list[Span], order: int, variant: str) -> list[tuple[Span, str]]:
    """Label the direct children of a ``factorize`` span.

    Update passes are the ``toPandas`` actions the driver loop issues
    itself, mode 0..N-1 in turn. In the cache variant each iteration's
    ``count`` actions are one Pres precompute, then one rescale per mode.
    """
    out, n_upd, n_cnt = [], 0, 0
    for s in kids:
        label = s.name
        if s.name == "spark.toPandas":
            label = f"update.mode{n_upd % order}"
            n_upd += 1
        elif s.name == "spark.count" and variant == "cache":
            k = n_cnt % (order + 1)
            label = "cache.precompute" if k == 0 else f"cache.rescale.mode{k - 1}"
            n_cnt += 1
        out.append((s, label))
    return out


def iteration_bounds(factorize: Span, qr: Span, iter_times: list[float]) -> list[tuple[float, float]]:
    """(start, end) of each ALS iteration, anchored where the QR step starts.

    The loop ends right before ``qr_orthogonalize``; walking back by the
    engine's own ``iter_times`` gives every boundary without a hook
    inside the loop.
    """
    bounds, end = [], qr.start
    for t in reversed(iter_times):
        bounds.append((max(end - t, factorize.start), end))
        end -= t
    return bounds[::-1]


class StatusCounters:
    """Totals of Spark's per-stage task metrics, read from the status store."""

    def __init__(self, spark) -> None:
        self._sc = spark.sparkContext._jsc.sc()
        self._jvm = spark.sparkContext._jvm

    def snapshot(self) -> dict:
        """Counts and sums over all completed stages and all jobs so far."""
        self._sc.listenerBus().waitUntilEmpty()  # events are delivered async
        store = self._sc.statusStore()
        empty = self._jvm.java.util.ArrayList()
        quantiles = getattr(store, "stageList$default$4")()
        stages = store.stageList(empty, False, False, quantiles, empty)
        out = {"jobs": store.jobsList(empty).size(), "tasks": 0, "run_ms": 0,
               "shuffle_write_b": 0, "result_b": 0}
        for i in range(stages.size()):
            st = stages.apply(i)
            if st.status().toString() != "COMPLETE":
                continue
            out["tasks"] += st.numCompleteTasks()
            out["run_ms"] += st.executorRunTime()
            out["shuffle_write_b"] += st.shuffleWriteBytes()
            out["result_b"] += st.resultSize()
        return out

    def persisted_mb(self) -> float:
        """Memory plus disk held by the RDDs currently persisted."""
        persistent = self._sc.getPersistentRDDs()
        total = 0
        for info in self._sc.getRDDStorageInfo():
            if persistent.contains(info.id()):
                total += info.memSize() + info.diskSize()
        return total / 2**20


def diff(after: dict, before: dict) -> dict:
    """Per-key difference of two snapshots."""
    return {k: after[k] - before[k] for k in after}
