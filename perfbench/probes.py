"""Spark probes: passes that do no kernel work, to price the stage floor
and the scan of a persisted view, and a reader for the largest partition."""
from __future__ import annotations

import time
from typing import Iterator

import pandas as pd
from pyspark.sql import functions as F

from perfbench.stats import median


def _noop(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    yield from pdfs


def _consume(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    n = sum(len(pdf) for pdf in pdfs)
    yield pd.DataFrame({"n": [n]})


def floor_s(spark, repeats: int = 5) -> float:
    """Median wall time of a no-op ``mapInPandas`` collect on 4 rows."""
    df = spark.range(0, 4, 1, 4)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        df.mapInPandas(_noop, "id long").collect()
        times.append(time.perf_counter() - t0)
    return median(times)


def scan_s(view, repeats: int = 3) -> float:
    """Median wall time of a pass that reads a persisted view and does nothing."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        view.mapInPandas(_consume, "n long").toPandas()
        times.append(time.perf_counter() - t0)
    return median(times)


def partition_sizes(view, partitions: int) -> list[int]:
    """Entries per partition of a persisted view (empty partitions as 0)."""
    pdf = view.select(F.spark_partition_id().alias("p")).groupBy("p").count().toPandas()
    sizes = [0] * partitions
    for p, c in zip(pdf["p"], pdf["count"]):
        sizes[int(p)] = int(c)
    return sizes


def read_partition(view, p: int) -> pd.DataFrame:
    """All entries of partition ``p`` of a persisted view."""
    return view.where(F.spark_partition_id() == p).toPandas()
