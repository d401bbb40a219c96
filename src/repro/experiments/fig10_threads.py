"""Figure 10: parallelization scalability of P-Tucker.

The paper varies OpenMP threads T = 1..20 and reports speed-up
(Time_1/Time_T) and memory (T·J² intermediates, Theorem 4). Here T is
the number of Spark partitions per mode view: on local[*] with
T ≤ cores, a stage over T partitions runs exactly T concurrent tasks,
each holding one set of {δ, B, c, (B+λI)^{-1}} intermediates — the same
worker model. Memory is the analytic per-task intermediate total.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.cache import default_intermediate_bytes
from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import sparse_tensor_uniform
from repro.tensor.spark_tensor import ModePartitionedTensor


def thread_scalability(
    spark: SparkSession,
    threads: tuple[int, ...] = (1, 2, 4, 8, 16),
    i_dim: int = 100_000,
    nnz: int = 300_000,
    rank: int = 10,
    iters: int = 2,
) -> list[dict]:
    """Speed-up and analytic intermediate memory vs worker count T."""
    t = sparse_tensor_uniform(shape=(i_dim,) * 3, nnz=nnz, seed=10)
    entries = t.to_spark(spark)
    rows = []
    t1: float | None = None
    cfg = PTuckerConfig(ranks=(rank,) * 3, max_iters=iters, tol=0.0)
    for n_threads in threads:
        with ModePartitionedTensor(entries, t.shape, n_threads) as mpt:
            res = factorize_ptucker(spark, mpt, t.shape, cfg)
        if t1 is None:
            t1 = res.mean_iter_time
        rows.append(
            {
                "T": n_threads,
                "s/iter": res.mean_iter_time,
                "speedup": t1 / res.mean_iter_time,
                "intermediate KB": default_intermediate_bytes(n_threads, rank)
                / 1e3,
            }
        )
    return rows
