"""Figure 8: P-Tucker vs P-Tucker-Cache time/memory trade-off.

Paper setting: order N = 6..10, I=100, |Ω|=10^3, J=3. Cache runs up to
1.7× faster per iteration (growing with N, since its δ cost is O(N|Ω|J^N)
vs O(N²|Ω|J^N)); default uses ~29.5× less intermediate memory at N=10.
Memory is reported analytically per Theorems 4/6 (|Ω|·|G|·8 bytes for the
Pres table vs T·(2J²+2J)·8 for the default's per-task scratch), since
local-mode RSS cannot isolate per-task intermediates (DESIGN.md).
"""
from __future__ import annotations

from dataclasses import replace

from pyspark.sql import SparkSession

from repro.core.cache import default_intermediate_bytes, pres_bytes
from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import sparse_tensor_uniform
from repro.tensor.spark_tensor import ModePartitionedTensor


def cache_tradeoff(
    spark: SparkSession,
    orders: tuple[int, ...] = (6, 7, 8, 9),
    i_dim: int = 100,
    nnz: int = 1000,
    rank: int = 3,
    iters: int = 2,
) -> list[dict]:
    """Seconds/iteration and analytic intermediate bytes per variant."""
    threads = spark.sparkContext.defaultParallelism
    rows = []
    for n in orders:
        t = sparse_tensor_uniform(shape=(i_dim,) * n, nnz=nnz, seed=n)
        ranks = (rank,) * n
        cfg = PTuckerConfig(ranks=ranks, max_iters=iters, tol=0.0)
        with ModePartitionedTensor(t.to_spark(spark), t.shape) as mpt:
            res_d = factorize_ptucker(spark, mpt, t.shape, cfg)
            res_c = factorize_ptucker(
                spark, mpt, t.shape, replace(cfg, variant="cache")
            )
        mem_d = default_intermediate_bytes(threads, rank)
        mem_c = pres_bytes(t.nnz, ranks)
        rows.append(
            {
                "order": n,
                "P-Tucker s/iter": res_d.mean_iter_time,
                "Cache s/iter": res_c.mean_iter_time,
                "P-Tucker mem (MB)": mem_d / 1e6,
                "Cache mem (MB)": mem_c / 1e6,
                "mem ratio": mem_c / mem_d,
                "err diff": abs(res_d.final_error - res_c.final_error),
            }
        )
    return rows
