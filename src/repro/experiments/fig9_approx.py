"""Figure 9: P-Tucker vs P-Tucker-Approx per-iteration time and fit.

Paper setting: N=3, I=10^6, |Ω|=10^7, J=10, truncation rate p=0.2 per
iteration. The shape to reproduce: Approx's per-iteration time falls
every iteration as |G| shrinks (overtaking the default), while its fit
degrades slightly — a time/accuracy trade-off. Scaled here to I=10^4,
|Ω|=10^5 (DESIGN.md).
"""
from __future__ import annotations

from dataclasses import replace

from pyspark.sql import SparkSession

from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import lowrank_tensor
from repro.tensor.spark_tensor import ModePartitionedTensor


def approx_tradeoff(
    spark: SparkSession,
    i_dim: int = 10_000,
    nnz: int = 100_000,
    rank: int = 10,
    iters: int = 10,
    truncation_rate: float = 0.2,
) -> list[dict]:
    """Per-iteration seconds, fit, and |G| for default vs approx."""
    t = lowrank_tensor(
        shape=(i_dim,) * 3, ranks=(rank,) * 3, nnz=nnz, noise=0.01, seed=9
    )
    norm = t.norm()
    cfg = PTuckerConfig(ranks=(rank,) * 3, max_iters=iters, tol=0.0)
    approx = replace(cfg, variant="approx", truncation_rate=truncation_rate)
    with ModePartitionedTensor(t.to_spark(spark), t.shape) as mpt:
        res_d = factorize_ptucker(spark, mpt, t.shape, cfg)
        res_a = factorize_ptucker(spark, mpt, t.shape, approx)
    rows = []
    for it in range(len(res_d.errors)):
        rows.append(
            {
                "iteration": it + 1,
                "P-Tucker s/iter": res_d.iter_times[it],
                "Approx s/iter": res_a.iter_times[it],
                "P-Tucker fit": 1.0 - res_d.errors[it] / norm,
                "Approx fit": 1.0 - res_a.errors[it] / norm,
                "Approx |G|": res_a.core_nnz_history[it],
            }
        )
    return rows
