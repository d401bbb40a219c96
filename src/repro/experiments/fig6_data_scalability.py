"""Figure 6: data scalability of P-Tucker vs competitors.

Four sweeps over synthetic random tensors (Section IV-B1), each
reporting average seconds/iteration per method, with O.O.M. where a
method's simulated-memory budget is exceeded:

  (a) order N          — paper: N=3..10,  I=100,  |Ω|=10^3, J=3
  (b) dimensionality I — paper: 10^2..10^7, |Ω|=10·I, J=10
  (c) non-zeros |Ω|    — paper: 10^3..10^7, I=10^7, J=10
  (d) rank J           — paper: 3..11 step 2, I=10^6, |Ω|=10^7

Scaled grids (DESIGN.md substitutions) keep the same geometry ~10-100×
smaller; the wOPT budget is scaled with them so its O.O.M. point lands
at the same *relative* position (paper: N≥5 and I≥10^4 on 512 GB).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.experiments.harness import mean_iter_time_or_oom, run_methods
from repro.synth_data import sparse_tensor_uniform

# Scaled-down analogue of the paper's 512 GB box for the dense baseline.
WOPT_BUDGET = 4 * 10**9

COMPARED = ("P-Tucker", "S-HOT", "Tucker-CSF", "Tucker-wOPT")


def _run_point(
    spark: SparkSession,
    tensor,
    ranks: tuple[int, ...],
    iters: int,
    wopt_budget: int | None = None,
) -> dict:
    """Time every method on one sweep point; returns {method: s/iter}."""
    results = run_methods(
        spark,
        tensor,
        ranks,
        COMPARED,
        iters=iters,
        tol=0.0,
        wopt_budget=WOPT_BUDGET if wopt_budget is None else wopt_budget,
    )
    return {name: mean_iter_time_or_oom(res) for name, res in results}


def order_sweep(
    spark: SparkSession,
    orders: tuple[int, ...] = (3, 4, 5, 6),
    i_dim: int = 100,
    nnz: int = 1000,
    rank: int = 3,
    iters: int = 3,
    wopt_budget: int | None = None,
) -> list[dict]:
    """Fig 6(a): vary tensor order N. Paper point: wOPT OOM at N≥5."""
    rows = []
    for n in orders:
        t = sparse_tensor_uniform(shape=(i_dim,) * n, nnz=nnz, seed=n)
        point = _run_point(spark, t, (rank,) * n, iters, wopt_budget)
        rows.append({"order": n} | point)
    return rows


def dim_sweep(
    spark: SparkSession,
    dims: tuple[int, ...] = (100, 1_000, 10_000, 100_000),
    nnz_per_dim: int = 10,
    rank: int = 10,
    iters: int = 3,
    wopt_budget: int | None = None,
) -> list[dict]:
    """Fig 6(b): vary dimensionality I (N=3, |Ω|=10·I). wOPT OOMs early."""
    rows = []
    for i_dim in dims:
        t = sparse_tensor_uniform(
            shape=(i_dim,) * 3, nnz=nnz_per_dim * i_dim, seed=i_dim
        )
        point = _run_point(spark, t, (rank,) * 3, iters, wopt_budget)
        rows.append({"dim": i_dim} | point)
    return rows


def nnz_sweep(
    spark: SparkSession,
    nnzs: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000),
    i_dim: int = 100_000,
    rank: int = 10,
    iters: int = 3,
    wopt_budget: int | None = None,
) -> list[dict]:
    """Fig 6(c): vary |Ω| (N=3, fixed I). P-Tucker scales ~linearly."""
    rows = []
    for nnz in nnzs:
        t = sparse_tensor_uniform(shape=(i_dim,) * 3, nnz=nnz, seed=nnz % 997)
        point = _run_point(spark, t, (rank,) * 3, iters, wopt_budget)
        rows.append({"nnz": nnz} | point)
    return rows


def rank_sweep(
    spark: SparkSession,
    ranks: tuple[int, ...] = (3, 5, 7, 9, 11),
    i_dim: int = 10_000,
    nnz: int = 100_000,
    iters: int = 3,
    wopt_budget: int | None = None,
) -> list[dict]:
    """Fig 6(d): vary core rank J (N=3)."""
    rows = []
    t = sparse_tensor_uniform(shape=(i_dim,) * 3, nnz=nnz, seed=42)
    for j in ranks:
        point = _run_point(spark, t, (j,) * 3, iters, wopt_budget)
        rows.append({"rank": j} | point)
    return rows
