"""Table III: empirical validation of the complexity analysis.

Two checkable claims are measured:

* time/iteration of P-Tucker is ~linear in |Ω| (the N²|Ω|J^N term
  dominates) — fit the log-log slope over the nnz sweep;
* intermediate memory classes per method, instantiated analytically at
  a reference point (the same formulas Table I derivation uses).
"""
from __future__ import annotations

import numpy as np

from repro.core.cache import pres_bytes
from repro.experiments.harness import OOM
from repro.experiments.table1_summary import intermediate_bytes


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) vs log(x) — the scaling exponent."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(a, ly, rcond=None)[0]
    return float(slope)


def nnz_scaling_exponent(nnz_rows: list[dict], method: str = "P-Tucker") -> float:
    """Empirical exponent b in time ∝ |Ω|^b from fig6(c) rows.

    Only points that did not OOM contribute. Theory: b ≈ 1 once |Ω|
    dominates fixed per-iteration overheads.
    """
    xs, ys = [], []
    for r in nnz_rows:
        if r[method] != OOM:
            xs.append(float(r["nnz"]))
            ys.append(float(r[method]))
    if len(xs) < 2:
        return float("nan")
    return loglog_slope(xs, ys)


def kernel_nnz_scaling(
    nnzs: tuple[int, ...] = (10_000, 100_000, 1_000_000),
    i_dim: int = 100_000,
    rank: int = 10,
) -> tuple[list[dict], float]:
    """Pure-kernel |Ω| scaling: one ALS iteration of the *sequential*
    reference engine per point, Spark orchestration excluded.

    The end-to-end Spark numbers flatten below |Ω| ≈ 10^6 because fixed
    per-stage overhead (~1-2 s/iteration) dominates; the kernel slope is
    the honest test of Theorem 3's |Ω|-linearity.
    """
    from repro.core import reference
    from repro.core.config import PTuckerConfig
    from repro.synth_data import sparse_tensor_uniform

    rows = []
    for nnz in nnzs:
        t = sparse_tensor_uniform(shape=(i_dim,) * 3, nnz=nnz, seed=nnz % 997)
        res = reference.factorize(
            t, PTuckerConfig(ranks=(rank,) * 3, max_iters=1, tol=0.0)
        )
        rows.append({"nnz": nnz, "kernel s/iter": res.mean_iter_time})
    slope = loglog_slope(
        [r["nnz"] for r in rows], [r["kernel s/iter"] for r in rows]
    )
    return rows, slope


def memory_class_table(
    *, nnz: int, i_dim: int, rank: int, order: int, threads: int
) -> list[dict]:
    """Table III memory column instantiated at a reference point."""
    rows = []
    for method, formula in (
        ("P-Tucker", "O(T·J²)"),
        ("P-Tucker-Cache", "O(|Ω|·J^N)"),
        ("P-Tucker-Approx", "O(J^N)"),
        ("S-HOT", "O(J^{2(N-1)})"),
        ("Tucker-CSF", "O(I·J^{N-1})"),
        ("Tucker-wOPT", "O(I^N) dense"),
    ):
        if method == "P-Tucker-Cache":
            b = pres_bytes(nnz, (rank,) * order)
        elif method == "P-Tucker-Approx":
            b = rank**order * 8
        else:
            b = intermediate_bytes(method, nnz, i_dim, rank, order, threads)
        rows.append(
            {"Method": method, "Formula": formula, "Bytes @ point": b}
        )
    return rows
