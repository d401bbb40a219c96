"""S-HOT_scan-like baseline (Oh et al., WSDM 2017).

S-HOT avoids the M-bottleneck of MET/HaTen2 by computing the TTMc
*on the fly*: no row block of Y_(n) larger than a small scan window ever
exists. Here each partition streams its row groups in chunks of
``scan_rows`` rows, accumulating the K×K Gram of Y_(n); after an eig of
the Gram, a second streaming pass emits the factor rows
U = Y V Σ^{-1}. Peak intermediate state is O(K² + scan_rows·K) — the
scan-bounded memory profile that lets S-HOT scale (Table III), at the
cost of the two passes and per-chunk overheads P-Tucker does not pay.

Missing entries are treated as zeros, as in the original — the source of
its poor accuracy on sparse data (Fig. 11).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.common import (
    ensure_budget,
    hooi_family_loop,
    kron_block,
    leading_left_factor_from_gram,
    rest_modes,
    sum_parts,
)
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    assemble_factor,
    run_pass,
)

_SCAN_ROWS = 256


def _scan_windows(idx, vals, factors, mode):
    """Stream a partition's rows of Y_(mode), ``_SCAN_ROWS`` rows at a time.

    Yields (row ids, dense Y rows) per window; only one window exists at
    a time.
    """
    rest = rest_modes(len(factors), mode)
    k_cols = int(np.prod([factors[k].shape[1] for k in rest]))
    perm = np.argsort(idx[:, mode], kind="stable")
    s_idx, s_vals = idx[perm], vals[perm]
    uniq, starts = np.unique(s_idx[:, mode], return_index=True)
    bounds = np.append(starts, len(s_vals))
    for rs in range(0, len(uniq), _SCAN_ROWS):
        re = min(rs + _SCAN_ROWS, len(uniq))
        lo, hi = bounds[rs], bounds[re]
        rows = np.zeros((re - rs, k_cols))
        pos = np.searchsorted(uniq[rs:re], s_idx[lo:hi, mode])
        block = kron_block(s_idx[lo:hi], factors, rest)
        np.add.at(rows, pos, s_vals[lo:hi, None] * block)
        yield uniq[rs:re], rows


def _gram_pass(
    view: DataFrame, factors: list[np.ndarray], mode: int, k_cols: int
) -> np.ndarray:
    """Scan pass 1: accumulate Gram(Y_(mode)) = Σ_rows y yᵀ in row chunks."""

    def task(f, idx, vals, batch):
        gram = np.zeros((k_cols, k_cols), dtype=np.float64)
        for _, rows in _scan_windows(idx, vals, f, mode):
            gram += rows.T @ rows
        yield pd.DataFrame({"g": [gram.ravel()]})

    parts = run_pass(view, factors, task, "g array<double>")
    return sum_parts(parts["g"], k_cols * k_cols).reshape(k_cols, k_cols)


def _rows_pass(
    view: DataFrame,
    factors: list[np.ndarray],
    mode: int,
    proj: np.ndarray,
) -> pd.DataFrame:
    """Scan pass 2: emit factor rows U = Y · proj (proj = V Σ^{-1})."""

    def task(state, idx, vals, batch):
        f, p = state
        for ids, rows in _scan_windows(idx, vals, f, mode):
            yield pd.DataFrame({"i": ids, "row": list(rows @ p)})

    return run_pass(view, (factors, proj), task, "i long, row array<double>")


def factorize_shot(
    spark: SparkSession,
    entries: DataFrame | ModePartitionedTensor,
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    *,
    max_iters: int = 20,
    tol: float = 1e-4,
    seed: int = 0,
    mem_budget: int | None = None,
):
    """Run the S-HOT_scan-like Tucker-ALS on Spark."""
    owns = not isinstance(entries, ModePartitionedTensor)
    mpt = ModePartitionedTensor(entries, shape) if owns else entries
    order = len(shape)

    def updater(n: int, factors: list[np.ndarray]) -> np.ndarray:
        rest = rest_modes(order, n)
        k_cols = int(np.prod([factors[k].shape[1] for k in rest]))
        # Scan-bounded intermediates: Gram + one scan window per task.
        ensure_budget(
            (k_cols * k_cols + _SCAN_ROWS * k_cols) * 8,
            mem_budget,
            f"S-HOT scan window for mode {n}",
        )
        gram = _gram_pass(mpt.view(n), factors, n, k_cols)
        v, inv_sigma = leading_left_factor_from_gram(gram, ranks[n])
        proj = v * inv_sigma[None, :]
        collected = _rows_pass(mpt.view(n), factors, n, proj)
        return assemble_factor(collected, shape[n], ranks[n])

    try:
        return hooi_family_loop(
            spark, mpt, shape, ranks, updater, max_iters, tol, seed
        )
    finally:
        if owns:
            mpt.unpersist()
