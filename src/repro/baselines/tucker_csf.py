"""Tucker-CSF-like baseline (Smith & Karypis, Euro-Par 2017).

Tucker-CSF accelerates the TTMc by operating on a compressed sparse
fiber structure that lets whole fibers reuse partial Kronecker products.
The Spark analogue here: each partition *fully materializes* its local
block of Y_(n) rows in one vectorized sweep (``common.y_windows`` with
no window: sorted by fiber, i.e. by the mode index, and scattered with a
batched `np.add.at`), then contributes a Gram partial; a second sweep
forms U = Y V Σ^{-1} (``common.gram_update``). The per-task memory is
O(I_local · J^{N-1}) — the ``Memory ✗`` row of Table I — which buys
fewer per-window overheads than the scan-bounded S-HOT. A driver-side
budget check reproduces the paper's total O(I · J^{N-1}) footprint
semantics.

Missing entries are zeros, as in the original (accuracy ✗ in Table I).
"""
from __future__ import annotations

from repro.baselines.common import (
    ensure_budget,
    gram_update,
    hooi_family_loop,
    y_cols,
)
from repro.tensor.spark_tensor import ModePartitionedTensor


def materialized_bytes(dim: int, k_cols: int) -> int:
    """Materialized Y_(n) rows: all local blocks together span the observed
    rows of the mode (≤ I_n) — Table III's O(I·J^{N-1})."""
    return dim * k_cols * 8


def factorize_csf(
    mpt: ModePartitionedTensor,
    ranks: tuple[int, ...],
    *,
    max_iters: int = 20,
    tol: float = 1e-4,
    seed: int = 0,
    mem_budget: int | None = None,
):
    """Run the Tucker-CSF-like Tucker-ALS on Spark."""

    def updater(n, blocks, factors):
        ensure_budget(
            materialized_bytes(mpt.shape[n], y_cols(factors, n)),
            mem_budget,
            f"Tucker-CSF materialized Y_({n}) rows",
        )
        return gram_update(blocks, factors, n, mpt.shape[n], ranks[n], None)

    return hooi_family_loop(mpt, ranks, updater, max_iters, tol, seed)
