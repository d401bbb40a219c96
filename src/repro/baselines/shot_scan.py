"""S-HOT_scan-like baseline (Oh et al., WSDM 2017).

S-HOT avoids the M-bottleneck of MET/HaTen2 by computing the TTMc
*on the fly*: no row block of Y_(n) larger than a small scan window ever
exists. Here each partition streams its row groups through
``common.y_windows`` in windows of ``_SCAN_ROWS`` rows, accumulating the
K×K Gram of Y_(n); after an eig of the Gram, a second streaming pass
emits the factor rows U = Y V Σ^{-1} (``common.gram_update``). Peak
intermediate state is O(K² + _SCAN_ROWS·K) — the scan-bounded memory
profile that lets S-HOT scale (Table III), at the cost of the two passes
and per-window overheads P-Tucker does not pay.

Missing entries are treated as zeros, as in the original — the source of
its poor accuracy on sparse data (Fig. 11).
"""
from __future__ import annotations

from repro.baselines.common import (
    ensure_budget,
    gram_update,
    hooi_family_loop,
    y_cols,
)
from repro.tensor.spark_tensor import ModePartitionedTensor

_SCAN_ROWS = 256


def scan_bytes(k_cols: int) -> int:
    """Per-task intermediates for a K-column Y_(n): Gram + one scan window."""
    return (k_cols * k_cols + _SCAN_ROWS * k_cols) * 8


def factorize_shot(
    mpt: ModePartitionedTensor,
    ranks: tuple[int, ...],
    *,
    max_iters: int = 20,
    tol: float = 1e-4,
    seed: int = 0,
    mem_budget: int | None = None,
):
    """Run the S-HOT_scan-like Tucker-ALS on Spark."""

    def updater(n, blocks, factors):
        ensure_budget(
            scan_bytes(y_cols(factors, n)),
            mem_budget,
            f"S-HOT scan window for mode {n}",
        )
        return gram_update(blocks, factors, n, mpt.shape[n], ranks[n], _SCAN_ROWS)

    return hooi_family_loop(mpt, ranks, updater, max_iters, tol, seed)
