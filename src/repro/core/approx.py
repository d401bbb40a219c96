"""P-Tucker-Approx core-truncation logic (Algorithm 4).

Per iteration, every core entry β gets a partial reconstruction error
R(β) (Eq. 14, computed by ``row_update.rerror_partial`` in the last
mode's tasks of ``ptucker.factorize``); the top-p·|G| entries by R(β)
are "noisy" and removed, shrinking |G| and hence the per-iteration cost
(Theorem 7).
"""
from __future__ import annotations

import numpy as np

# Below this fill |G|/Π J the COO δ kernel (cost ∝ E·N·|G|) beats the
# dense one on the zero-filled core (a GEMM, then one contraction per
# further mode; cost ∝ E·Π J whatever the zeros); above it the engines run
# the dense kernel on the zero-filled core — identical results (tested).
# Serial ms per mode-0 δ call at J=10, COO / dense, from
# benchmarks/test_bench_delta.py (median of 3 runs of 15 rounds each,
# 4-core Xeon host):
#
#   fill    N=4, E=2600   N=4, E=3400   N=3, E=25000
#   21%     168 / 9.6     205 / 6.7     134 / 7.9
#   5.5%     34 / 6.8      49 / 6.6      23 / 6.6
#   2.3%    9.9 / 6.8      17 / 6.2      12 / 7.6
#   1.8%     10 / 7.2      13 / 6.8     9.3 / 7.5
#   1.5%    8.9 / 9.7      12 / 6.7     8.5 / 6.8
#   1.2%    6.5 / 9.9     9.1 / 6.7     6.3 / 7.2
#   1.0%    6.0 / 5.1     7.6 / 6.8     5.6 / 7.0
#   0.7%    4.2 / 6.4     5.8 / 7.2     5.6 / 9.8
#
# The kernels cross at ≈1-1.2% fill; below 1% COO wins in every column.
# A core of |G| ≤ 100 cells (e.g. J=3, N=3) never gets there with an entry
# left, so it always runs dense.
SPARSE_CORE_THRESHOLD = 0.01


def use_sparse_core(n_coo: int, core_size: int) -> bool:
    """Whether the truncated core is sparse enough for the COO kernels."""
    return n_coo < SPARSE_CORE_THRESHOLD * core_size


def dense_core_from_coo(
    core_idx: np.ndarray, core_vals: np.ndarray, ranks: tuple[int, ...]
) -> np.ndarray:
    """Materialize a (possibly truncated) COO core as a dense array."""
    out = np.zeros(ranks, dtype=np.float64)
    if len(core_vals):
        out[tuple(core_idx.T)] = core_vals
    return out


def full_core_coo(core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """COO view of a dense core: C-order index grid + raveled values."""
    grids = np.indices(core.shape).reshape(core.ndim, -1).T.astype(np.int64)
    return grids, core.ravel().copy()


def truncate_core(
    core_idx: np.ndarray,
    core_vals: np.ndarray,
    rerror: np.ndarray,
    rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 4: drop the top-p·|G| entries ranked by R(β) descending.

    Ties break by core-entry position for determinism. Keeps the
    surviving entries in their original order.
    """
    n_remove = int(rate * len(core_vals))
    if n_remove == 0 or len(core_vals) == 0:
        return core_idx, core_vals
    order = np.lexsort((np.arange(len(rerror)), -rerror))
    keep = np.sort(order[n_remove:])
    return core_idx[keep], core_vals[keep]
