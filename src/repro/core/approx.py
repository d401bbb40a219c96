"""P-Tucker-Approx core-truncation logic (Algorithm 4).

Per iteration, every core entry β gets a partial reconstruction error
R(β) (Eq. 14, computed by ``row_update.rerror_partial`` in the last
mode's tasks of ``ptucker.factorize``); the top-p·|G| entries by R(β)
are "noisy" and removed, shrinking |G| and hence the per-iteration cost
(Theorem 7).
"""
from __future__ import annotations

import numpy as np

# Below this fill fraction the COO δ path (cost ∝ N·|G|) beats the dense
# einsum chain (cost ∝ J^N regardless of zeros); above it, the engines
# keep using the dense kernel on the zero-filled core — identical results
# (tested), better constants.
SPARSE_CORE_THRESHOLD = 0.25


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
