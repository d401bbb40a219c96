"""Row-wise ALS update kernel (Eq. 10-12) over a batch of entries.

This is the per-partition work unit of every P-Tucker engine's tasks
(``ptucker._update_task``, ``cache._mode_task``), which the Spark engines
run per partition and the sequential reference on one block of every
entry: given every observed entry whose mode-n index falls in the block,
accumulate B_{i_n} and c_{i_n} per row via segment reductions and solve
the J×J regularized systems in a batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import delta as delta_mod
from repro.tensor.linalg import solve_rows_batched


@dataclass(frozen=True)
class RowUpdateResult:
    """Updated rows for one partition: ``rows[k]`` is the new a^(n)_{indices[k]}.

    ``pred[t]`` is X̂ (Eq. 5) of input entry ``t`` on the factors with the
    new rows written in: δ_t · a_new, from the δ the update already built.
    """

    indices: np.ndarray  # (R,) int64 mode-n indices present in this batch
    rows: np.ndarray  # (R, J_n) updated factor rows
    pred: np.ndarray  # (E,) predictions of the input entries, input order

    def sse(self, vals: np.ndarray) -> float:
        """Σ (X_α − X̂_α)² over the input entries (Eq. 6 inner sum)."""
        resid = vals - self.pred
        return float(resid @ resid)


def accumulate_b_c(
    delta: np.ndarray, vals: np.ndarray, seg_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segment-sum B = Σ δδᵀ (Eq. 11) and c = Σ X_α δ (Eq. 12).

    ``delta``/``vals`` must already be sorted by the grouping key;
    ``seg_starts`` are the segment offsets. Returns (R,J,J) and (R,J).
    """
    e, j = delta.shape
    outer = (delta[:, :, None] * delta[:, None, :]).reshape(e, j * j)
    b = np.add.reduceat(outer, seg_starts, axis=0).reshape(-1, j, j)
    c = np.add.reduceat(vals[:, None] * delta, seg_starts, axis=0)
    return b, c


def check_entries(
    idx: np.ndarray, vals: np.ndarray, factors: list[np.ndarray]
) -> None:
    """Raise ``ValueError`` on an index outside its factor's rows or a
    non-finite value.

    NumPy's fancy indexing would read a negative index from the end of a
    factor, and one NaN would turn every later error into NaN. O(E·N),
    in the pass every engine already runs.
    """
    dims = np.array([f.shape[0] for f in factors])
    bad = (idx.min(axis=0) < 0) | (idx.max(axis=0) >= dims)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"mode-{k} index out of bounds: entries span "
            f"[{idx[:, k].min()}, {idx[:, k].max()}], dimension {dims[k]}"
        )
    finite = np.isfinite(vals)
    if not finite.all():
        raise ValueError(f"{int((~finite).sum())} non-finite value(s)")


def update_rows(
    idx: np.ndarray,
    vals: np.ndarray,
    core: np.ndarray,
    factors: list[np.ndarray],
    mode: int,
    lam: float,
    core_coo: tuple[np.ndarray, np.ndarray] | None = None,
    pres: np.ndarray | None = None,
) -> RowUpdateResult:
    """Update every factor row of mode ``mode`` observed in this batch.

    Args:
        idx, vals: observed entries (complete row groups for this mode).
        core: dense core tensor (used directly, or as shape metadata).
        factors: current factor matrices.
        mode: mode being updated.
        lam: L2 regularization λ.
        core_coo: optional (core_idx, core_vals) — use the sparse-core δ
            path (P-Tucker-Approx).
        pres: optional (E, |G|) cache table aligned with ``idx`` — use the
            divide-out δ path (P-Tucker-Cache).

    The result's ``pred`` costs O(E·J) on top of the update, so the last
    mode's caller gets the iteration's residuals without a second δ.
    Raises ``ValueError`` on bad entries (``check_entries``).
    """
    if len(vals) == 0:
        j = core.shape[mode]
        return RowUpdateResult(
            np.zeros(0, np.int64), np.zeros((0, j)), np.zeros(0)
        )
    check_entries(idx, vals, factors)
    order = np.argsort(idx[:, mode], kind="stable")
    s_idx, s_vals = idx[order], vals[order]
    if pres is not None:
        d = delta_mod.delta_from_pres(pres[order], core, factors, s_idx, mode)
    elif core_coo is not None:
        c_idx, c_vals = core_coo
        d = delta_mod.delta_sparse(
            c_idx, c_vals, core.shape[mode], factors, s_idx, mode
        )
    else:
        d = delta_mod.delta_dense(core, factors, s_idx, mode)
    uniq, starts, seg = np.unique(
        s_idx[:, mode], return_index=True, return_inverse=True
    )
    b, c = accumulate_b_c(d, s_vals, starts)
    new_rows = solve_rows_batched(b, c, lam)
    pred = np.empty(len(vals), dtype=np.float64)
    pred[order] = np.einsum("ej,ej->e", d, new_rows[seg])
    return RowUpdateResult(uniq.astype(np.int64), new_rows, pred)


def sse_partial(
    idx: np.ndarray,
    vals: np.ndarray,
    core: np.ndarray,
    factors: list[np.ndarray],
    core_coo: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, int]:
    """Partial sum of squared residuals over a batch (Eq. 6 inner sum).

    A stand-alone prediction pass for a model the caller already has; the
    ALS loops take their error from ``update_rows(...).pred`` instead.
    """
    if len(vals) == 0:
        return 0.0, 0
    if core_coo is not None:
        c_idx, c_vals = core_coo
        pred = delta_mod.predictions_sparse_core(
            c_idx, c_vals, core.shape, factors, idx
        )
    else:
        pred = delta_mod.predictions(core, factors, idx)
    r = vals - pred
    return float(np.dot(r, r)), len(vals)


def rerror_partial(
    idx: np.ndarray,
    vals: np.ndarray,
    core_idx: np.ndarray,
    core_vals: np.ndarray,
    ranks: tuple[int, ...],
    factors: list[np.ndarray],
) -> np.ndarray:
    """Partial R(β) vector (Eq. 14) over a batch of entries.

    With P_{αβ} = Π_n a^(n)_{i_n β_n}, t_{αβ} = G_β P_{αβ} and the residual
    r_α = S_α − X_α of the prediction S_α = Σ_γ t_{αγ}, Eq. 14 reduces to
    R(β) = Σ_α t_{αβ}(2r_α − t_{αβ}) = 2 G_β U_β − G_β² W_β, where
    U_β = Σ_α r_α P_{αβ} and W_β = Σ_α P_{αβ}². Splitting β into the
    leading modes β' and the last mode j, P_{αβ} = K_{αβ'} A_{αj} with K
    the Kronecker rows of modes 0..N−2 and A the mode-(N−1) rows, so
    U = Kᵀ(r∘A) and W = (K∘K)ᵀ(A∘A): two GEMMs per entry chunk, and S
    is one more (K @ G reshaped to J^{N−1} × J_{N−1}). Returns a
    length-|G| array aligned with ``core_vals``.

    Scratch is E_chunk × J^{N−1}. The cost is O(E·Π ranks) whatever |G|
    is: it does not shrink as truncation empties the core. Forming the
    E × |G| products instead was 5-11× slower at N=4, J=10 (fill 100% down
    to 17%) and 13× down to 1.8× slower at N=3, J=10 (fill 100% down to
    11%), but 2× faster at N=3 and 4.6% fill.
    """
    if len(vals) == 0 or len(core_vals) == 0:
        return np.zeros(len(core_vals), dtype=np.float64)
    last = len(ranks) - 1
    flat_pos = np.ravel_multi_index(tuple(core_idx.T), ranks)
    g_flat = np.zeros(int(np.prod(ranks)), dtype=np.float64)
    g_flat[flat_pos] = core_vals
    g_mat = g_flat.reshape(-1, ranks[last])
    u = np.zeros_like(g_mat)
    w = np.zeros_like(g_mat)
    e_chunk = delta_mod.chunk_rows(ranks, last)
    for es in range(0, len(vals), e_chunk):
        e = slice(es, min(es + e_chunk, len(vals)))
        k = delta_mod.full_product_block(factors, idx[e], ranks[:last])
        a = factors[last][idx[e, last]]
        s = np.einsum("ej,ej->e", k @ g_mat, a)  # Eq. 5, current core
        u += k.T @ ((s - vals[e])[:, None] * a)
        w += np.square(k, out=k).T @ (a * a)  # k is spent: square in place
    u, w = u.ravel()[flat_pos], w.ravel()[flat_pos]
    return 2.0 * core_vals * u - core_vals * core_vals * w
