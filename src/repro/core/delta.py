"""δ kernels: the per-entry core/factor contraction of Eq. 13.

For an observed entry α = (i_1, ..., i_N) and mode n,
``δ^(n)_α(j) = Σ_{β ∈ G : β_n = j} G_β · Π_{k≠n} a^(k)_{i_k β_k}`` —
a length-J_n vector. Batched over E entries this is the dominant cost of
P-Tucker (Theorem 3), so three vectorized paths are provided:

* ``delta_dense``  — stepwise contraction of a dense core: one GEMM for
  the first other mode, then one einsum per further mode; peak scratch is
  E_chunk × J^{N-1} (chunked). The default P-Tucker variant, and Approx
  on its zero-filled core until the fill drops below
  ``approx.SPARSE_CORE_THRESHOLD``.
* ``delta_sparse`` — COO loop over core non-zeros for the truncated core
  of P-Tucker-Approx; cost scales with |G| as in Theorem 7, but with
  E × |G| scratch and larger constants, so it wins only at ≈1% fill.
* ``delta_from_pres`` — P-Tucker-Cache's divide-out of the memoized
  per-(entry, core-entry) products (Algorithm 3 line 12), with the
  paper's fallback to a fresh product where the old factor value is ~0.
"""
from __future__ import annotations

import numpy as np

# Cap on elements of one scratch array (E_chunk * J^{N-1} doubles, 4 MiB).
# Small enough that glibc serves each chunk from freed heap and a Spark
# worker's peak RSS is its live set: with 32 MB chunks the free heap that
# glibc keeps between tasks, and so the peak, depended on which tasks a
# worker had run before (benchmark movielens-approx, 4-core host, Spark
# local[4]: 179-196 MiB across seeds, 131-133 MiB with this cap). GEMM and
# einsum run no slower on the shorter chunks.
_SCRATCH_ELEMS = 1 << 19


def chunk_rows(core_shape: tuple[int, ...], mode: int) -> int:
    """Entries per chunk so that an E_chunk × |G|/J_mode scratch stays
    within ``_SCRATCH_ELEMS``."""
    rest = int(np.prod(core_shape)) // core_shape[mode]
    return max(1, _SCRATCH_ELEMS // max(1, rest))


def _bucket_columns(
    terms: np.ndarray, j_of_col: np.ndarray, n_buckets: int
) -> np.ndarray:
    """Sum the columns of ``terms`` (E, C) into ``n_buckets`` buckets given
    each column's bucket id — one sorted ``reduceat`` instead of a masked
    sum per bucket (which would cost an extra factor of n_buckets)."""
    out = np.zeros((len(terms), n_buckets), dtype=np.float64)
    if terms.shape[1] == 0:
        return out
    order = np.argsort(j_of_col, kind="stable")
    sorted_terms = terms[:, order]
    sorted_j = j_of_col[order]
    uniq, starts = np.unique(sorted_j, return_index=True)
    sums = np.add.reduceat(sorted_terms, starts, axis=1)
    out[:, uniq] = sums
    return out


def delta_dense(
    core: np.ndarray,
    factors: list[np.ndarray],
    idx: np.ndarray,
    mode: int,
) -> np.ndarray:
    """δ^(mode) for a batch of entries against a dense core.

    Args:
        core:    dense core tensor (J_1 × ... × J_N).
        factors: factor matrices A^(k), k = 1..N (A^(mode) is unused).
        idx:     (E, N) entry indices.
        mode:    the mode being updated.

    Returns:
        (E, J_mode) array of δ vectors.
    """
    n_modes = core.ndim
    order = [k for k in range(n_modes) if k != mode]
    # axes: order..., mode(last). Contiguous, so the first contraction is
    # one GEMM against a (J_first, |G|/J_first) view of it.
    moved = np.ascontiguousarray(np.moveaxis(core, mode, -1))
    first = moved.reshape(core.shape[order[0]], -1)
    out = np.empty((len(idx), core.shape[mode]), dtype=np.float64)
    chunk = chunk_rows(core.shape, mode)
    for s in range(0, len(idx), chunk):
        e = slice(s, min(s + chunk, len(idx)))
        t = (factors[order[0]][idx[e, order[0]]] @ first).reshape(
            -1, *moved.shape[1:]
        )
        for k in order[1:]:
            t = np.einsum("ea...,ea->e...", t, factors[k][idx[e, k]])
        out[e] = t
    return out


def delta_sparse(
    core_idx: np.ndarray,
    core_vals: np.ndarray,
    rank_mode: int,
    factors: list[np.ndarray],
    idx: np.ndarray,
    mode: int,
) -> np.ndarray:
    """δ^(mode) against a COO core (P-Tucker-Approx after truncation).

    Args:
        core_idx:  (|G|, N) core entry indices β.
        core_vals: (|G|,) core values G_β.
        rank_mode: J_mode (needed because truncation may empty a slice).
        factors:   factor matrices.
        idx:       (E, N) entry indices.
        mode:      the mode being updated.
    """
    n_modes = core_idx.shape[1]
    e_total = len(idx)
    out = np.zeros((e_total, rank_mode), dtype=np.float64)
    if len(core_vals) == 0:
        return out
    g_total = len(core_vals)
    # Scratch is (E_chunk x G_chunk); bound both.
    g_chunk = min(g_total, 4096)
    e_chunk = max(1, _SCRATCH_ELEMS // g_chunk)
    for gs in range(0, g_total, g_chunk):
        g = slice(gs, min(gs + g_chunk, g_total))
        c_idx = core_idx[g]
        c_val = core_vals[g]
        j_mode = c_idx[:, mode]
        for es in range(0, e_total, e_chunk):
            e = slice(es, min(es + e_chunk, e_total))
            prod = np.broadcast_to(c_val, (e.stop - e.start, len(c_val))).copy()
            for k in range(n_modes):
                if k == mode:
                    continue
                prod *= factors[k][idx[e, k][:, None], c_idx[None, :, k]]
            out[e] += _bucket_columns(prod, j_mode, rank_mode)
    return out


def full_product_block(
    factors: list[np.ndarray], idx: np.ndarray, ranks: tuple[int, ...]
) -> np.ndarray:
    """(E, Π ranks) matrix of Π_n a^(n)_{i_n j_n} over every core cell.

    Columns are C-order flattened (last mode fastest), matching
    ``np.ravel_multi_index`` and ``core.ravel()``. Built by progressive
    outer products, so the multiply count is ~E·|G|·J/(J−1) — about N×
    cheaper than forming each cell's N-factor product independently.
    """
    block: np.ndarray | None = None
    for k in range(len(ranks)):
        rows_k = factors[k][idx[:, k]]
        if block is None:
            block = rows_k
        else:
            block = (block[:, :, None] * rows_k[:, None, :]).reshape(
                len(idx), -1
            )
    return block


def flat_core_mode_indices(core_shape: tuple[int, ...]) -> np.ndarray:
    """(N, |G|) table: mode-k index of each core entry in C-order raveling.

    Used by the cache variant to address the Pres table, whose β axis is
    the C-order flattening of the dense core.
    """
    grids = np.indices(core_shape).reshape(len(core_shape), -1)
    return grids.astype(np.int64)


def compute_pres(
    core: np.ndarray,
    factors: list[np.ndarray],
    idx: np.ndarray,
) -> np.ndarray:
    """Pres[α][β] = G_β · Π_k a^(k)_{i_k β_k} (Algorithm 3 lines 2-4).

    Returns an (E, |G|) table — deliberately the memory-hungry object of
    P-Tucker-Cache (Theorem 6).
    """
    jmap = flat_core_mode_indices(core.shape)
    pres = np.broadcast_to(core.ravel(), (len(idx), core.size)).copy()
    for k in range(core.ndim):
        pres *= factors[k][idx[:, k][:, None], jmap[k][None, :]]
    return pres


def delta_from_pres(
    pres: np.ndarray,
    core: np.ndarray,
    factors: list[np.ndarray],
    idx: np.ndarray,
    mode: int,
    eps: float = 1e-12,
) -> np.ndarray:
    """δ^(mode) recovered from the cache table by dividing out a^(mode).

    Where |a^(mode)_{i_mode j}| <= eps the division is ill-posed; those
    (entry, core-entry) pairs fall back to the direct product, exactly as
    Algorithm 3 line 12's caveat prescribes.
    """
    jmap = flat_core_mode_indices(core.shape)
    a_mode = factors[mode][idx[:, mode][:, None], jmap[mode][None, :]]  # (E,|G|)
    safe = np.abs(a_mode) > eps
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(safe, pres / a_mode, 0.0)
    if not safe.all():
        # Recompute the unsafe pairs from scratch: G_β Π_{k≠mode} a.
        unsafe_e, unsafe_b = np.nonzero(~safe)
        fresh = core.ravel()[unsafe_b].copy()
        for k in range(core.ndim):
            if k == mode:
                continue
            fresh *= factors[k][idx[unsafe_e, k], jmap[k][unsafe_b]]
        terms[unsafe_e, unsafe_b] = fresh
    # Segment-sum β by its mode index into δ columns.
    return _bucket_columns(terms, jmap[mode], core.shape[mode])


def rescale_pres(
    pres: np.ndarray,
    core: np.ndarray,
    factors_new: list[np.ndarray],
    old_a_mode: np.ndarray,
    idx: np.ndarray,
    mode: int,
    eps: float = 1e-12,
) -> np.ndarray:
    """Pres ← Pres · a_new/a_old after A^(mode) changed (Alg. 3 lines 17-19).

    Pairs whose old factor value is ~0 are rebuilt from the full product
    with the *new* factors (the paper's zero-guard).
    """
    jmap = flat_core_mode_indices(core.shape)
    old = old_a_mode[idx[:, mode][:, None], jmap[mode][None, :]]
    new = factors_new[mode][idx[:, mode][:, None], jmap[mode][None, :]]
    safe = np.abs(old) > eps
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(safe, pres * (new / old), 0.0)
    if not safe.all():
        unsafe_e, unsafe_b = np.nonzero(~safe)
        fresh = core.ravel()[unsafe_b].copy()
        for k in range(core.ndim):
            fresh *= factors_new[k][idx[unsafe_e, k], jmap[k][unsafe_b]]
        out[unsafe_e, unsafe_b] = fresh
    return out


def predictions(
    core: np.ndarray,
    factors: list[np.ndarray],
    idx: np.ndarray,
) -> np.ndarray:
    """Model value X̂_α (Eq. 5) for a batch of entries.

    Computed as δ^(0)_α · a^(0)_{i_0}: the full contraction reuses the
    mode-0 δ kernel rather than a separate code path.
    """
    if len(idx) == 0:
        return np.zeros(0, dtype=np.float64)
    d0 = delta_dense(core, factors, idx, mode=0)
    return np.einsum("ej,ej->e", d0, factors[0][idx[:, 0]])


def predictions_sparse_core(
    core_idx: np.ndarray,
    core_vals: np.ndarray,
    ranks: tuple[int, ...],
    factors: list[np.ndarray],
    idx: np.ndarray,
) -> np.ndarray:
    """Eq. 5 predictions against a truncated COO core."""
    if len(idx) == 0:
        return np.zeros(0, dtype=np.float64)
    d0 = delta_sparse(core_idx, core_vals, ranks[0], factors, idx, mode=0)
    return np.einsum("ej,ej->e", d0, factors[0][idx[:, 0]])
