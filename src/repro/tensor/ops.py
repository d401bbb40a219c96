"""Dense/sparse tensor operations used by Tucker algorithms.

These are the substrate operations from Section II-B of the paper:
matricization index math (Definition 2), the n-mode product
(Definition 3), plus the TTMc (tensor-times-matrix chain) kernels the
HOOI-family baselines are built on.
"""
from __future__ import annotations

import numpy as np


def matricization_col_index(
    idx: np.ndarray, shape: tuple[int, ...], mode: int
) -> np.ndarray:
    """Column index of each entry in the mode-n unfolding X_(n).

    Implements Definition 2 (Eq. 2) with 0-based indices: for an entry
    (i_1, ..., i_N), the unfolding column is
    ``j = sum_{k != n} i_k * prod_{m < k, m != n} I_m``.

    Args:
        idx:   (E, N) int array of entry indices.
        shape: tensor dimensionality.
        mode:  the unfolding mode n.

    Returns:
        (E,) int64 array of column positions in X_(n).
    """
    n_modes = len(shape)
    j = np.zeros(len(idx), dtype=np.int64)
    stride = 1
    for k in range(n_modes):
        if k == mode:
            continue
        j += idx[:, k].astype(np.int64) * stride
        stride *= shape[k]
    return j


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Dense mode-n matricization X_(n) with the paper's Eq. 2 layout.

    Column j enumerates the remaining modes with the *lowest* remaining
    mode varying fastest (Fortran raveling of the non-``mode`` axes), so
    dense unfolds line up with :func:`matricization_col_index` on COO data.
    """
    moved = np.moveaxis(tensor, mode, 0)
    return moved.reshape(tensor.shape[mode], -1, order="F")


def fold(mat: np.ndarray, shape: tuple[int, ...], mode: int) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the dense tensor from X_(mode).

    A Fortran reshape is the exact inverse of the Fortran reshape in
    :func:`unfold` (axis 0 fastest, then remaining axes in increasing
    original order), after which the mode axis is moved back into place.
    """
    rest = [shape[k] for k in range(len(shape)) if k != mode]
    moved = mat.reshape([shape[mode]] + rest, order="F")
    return np.moveaxis(moved, 0, mode)


def mode_n_product(tensor: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Dense n-mode product ``tensor ×_mode mat`` (Definition 3).

    ``mat`` has shape (J, I_mode); the result replaces axis ``mode`` of
    ``tensor`` (length I_mode) with length J.
    """
    if mat.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"mode-{mode} product shape mismatch: tensor {tensor.shape}, mat {mat.shape}"
        )
    moved = np.moveaxis(tensor, mode, 0)
    out = np.tensordot(mat, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, mode)


def multi_mode_product(
    tensor: np.ndarray, mats: list[np.ndarray | None]
) -> np.ndarray:
    """Apply ``tensor ×_n mats[n]`` for every non-None entry of ``mats``."""
    out = tensor
    for n, m in enumerate(mats):
        if m is not None:
            out = mode_n_product(out, m, n)
    return out


def kron_rows(rows: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of a list of vectors, ordered so that the result
    is indexed consistently with :func:`matricization_col_index`.

    ``matricization_col_index`` lays out the skipped-mode indices with the
    *lowest* remaining mode varying fastest, so the Kronecker chain must
    fold in reverse: kron(rows[-1], ..., kron(rows[1], rows[0])).
    """
    out = rows[0]
    for r in rows[1:]:
        out = np.kron(r, out)
    return out


def ttmc_dense(
    idx: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, ...],
    factors: list[np.ndarray],
    mode: int,
) -> np.ndarray:
    """Materialized TTMc: Y_(mode) = X_(mode) · (⊗_{k != mode} A^(k)).

    This is the intermediate-data-explosion object of Algorithm 1 lines
    4-5: a dense (I_mode × Π_{k != mode} J_k) matrix. Each observed entry
    contributes ``val * ⊗_{k != mode} A^(k)[i_k]`` to row ``i_mode``.

    Missing entries are implicitly zero — exactly the accuracy flaw of the
    HOOI family this paper targets.
    """
    n_modes = len(shape)
    rest = [k for k in range(n_modes) if k != mode]
    k_cols = int(np.prod([factors[k].shape[1] for k in rest])) if rest else 1
    out = np.zeros((shape[mode], k_cols), dtype=np.float64)
    # Chunk entries to bound the (E_chunk x K) scratch matrix.
    chunk = max(1, int(4_000_000 // max(1, k_cols)))
    for s in range(0, len(vals), chunk):
        e = slice(s, s + chunk)
        block = None
        for k in rest:  # lowest remaining mode must vary fastest (Eq. 2)
            rows_k = factors[k][idx[e, k]]
            if block is None:
                block = rows_k
            else:
                # block (E, B), rows_k (E, Jk) -> (E, Jk*B): the new,
                # higher mode k becomes the slow axis, keeping the lowest
                # mode fastest as in matricization_col_index.
                block = (rows_k[:, :, None] * block[:, None, :]).reshape(
                    len(rows_k), -1
                )
        if block is None:
            block = np.ones((len(vals[e]), 1))
        np.add.at(out, idx[e, mode], vals[e, None] * block)
    return out


def reconstruct_dense(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Full Tucker reconstruction  G ×_1 A^(1) ... ×_N A^(N)  (Eq. 5, dense)."""
    return multi_mode_product(core, list(factors))
