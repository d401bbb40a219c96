"""Shared machinery for the HOOI-family competitor baselines.

All three competitors (Tucker-ALS/HOOI, Tucker-CSF, S-HOT_scan) update
A^(n) as the J_n leading left singular vectors of the mode-n TTMc
Y_(n) = X ×_{k≠n} A^(k)T (Algorithm 1 lines 4-5), treating missing
entries as zeros — the accuracy flaw P-Tucker removes. They share one
Y-row kernel (``y_windows``) and one pass pair (``gram_pass``,
``rows_pass``), and differ only in how many rows of Y_(n) exist at once,
which is exactly the memory story of Table III:

* HOOI collects the full dense Y_(n) (I_n × J^{N-1}) on the driver —
  the intermediate-data-explosion object — and takes its SVD there;
* Tucker-CSF materializes all of each partition's local rows of Y_(n);
* S-HOT_scan streams 256-row windows, keeping O(J^{2(N-1)}) state.

CSF and S-HOT obtain the left singular vectors from the K×K Gram Y^T Y
(K = Π_{k≠n} J_k is small), so no I_n×I_n object ever exists:
eig(Gram) → V, then U = Y V Σ^{-1} row-by-row (``gram_update``).

A ``SimulatedOOM`` budget stands in for the paper's 512 GB machine: a
baseline whose intermediate data would exceed the budget raises instead
of thrashing this container (see DESIGN.md substitutions).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark import RDD

from repro.core.config import PTuckerResult, converged
from repro.core.delta import full_product_block
from repro.core.metrics import spark_reconstruction_error
from repro.core.row_update import check_entries
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    assemble_factor,
    mode_blocks,
    run_pass,
)

# Cap on elements of one Kronecker scratch block (entry chunk × columns).
_KRON_ELEMS = 4_000_000


class SimulatedOOM(MemoryError):
    """Raised when a baseline's intermediate data exceeds the memory budget.

    Stands in for the paper's O.O.M. outcomes (Figs 6, 7, 11) in a way
    that is deterministic and doesn't take down the test box.
    """


def ensure_budget(nbytes: int, budget: int | None, what: str) -> None:
    """Raise SimulatedOOM if ``what`` would need more than ``budget`` bytes."""
    if budget is not None and nbytes > budget:
        raise SimulatedOOM(
            f"{what} needs {nbytes / 1e9:.2f} GB > budget {budget / 1e9:.2f} GB"
        )


def y_cols(factors: list[np.ndarray], mode: int) -> int:
    """K = Π_{k≠mode} J_k, the column count of Y_(mode)."""
    return int(np.prod([f.shape[1] for k, f in enumerate(factors) if k != mode]))


def y_windows(idx, vals, factors, mode, window: int | None):
    """Dense rows of Y_(mode) for one partition, ``window`` rows at a time.

    Yields (sorted row ids, Y rows) per window, or one pair holding every
    row when ``window`` is None; only one window exists at a time. idx/vals
    must hold every entry of those rows (guaranteed when the data is
    hash-partitioned by the mode index). Each entry adds
    val · ⊗_k A^(k)[i_k], built by ``full_product_block`` over the other
    modes in reversed order, so the lowest remaining mode varies fastest:
    Eq. 2's column layout. Entries go through in chunks whose Kronecker
    scratch stays within ``_KRON_ELEMS`` doubles.
    """
    rest = [k for k in reversed(range(len(factors))) if k != mode]
    ranks = tuple(factors[k].shape[1] for k in rest)
    rest_factors = [factors[k] for k in rest]
    perm = np.argsort(idx[:, mode], kind="stable")
    uniq, starts, pos = np.unique(
        idx[perm, mode], return_index=True, return_inverse=True
    )
    bounds = np.append(starts, len(perm))
    r_idx, r_vals = idx[np.ix_(perm, rest)], vals[perm]
    k_cols = y_cols(factors, mode)
    chunk = max(1, _KRON_ELEMS // k_cols)
    step = window or len(uniq)
    for rs in range(0, len(uniq), step):
        re = min(rs + step, len(uniq))
        rows = np.zeros((re - rs, k_cols))
        for s in range(bounds[rs], bounds[re], chunk):
            e = slice(s, min(s + chunk, bounds[re]))
            block = full_product_block(rest_factors, r_idx[e], ranks)
            np.add.at(rows, pos[e] - rs, r_vals[e, None] * block)
        yield uniq[rs:re], rows


def gram_pass(blocks, factors, mode, window) -> np.ndarray:
    """Pass 1: Gram(Y_(mode)) = Σ_rows y yᵀ, accumulated per ``y_windows``
    window and summed over partitions."""
    k_cols = y_cols(factors, mode)

    def task(f, idx, vals):
        check_entries(idx, vals, f)
        gram = np.zeros((k_cols, k_cols))
        for _, rows in y_windows(idx, vals, f, mode, window):
            gram += rows.T @ rows
        return gram

    return sum(run_pass(blocks, factors, task), np.zeros((k_cols, k_cols)))


def rows_pass(blocks, factors, mode, window, proj) -> list:
    """Pass 2: ``(row ids, rows of Y_(mode) · proj)`` per partition, one row
    per observed index."""

    def task(state, idx, vals):
        f, p = state
        check_entries(idx, vals, f)
        wins = [(i, rows @ p) for i, rows in y_windows(idx, vals, f, mode, window)]
        return tuple(map(np.concatenate, zip(*wins)))

    return run_pass(blocks, (factors, proj), task)


def gram_update(blocks, factors, mode, dim, rank, window) -> np.ndarray:
    """New A^(mode) = Y V Σ^{-1} from eig(Gram(Y_(mode))), in two passes."""
    gram = gram_pass(blocks, factors, mode, window)
    v, inv_sigma = leading_left_factor_from_gram(gram, rank)
    rows = rows_pass(blocks, factors, mode, window, v * inv_sigma[None, :])
    return assemble_factor(rows, dim, rank)


def leading_left_factor_from_gram(
    gram: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` eigenpairs of the K×K Gram, for U = Y V Σ^{-1}.

    Returns (V, inv_sigma): V (K, rank) orthonormal, inv_sigma (rank,)
    with zeros where the spectrum is (numerically) null.
    """
    w, v = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1][:rank]
    w_top = np.clip(w[order], 0.0, None)
    sigma = np.sqrt(w_top)
    inv_sigma = np.where(sigma > 1e-12, 1.0 / np.maximum(sigma, 1e-300), 0.0)
    return v[:, order], inv_sigma


def spark_core_update(
    blocks: RDD, factors: list[np.ndarray], ranks: tuple[int, ...]
) -> np.ndarray:
    """Distributed Algorithm 1 line 7: G = X ×_1 A^(1)T ... ×_N A^(N)T.

    Each partition accumulates Σ val · ⊗_n A^(n)[i_n] into a local J^N
    array (C-order: mode N-1 fastest); partials are summed on the driver.
    """
    k_total = int(np.prod(ranks))
    chunk = max(1, _KRON_ELEMS // k_total)

    def task(f, idx, vals):
        check_entries(idx, vals, f)
        acc = np.zeros(k_total)
        for s in range(0, len(vals), chunk):
            e = slice(s, min(s + chunk, len(vals)))
            block = full_product_block(f, idx[e], ranks)
            acc += (vals[e, None] * block).sum(axis=0)
        return acc

    return sum(run_pass(blocks, factors, task), np.zeros(k_total)).reshape(ranks)


def hooi_family_loop(
    mpt: ModePartitionedTensor,
    ranks: tuple[int, ...],
    mode_updater,
    max_iters: int,
    tol: float,
    seed: int,
):
    """Shared Algorithm-1 outer loop for the HOOI-family baselines.

    ``mode_updater(n, blocks, factors) -> new A^(n)`` supplies the
    per-method TTMc+SVD step over the blocks of the mode-n view of the
    caller's ``mpt``. Per iteration the core is recomputed (line 7) and
    the observed-entry reconstruction error (Eq. 6) recorded so speed and
    accuracy are measured exactly as for P-Tucker. The run's blocks are
    released on exit, also when a pass raises.
    """
    shape = mpt.shape
    factors = init_orthonormal_factors(shape, ranks, seed)
    core = np.zeros(ranks)
    result = PTuckerResult(factors=factors, core=core)
    with mode_blocks(mpt) as blocks:
        for _ in range(max_iters):
            t0 = time.perf_counter()
            for n in range(len(shape)):
                factors[n] = mode_updater(n, blocks(n), factors)
            core = spark_core_update(blocks(0), factors, ranks)
            err = spark_reconstruction_error(blocks(0), core, factors)
            result.errors.append(err)
            result.core_nnz_history.append(core.size)
            result.iter_times.append(time.perf_counter() - t0)
            if converged(result.errors, tol):
                result.converged = True
                break
    result.factors, result.core = factors, core
    return result


def init_orthonormal_factors(
    shape: tuple[int, ...], ranks: tuple[int, ...], seed: int
) -> list[np.ndarray]:
    """Random column-orthonormal starting factors for the HOOI family."""
    g = np.random.default_rng(seed)
    out = []
    for i, j in zip(shape, ranks):
        a = g.standard_normal((i, j))
        q, _ = np.linalg.qr(a)
        out.append(q[:, :j])
    return out
