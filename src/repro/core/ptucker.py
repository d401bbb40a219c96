"""P-Tucker on Spark: fully parallel row-wise ALS (Algorithms 2-3).

The sparse tensor lives in Spark as N persisted views, view ``n`` hash-
partitioned by the mode-n index, in a ``ModePartitionedTensor`` that the
caller builds, with its partition count, and releases; a run reads the
views as persisted NumPy blocks (``spark_tensor.mode_blocks``). One mode
update is a single ``run_pass`` action over the blocks of view ``n``:
each partition owns complete row groups Ω^(n)_{i_n}, vectorizes the
δ/B/c accumulation with NumPy, solves the (B+λI) systems for its rows,
and returns ``(indices, rows)``. The driver collects these (small)
tuples, assembles the new A^(n), and broadcasts the refreshed model
state for the next mode — mirroring the paper's thread-parallel row
distribution with Spark partitions as the unit of parallelism.

Every engine runs the one ALS loop ``_als``, which differs between them
only in the per-mode step that turns the model state into the collected
tuples: ``_update_passes`` (default and Approx: δ from the broadcast
core), ``cache.cache_passes`` (δ from the Pres table the blocks carry),
or ``reference.factorize``'s step, which runs the same task in-process
on one block holding every entry.

The last mode's tasks also compute the iteration's reconstruction error
(from the row update's own δ, X̂_α = δ_α·a_new) and, for Approx, R(β) on
their freshly updated rows, so an iteration is exactly N Spark actions.
``spark_sse``/``spark_rerror`` are the same reductions as stand-alone
passes over any blocks; ``spark_sse`` is also the distributed error of
``metrics.spark_reconstruction_error``.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
from pyspark import RDD
from pyspark.sql import SparkSession

from repro.core.approx import (
    dense_core_from_coo,
    full_core_coo,
    truncate_core,
    use_sparse_core,
)
from repro.core.config import PTuckerConfig, PTuckerResult, converged
from repro.core.row_update import rerror_partial, sse_partial, update_rows
from repro.tensor.linalg import init_factors, qr_orthogonalize
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    assemble_factor,
    block_pass,
    collect,
    mode_blocks,
    run_pass,
)


def local_factors(factors: list[np.ndarray], mode: int, upd) -> list[np.ndarray]:
    """``factors`` with a task's new rows of A^(mode) written in.

    A task's entries index only the mode-``mode`` rows it owns, so the
    other partitions' stale rows of the copy are never read.
    """
    a = factors[mode].copy()
    a[upd.indices] = upd.rows
    return [a if k == mode else f for k, f in enumerate(factors)]


def _update_task(mode: int, lam: float, last: bool):
    """The mode-``mode`` update of one partition.

    The task returns ``(indices, rows, sse, r)``: its solved rows and, in
    the last mode, its partial SSE (Eq. 6), from the predictions the row
    update returns, and, when a COO core is broadcast for it, its partial
    R(β) (Eq. 14) on the factors with its new rows written in.
    """

    def task(state, idx, vals):
        core, factors, core_coo, rerror_core = state
        upd = update_rows(
            idx, vals, core, factors, mode, lam, core_coo=core_coo
        )
        if not last:
            return upd.indices, upd.rows, None, None
        r = None
        if rerror_core is not None:
            local = local_factors(factors, mode, upd)
            r = rerror_partial(idx, vals, *rerror_core, core.shape, local)
        return upd.indices, upd.rows, upd.sse(vals), r

    return task


@contextmanager
def _update_passes(mpt: ModePartitionedTensor, cfg: PTuckerConfig):
    """The default/Approx step: one action over the blocks of view ``n``.

    The run's blocks are released on exit.
    """
    last = mpt.order - 1
    with mode_blocks(mpt) as blocks:

        def step(n: int, state) -> list:
            task = _update_task(n, cfg.lam, n == last)
            return run_pass(blocks(n), state, task)

        yield step


def spark_sse(blocks: RDD, bc) -> float:
    """Distributed Eq. 6: Σ (X_α − X̂_α)² over observed entries.

    ``bc`` broadcasts (core, factors, core_coo).
    """

    def task(state, idx, vals):
        core, factors, core_coo = state
        return sse_partial(idx, vals, core, factors, core_coo=core_coo)[0]

    return float(sum(collect(block_pass(blocks, bc, task))))


def spark_rerror(blocks: RDD, bc_rerror, ranks) -> np.ndarray:
    """Distributed Eq. 14: sum of per-partition partial R(β) vectors.

    ``bc_rerror`` broadcasts (factors, core_idx, core_vals): R(β) always
    needs the COO core, independent of which δ kernel the update passes
    are currently using.
    """

    def task(state, idx, vals):
        factors, c_idx, c_vals = state
        return rerror_partial(idx, vals, c_idx, c_vals, tuple(ranks), factors)

    parts = collect(block_pass(blocks, bc_rerror, task))
    return np.sum(parts, axis=0) if parts else np.zeros(0)


def factorize(
    spark: SparkSession,
    mpt: ModePartitionedTensor,
    shape: tuple[int, ...],
    cfg: PTuckerConfig,
) -> PTuckerResult:
    """Run P-Tucker (default, cache or approx variant) on Spark.

    ``mpt`` is the caller's: its views, and so its partition count, are
    set once when it is built and stay persisted after the run. What a
    variant persists for the run (the view blocks, Cache's Pres-carrying
    outputs) and every broadcast is released on every exit, a raising
    pass included. ``spark`` is unused: the passes reach Spark through
    ``mpt``.
    """
    if cfg.variant == "cache":
        from repro.core.cache import cache_passes as passes
    else:
        passes = _update_passes
    with passes(mpt, cfg) as step:
        return _als(step, shape, cfg)


def _als(step, shape, cfg: PTuckerConfig) -> PTuckerResult:
    """The ALS loop of every engine: N mode updates per iteration.

    ``step(n, state)`` runs mode ``n``'s update on the model state
    (core, factors, core_coo, rerror_core) and returns the collected
    ``(indices, rows, sse, r, ...)`` tuples, one per non-empty partition;
    ``sse`` and ``r`` are set in the last mode only. A Spark step owns the
    broadcast of ``state`` and releases it, a raising pass included.
    """
    n_modes = len(shape)
    factors, core = init_factors(shape, cfg.ranks, cfg.seed)

    core_idx = core_vals = None
    if cfg.variant == "approx":
        core_idx, core_vals = full_core_coo(core)

    result = PTuckerResult(factors=factors, core=core)

    # Never-observed rows need no special handling here: observed entries
    # never index them (so they influence no δ), and assemble_factor
    # rebuilds each A^(n) from zeros, which realizes Eq. 10's B=c=0 ⇒ 0.

    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        # Switch to the COO kernels only once truncation has made the
        # core genuinely sparse.
        coo = None
        if cfg.variant == "approx" and use_sparse_core(
            len(core_vals), core.size
        ):
            coo = (core_idx, core_vals)
        for n in range(n_modes):
            # R(β) always needs the full COO core, whichever δ kernel runs.
            rerror_core = None
            if cfg.variant == "approx" and n == n_modes - 1:
                rerror_core = (core_idx, core_vals)
            out = step(n, (core, factors, coo, rerror_core))
            factors[n] = assemble_factor(out, shape[n], cfg.ranks[n])
        # Error of the model before this iteration's truncation (Eq. 6).
        result.errors.append(float(np.sqrt(sum(o[2] for o in out))))
        if cfg.variant == "approx":
            rerr = sum((o[3] for o in out), np.zeros(len(core_vals)))
            core_idx, core_vals = truncate_core(
                core_idx, core_vals, rerr, cfg.truncation_rate
            )
            core = dense_core_from_coo(core_idx, core_vals, cfg.ranks)
        result.core_nnz_history.append(
            len(core_vals) if core_vals is not None else core.size
        )
        result.iter_times.append(time.perf_counter() - t0)
        if converged(result.errors, cfg.tol):
            result.converged = True
            break

    factors, core = qr_orthogonalize(factors, core)
    result.factors, result.core = factors, core
    return result
