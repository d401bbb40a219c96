"""P-Tucker on Spark: fully parallel row-wise ALS (Algorithms 2-3).

The sparse tensor lives in Spark as N persisted views, view ``n`` hash-
partitioned by the mode-n index (``ModePartitionedTensor``). One mode
update is a single ``mapInPandas`` action over view ``n``: each partition
owns complete row groups Ω^(n)_{i_n}, vectorizes the δ/B/c accumulation
with NumPy, solves the (B+λI) systems for its rows, and emits
``(i_n, new_row)``. The driver collects the (small) row table, assembles
the new A^(n), and broadcasts the refreshed model state for the next
mode — mirroring the paper's thread-parallel row distribution with Spark
partitions as the unit of parallelism.

The last mode's tasks also compute the iteration's reconstruction error
(and, for Approx, R(β)) on their freshly updated rows, so an iteration
is exactly N Spark actions. ``spark_sse``/``spark_rerror`` are the same
reductions as stand-alone passes over any view.
"""
from __future__ import annotations

import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.approx import (
    dense_core_from_coo,
    full_core_coo,
    truncate_core,
    use_sparse_core,
)
from repro.core.config import PTuckerConfig, PTuckerResult, converged
from repro.core.row_update import rerror_partial, sse_partial, update_rows
from repro.tensor.linalg import init_factors, qr_orthogonalize
from repro.tensor.spark_tensor import ModePartitionedTensor, entry_columns

_PASS_SCHEMA = "i long, row array<double>, sse double, r array<double>"
_SSE_SCHEMA = "sse double, cnt long"


def _collect_idx_vals(
    pdfs: Iterator[pd.DataFrame], order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a partition's Arrow batches into COO arrays."""
    frames = list(pdfs)
    if not frames:
        return np.zeros((0, order), np.int64), np.zeros(0, np.float64)
    pdf = pd.concat(frames, ignore_index=True)
    idx = np.stack(
        [pdf[c].to_numpy(np.int64) for c in entry_columns(order)], axis=1
    )
    return idx, pdf["val"].to_numpy(np.float64)


def records(schema: str, n: int, **data) -> pd.DataFrame:
    """``n`` records of the DDL ``schema``: ``data``'s columns set, the others null.

    A fused pass emits several kinds of record under one nullable schema;
    which columns are set tells the kinds apart.
    """
    names = [field.split()[0] for field in schema.split(",")]
    return pd.DataFrame({c: data.get(c, [None] * n) for c in names})


def split_records(out: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(row records, stats records) of a collected fused pass."""
    stats = out["row"].isna()
    return out[~stats], out[stats]


def local_factors(factors: list[np.ndarray], mode: int, upd) -> list[np.ndarray]:
    """``factors`` with a task's new rows of A^(mode) written in.

    A task's entries index only the mode-``mode`` rows it owns, so the
    other partitions' stale rows of the copy are never read.
    """
    a = factors[mode].copy()
    a[upd.indices] = upd.rows
    return [a if k == mode else f for k, f in enumerate(factors)]


def _mode_update_pass(
    view: DataFrame,
    bc,
    mode: int,
    lam: float,
    order: int,
) -> pd.DataFrame:
    """One mode update as one Spark action over the view partitioned by ``mode``.

    Each task solves its rows and emits ``(i, row)`` records. In the last
    mode it then emits one stats record: its partial SSE (Eq. 6) and, when
    a COO core is broadcast for it, its partial R(β) (Eq. 14), both on the
    factors with its new rows written in. Empty partitions emit nothing,
    which the driver's sums count as zero.
    """
    last = mode == order - 1

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals = _collect_idx_vals(pdfs, order)
        if len(vals) == 0:
            return  # empty partition: emit no batch (Arrow cannot type it)
        core, factors, core_coo, rerror_core = bc.value
        upd = update_rows(
            idx, vals, core, factors, mode, lam, core_coo=core_coo
        )
        yield records(
            _PASS_SCHEMA, len(upd.indices), i=upd.indices, row=list(upd.rows)
        )
        if not last:
            return
        local = local_factors(factors, mode, upd)
        sse, _ = sse_partial(idx, vals, core, local, core_coo=core_coo)
        r = None
        if rerror_core is not None:
            r = rerror_partial(idx, vals, *rerror_core, core.shape, local)
        yield records(_PASS_SCHEMA, 1, sse=[sse], r=[r])

    return view.mapInPandas(run, schema=_PASS_SCHEMA).toPandas()


def assemble_factor(
    collected: pd.DataFrame, dim: int, rank: int
) -> np.ndarray:
    """Driver-side assembly of A^(n) from collected (i, row) pairs.

    Unobserved rows stay zero, matching Eq. 10 with B = c = 0.
    """
    out = np.zeros((dim, rank), dtype=np.float64)
    if len(collected):
        out[collected["i"].to_numpy(np.int64)] = np.stack(
            collected["row"].to_numpy()
        )
    return out


def spark_sse(view: DataFrame, bc, order: int) -> float:
    """Distributed Eq. 6: Σ (X_α − X̂_α)² over observed entries."""

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals = _collect_idx_vals(pdfs, order)
        core, factors, core_coo = bc.value
        sse, cnt = sse_partial(idx, vals, core, factors, core_coo=core_coo)
        yield pd.DataFrame({"sse": [sse], "cnt": [cnt]})

    parts = view.mapInPandas(run, schema=_SSE_SCHEMA).toPandas()
    return float(parts["sse"].sum())


def spark_rerror(view: DataFrame, bc_rerror, order: int, ranks) -> np.ndarray:
    """Distributed Eq. 14: sum of per-partition partial R(β) vectors.

    ``bc_rerror`` broadcasts (factors, core_idx, core_vals): R(β) always
    needs the COO core, independent of which δ kernel the update passes
    are currently using.
    """

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals = _collect_idx_vals(pdfs, order)
        factors, c_idx, c_vals = bc_rerror.value
        r = rerror_partial(idx, vals, c_idx, c_vals, tuple(ranks), factors)
        yield pd.DataFrame({"r": [r]})

    parts = view.mapInPandas(run, schema="r array<double>").toPandas()
    if not len(parts):
        return np.zeros(0)
    return np.sum(np.stack(parts["r"].to_numpy()), axis=0)


def factorize(
    spark: SparkSession,
    entries: DataFrame | ModePartitionedTensor,
    shape: tuple[int, ...],
    cfg: PTuckerConfig,
) -> PTuckerResult:
    """Run P-Tucker (default or approx variant) on Spark.

    The cache variant has its own entry point
    (:func:`repro.core.cache.factorize_cache`) because the Pres table is a
    DataFrame column there, not broadcast state. A view set built here from
    a raw DataFrame is released on every exit, a raising pass included.
    """
    if cfg.variant == "cache":
        from repro.core.cache import factorize_cache

        return factorize_cache(spark, entries, shape, cfg)

    owns_mpt = not isinstance(entries, ModePartitionedTensor)
    mpt = (
        ModePartitionedTensor(entries, shape, cfg.partitions)
        if owns_mpt
        else entries
    )
    try:
        return _als(spark.sparkContext, mpt, shape, cfg)
    finally:
        if owns_mpt:
            mpt.unpersist()


def _als(
    sc, mpt: ModePartitionedTensor, shape, cfg: PTuckerConfig
) -> PTuckerResult:
    """The ALS loop: N single-action mode updates per iteration."""
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
        # core genuinely sparse (same rule as the reference engine).
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
            bc = sc.broadcast((core, factors, coo, rerror_core))
            try:
                out = _mode_update_pass(mpt.view(n), bc, n, cfg.lam, n_modes)
            finally:
                bc.unpersist()
            rows, stats = split_records(out)
            factors[n] = assemble_factor(rows, shape[n], cfg.ranks[n])
        # Error of the model before this iteration's truncation (Eq. 6).
        result.errors.append(float(np.sqrt(stats["sse"].sum())))
        if cfg.variant == "approx":
            rerr = sum(stats["r"], np.zeros(len(core_vals)))
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
