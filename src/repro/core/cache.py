"""P-Tucker-Cache on Spark (Algorithm 3's Pres memoization).

The cache table Pres ∈ R^{|Ω| × |G|} is realized as an ``array<double>``
column of length |G| on the entries DataFrame, so the table is co-
partitioned with the entries it belongs to and moves with them through
each mode's shuffle. A mode update is one Spark action over the entries
partitioned by ``i_n``, and each task does Algorithm 3's per-thread work
for the rows it owns:

1. mode 0 only: compute Pres for its entries (Alg. 3 lines 1-4) — the
   base view is already partitioned by ``i_0``, so this needs no pass of
   its own;
2. update its rows with δ recovered from Pres by dividing out the mode-n
   factor (Alg. 3 line 12);
3. rescale its own Pres entries by ``a_new / a_old`` (Alg. 3 lines
   17-19), rebuilding pairs whose old factor value is ~0. The last mode
   emits its partial SSE (Eq. 6) instead, since no later mode reads Pres.

The task emits its ``(i, row)`` records and its rescaled entries under one
nullable schema. The driver persists that output; the one filtered
``toPandas`` that collects the rows also materializes it, and its entry
records feed the next mode's shuffle. This deliberately materializes and
shuffles the O(|Ω|·J^N) state — the exact time-for-memory trade the paper
measures in Fig. 8.
"""
from __future__ import annotations

import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel

from repro.core import delta as delta_mod
from repro.core.config import PTuckerConfig, PTuckerResult, converged
from repro.core.ptucker import (  # noqa: F401 - perfbench patches cache.spark_sse
    assemble_factor,
    local_factors,
    records,
    spark_sse,
    split_records,
)
from repro.core.row_update import sse_partial, update_rows
from repro.tensor.linalg import init_factors, qr_orthogonalize
from repro.tensor.spark_tensor import ModePartitionedTensor, entry_columns


def _pass_schema(order: int) -> str:
    """Schema of a mode pass's output.

    Entry records set ``i0..``, ``val`` and ``pres``; row records set
    ``i`` and ``row``; the last mode's stats record sets ``sse``. So
    ``i0`` is null exactly on the records the driver collects.
    """
    idx = ", ".join(f"{c} long" for c in entry_columns(order))
    return (
        f"{idx}, val double, pres array<double>, "
        "i long, row array<double>, sse double"
    )


def _collect_with_pres(
    pdfs: Iterator[pd.DataFrame], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A partition's entries as COO arrays, plus Pres if they carry it."""
    frames = list(pdfs)
    if not frames:
        return np.zeros((0, order), np.int64), np.zeros(0, np.float64), None
    pdf = pd.concat(frames, ignore_index=True)
    idx = np.stack(
        [pdf[c].to_numpy(np.int64) for c in entry_columns(order)], axis=1
    )
    vals = pdf["val"].to_numpy(np.float64)
    pres = (
        np.stack(pdf["pres"].to_numpy()) if "pres" in pdf.columns else None
    )
    return idx, vals, pres


def _mode_pass(
    view: DataFrame, bc, mode: int, lam: float, order: int
) -> DataFrame:
    """The fused mode-``mode`` update as a lazy DataFrame of records."""
    schema = _pass_schema(order)
    last = mode == order - 1

    def run(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, vals, pres = _collect_with_pres(pdfs, order)
        if len(vals) == 0:
            return  # empty partition: Arrow cannot type a 0-row batch
        core, factors = bc.value
        if pres is None:
            pres = delta_mod.compute_pres(core, factors, idx)
        upd = update_rows(idx, vals, core, factors, mode, lam, pres=pres)
        yield records(schema, len(upd.indices), i=upd.indices, row=list(upd.rows))
        local = local_factors(factors, mode, upd)
        if last:
            sse, _ = sse_partial(idx, vals, core, local)
            yield records(schema, 1, sse=[sse])
            return
        pres = delta_mod.rescale_pres(pres, core, local, factors[mode], idx, mode)
        entries = {c: idx[:, k] for k, c in enumerate(entry_columns(order))}
        yield records(schema, len(vals), **entries, val=vals, pres=list(pres))

    return view.mapInPandas(run, schema=schema)


def factorize_cache(
    spark: SparkSession,
    entries: DataFrame | ModePartitionedTensor,
    shape: tuple[int, ...],
    cfg: PTuckerConfig,
) -> PTuckerResult:
    """Run P-Tucker-Cache on Spark.

    Everything persisted here (an ``i0``-partitioned base built from a raw
    DataFrame, and each mode's output) is released on every exit, a
    raising pass included.
    """
    n_modes = len(shape)
    order_cols = entry_columns(n_modes)
    sc = spark.sparkContext
    partitions = cfg.partitions or sc.defaultParallelism
    owns_base = not isinstance(entries, ModePartitionedTensor)
    if owns_base:
        base = (
            entries.select(
                *[F.col(c).cast("long") for c in order_cols],
                F.col("val").cast("double"),
            )
            .repartition(partitions, F.col("i0"))
            .persist(StorageLevel.MEMORY_AND_DISK)
        )
    else:
        base = entries.view(0)

    factors, core = init_factors(shape, cfg.ranks, cfg.seed)
    result = PTuckerResult(factors=factors, core=core)
    prev = cur = None  # persisted outputs of the previous and this mode
    try:
        for _ in range(cfg.max_iters):
            t0 = time.perf_counter()
            for n in range(n_modes):
                view = base
                if n > 0:
                    view = (
                        prev.where(F.col("i0").isNotNull())
                        .select(*order_cols, "val", "pres")
                        .repartition(partitions, F.col(f"i{n}"))
                    )
                bc = sc.broadcast((core, factors))
                try:
                    cur = _mode_pass(view, bc, n, cfg.lam, n_modes)
                    if n < n_modes - 1:
                        cur.persist(StorageLevel.MEMORY_AND_DISK)
                    # Collecting the rows also materializes the persisted
                    # entries, so the next mode's shuffle reads the cache.
                    collected = (
                        cur.where(F.col("i0").isNull())
                        .select("i", "row", "sse")
                        .toPandas()
                    )
                finally:
                    bc.unpersist()
                if prev is not None:
                    prev.unpersist()
                prev = cur if n < n_modes - 1 else None
                cur = None
                rows, stats = split_records(collected)
                factors[n] = assemble_factor(rows, shape[n], cfg.ranks[n])

            # --- Reconstruction error (Eq. 6), summed from the last mode. ---
            result.errors.append(float(np.sqrt(stats["sse"].sum())))
            result.core_nnz_history.append(core.size)
            result.iter_times.append(time.perf_counter() - t0)
            if converged(result.errors, cfg.tol):
                result.converged = True
                break
    finally:
        for df in (prev, cur, base if owns_base else None):
            if df is not None:
                df.unpersist()

    factors, core = qr_orthogonalize(factors, core)
    result.factors, result.core = factors, core
    return result


def pres_bytes(nnz: int, ranks: tuple[int, ...]) -> int:
    """Analytic size of the Pres table: |Ω| · |G| · 8 bytes (Theorem 6)."""
    return int(nnz) * int(np.prod(ranks)) * 8


def default_intermediate_bytes(threads: int, max_rank: int) -> int:
    """Analytic intermediate data of default P-Tucker: O(T·J²) (Theorem 4)."""
    return threads * (2 * max_rank * max_rank + 2 * max_rank) * 8
