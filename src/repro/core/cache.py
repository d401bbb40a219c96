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

``cache_passes`` supplies this step to ``ptucker``'s ALS loop, which all
three variants share. The task emits its ``(i, row)`` records and its
rescaled entries under one nullable schema. The Spark driver persists
that output; the one filtered ``toPandas`` that collects the rows also
materializes it, and its entry records feed the next mode's shuffle. This deliberately materializes and
shuffles the O(|Ω|·J^N) state — the exact time-for-memory trade the paper
measures in Fig. 8.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel

from repro.core import delta as delta_mod
from repro.core.config import PTuckerConfig
from repro.core.ptucker import (  # noqa: F401 - perfbench patches these names
    assemble_factor,
    qr_orthogonalize,
    spark_sse,
)
from repro.core.ptucker import local_factors, records
from repro.core.row_update import update_rows
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    entry_columns,
    map_entries,
)


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


def _mode_task(mode: int, lam: float, order: int):
    """The fused mode-``mode`` update of one partition."""
    schema = _pass_schema(order)
    last = mode == order - 1

    def task(state, idx, vals, batch):
        core, factors, _, _ = state
        if "pres" in batch.columns:
            pres = np.stack(batch["pres"].to_numpy())
        else:
            pres = delta_mod.compute_pres(core, factors, idx)
        upd = update_rows(idx, vals, core, factors, mode, lam, pres=pres)
        yield records(schema, len(upd.indices), i=upd.indices, row=list(upd.rows))
        if last:
            yield records(schema, 1, sse=[upd.sse(vals)])
            return
        local = local_factors(factors, mode, upd)
        pres = delta_mod.rescale_pres(pres, core, local, factors[mode], idx, mode)
        entries = {c: idx[:, k] for k, c in enumerate(entry_columns(order))}
        yield records(schema, len(vals), **entries, val=vals, pres=list(pres))

    return task


@contextmanager
def cache_passes(
    entries: DataFrame | ModePartitionedTensor,
    shape: tuple[int, ...],
    cfg: PTuckerConfig,
):
    """The Cache step of ``ptucker``'s ALS loop, as a context manager.

    Mode 0 reads the ``i0``-partitioned base (built and persisted here from
    a raw DataFrame); mode ``n > 0`` reads the previous mode's persisted
    entry records, shuffled by ``i_n``. Everything persisted here is
    released on exit, a raising pass included.
    """
    n_modes = len(shape)
    order_cols = entry_columns(n_modes)
    owns_base = not isinstance(entries, ModePartitionedTensor)
    base = entries if owns_base else entries.view(0)
    sc = base.sparkSession.sparkContext
    partitions = cfg.partitions or sc.defaultParallelism
    if owns_base:
        base = (
            base.select(
                *[F.col(c).cast("long") for c in order_cols],
                F.col("val").cast("double"),
            )
            .repartition(partitions, F.col("i0"))
            .persist(StorageLevel.MEMORY_AND_DISK)
        )
    schema = _pass_schema(n_modes)
    prev = cur = None  # persisted outputs of the previous and this mode

    def step(n: int, bc):
        nonlocal prev, cur
        view = base
        if n > 0:
            view = (
                prev.where(F.col("i0").isNotNull())
                .select(*order_cols, "val", "pres")
                .repartition(partitions, F.col(f"i{n}"))
            )
        cur = map_entries(view, bc, _mode_task(n, cfg.lam, n_modes), schema)
        if n < n_modes - 1:
            cur.persist(StorageLevel.MEMORY_AND_DISK)
        # Collecting the rows also materializes the persisted entries, so
        # the next mode's shuffle reads the cache.
        collected = (
            cur.where(F.col("i0").isNull()).select("i", "row", "sse").toPandas()
        )
        if prev is not None:
            prev.unpersist()
        prev = cur if n < n_modes - 1 else None
        cur = None
        return collected

    try:
        yield step
    finally:
        for df in (prev, cur, base if owns_base else None):
            if df is not None:
                df.unpersist()


def pres_bytes(nnz: int, ranks: tuple[int, ...]) -> int:
    """Analytic size of the Pres table: |Ω| · |G| · 8 bytes (Theorem 6)."""
    return int(nnz) * int(np.prod(ranks)) * 8


def default_intermediate_bytes(threads: int, max_rank: int) -> int:
    """Analytic intermediate data of default P-Tucker: O(T·J²) (Theorem 4)."""
    return threads * (2 * max_rank * max_rank + 2 * max_rank) * 8
