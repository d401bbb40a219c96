"""P-Tucker-Cache on Spark (Algorithm 3's Pres memoization).

The cache table Pres ∈ R^{|Ω| × |G|} travels inside the entry blocks: a
mode-``n`` block is ``(idx, vals, pres)`` for entries partitioned by
``i_n``, so each entry's Pres row moves with it through each mode's
shuffle. A mode update is one Spark action over those blocks, and each
task does Algorithm 3's per-thread work for the rows it owns:

1. mode 0 only: compute Pres for its entries (Alg. 3 lines 1-4) — the
   mode-0 blocks come from the ``i0``-partitioned view, so this needs no
   pass of its own;
2. update its rows with δ recovered from Pres by dividing out the mode-n
   factor (Alg. 3 line 12);
3. rescale its own Pres entries by ``a_new / a_old`` (Alg. 3 lines
   17-19), rebuilding pairs whose old factor value is ~0. The last mode
   returns its partial SSE (Eq. 6) instead, since no later mode reads
   Pres.

``cache_passes`` supplies this step to ``ptucker``'s ALS loop, which
every engine shares; the reference engine runs the same ``_mode_task``
in-process on one block of every entry, carrying its output block into
the next mode. A task returns its ``(indices, rows, sse, r)`` and its
rescaled ``(idx, vals, pres)`` block. The Spark step broadcasts the
model state, persists that output and collects only the row tuples,
which also materializes it; the next mode's job splits each persisted
block by the owner ``i_n mod P`` of its entries, shuffles the pieces
with ``partitionBy`` and concatenates each partition's pieces into one
block. This deliberately materializes and shuffles the O(|Ω|·J^N) state
— the exact time-for-memory trade the paper measures in Fig. 8.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from pyspark import RDD
from pyspark.storagelevel import StorageLevel

from repro.core import delta as delta_mod
from repro.core.config import PTuckerConfig
from repro.core.ptucker import (  # noqa: F401 - perfbench patches these names
    assemble_factor,
    qr_orthogonalize,
    spark_sse,
)
from repro.core.ptucker import local_factors
from repro.core.row_update import update_rows
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    block_pass,
    collect,
    to_blocks,
)


def _mode_task(mode: int, lam: float, last: bool):
    """The fused mode-``mode`` update of one partition."""

    def task(state, idx, vals, pres=None):
        core, factors, _, _ = state
        if pres is None:
            pres = delta_mod.compute_pres(core, factors, idx)
        upd = update_rows(idx, vals, core, factors, mode, lam, pres=pres)
        if last:
            return upd.indices, upd.rows, upd.sse(vals), None, None
        local = local_factors(factors, mode, upd)
        pres = delta_mod.rescale_pres(pres, core, local, factors[mode], idx, mode)
        return upd.indices, upd.rows, None, None, (idx, vals, pres)

    return task


def _reshuffle(out: RDD, mode: int, partitions: int) -> RDD:
    """The entries of ``out`` as one block per non-empty partition of owner
    ``i_mode mod P``, so each block holds complete mode-``mode`` rows."""

    def split(o):
        idx, vals, pres = o[4]
        owner = idx[:, mode] % partitions
        for p in np.unique(owner):
            keep = owner == p
            yield int(p), (idx[keep], vals[keep], pres[keep])

    def merge(pieces):
        blocks = [b for _, b in pieces]
        if blocks:
            yield tuple(np.concatenate(parts) for parts in zip(*blocks))

    return out.flatMap(split).partitionBy(partitions).mapPartitions(merge)


@contextmanager
def cache_passes(mpt: ModePartitionedTensor, cfg: PTuckerConfig):
    """The Cache step of ``ptucker``'s ALS loop, as a context manager.

    Mode 0 reads the blocks of ``mpt``'s ``i0``-partitioned view,
    converted by its first pass and persisted for the run; mode ``n > 0``
    reads the previous mode's persisted output, reshuffled by ``i_n`` into
    the same ``mpt.partitions``. Each step releases its broadcast, and
    everything persisted here is released on exit, a raising pass
    included; the views stay with their owner.
    """
    n_modes, partitions = mpt.order, mpt.partitions
    base = to_blocks(mpt.view(0)).persist(StorageLevel.MEMORY_AND_DISK)
    prev = cur = None  # persisted outputs of the previous and this mode

    def step(n: int, state) -> list:
        nonlocal prev, cur
        blocks = base if n == 0 else _reshuffle(prev, n, partitions)
        last = n == n_modes - 1
        bc = base.context.broadcast(state)
        try:
            cur = block_pass(blocks, bc, _mode_task(n, cfg.lam, last))
            if not last:
                cur.persist(StorageLevel.MEMORY_AND_DISK)
            # Collecting the rows also materializes the persisted blocks,
            # so the next mode's shuffle reads the cache.
            collected = collect(cur.map(lambda o: o[:4]))
        finally:
            bc.unpersist()
        if prev is not None:
            prev.unpersist()
        prev, cur = None if last else cur, None
        return collected

    try:
        yield step
    finally:
        for rdd in (prev, cur, base):
            if rdd is not None:
                rdd.unpersist()


def pres_bytes(nnz: int, ranks: tuple[int, ...]) -> int:
    """Analytic size of the Pres table: |Ω| · |G| · 8 bytes (Theorem 6)."""
    return int(nnz) * int(np.prod(ranks)) * 8


def default_intermediate_bytes(threads: int, max_rank: int) -> int:
    """Analytic intermediate data of default P-Tucker: O(T·J²) (Theorem 4)."""
    return threads * (2 * max_rank * max_rank + 2 * max_rank) * 8
