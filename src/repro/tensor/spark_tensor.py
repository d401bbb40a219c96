"""Spark-side management of a partitioned sparse tensor.

``ModePartitionedTensor`` owns N persisted copies of the entries
DataFrame, copy ``n`` hash-partitioned by the mode-n index ``i{n}``.
Hash partitioning puts every row group Ω^(n)_{i_n} into exactly one
partition, so a ``mapInPandas`` pass over copy ``n`` can update its
owned factor-matrix rows without any cross-partition coordination —
the Spark analogue of P-Tucker's per-thread row allocation
(Section III-D of the paper).

Every engine pass over entries goes through ``map_entries`` (one
``mapInPandas`` that decodes each partition into COO arrays) and, when it
owns its broadcast, ``run_pass``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel


def entry_columns(order: int) -> list[str]:
    """Index column names i0..i{N-1} for an order-N tensor."""
    return [f"i{n}" for n in range(order)]


class ModePartitionedTensor:
    """N mode-partitioned, persisted views of one sparse tensor.

    Args:
        entries: DataFrame with columns i0..i{N-1} (long) and val (double).
        shape:   tensor dimensionality.
        partitions: partitions per view; defaults to the cluster's
            default parallelism (one task per core on local[*]).
    """

    def __init__(
        self,
        entries: DataFrame,
        shape: tuple[int, ...],
        partitions: int | None = None,
    ) -> None:
        self.shape = tuple(shape)
        self.order = len(shape)
        spark = entries.sparkSession
        self.partitions = partitions or spark.sparkContext.defaultParallelism
        cols = entry_columns(self.order) + ["val"]
        base = entries.select(
            *[F.col(c).cast("long") for c in entry_columns(self.order)],
            F.col("val").cast("double"),
        ).select(*cols)
        self._views: list[DataFrame] = []
        for n in range(self.order):
            v = base.repartition(self.partitions, F.col(f"i{n}")).persist(
                StorageLevel.MEMORY_AND_DISK
            )
            self._views.append(v)
        # Materialize and record |Omega| once; a failing count (e.g. an
        # index that does not cast to long) leaves nothing persisted.
        try:
            self.nnz = self._views[0].count()
            for v in self._views[1:]:
                v.count()
        except BaseException:
            self.unpersist()
            raise

    def view(self, mode: int) -> DataFrame:
        """The persisted entries view hash-partitioned by mode ``mode``."""
        return self._views[mode]

    def unpersist(self) -> None:
        """Release all cached views."""
        for v in self._views:
            v.unpersist()


def map_entries(view: DataFrame, bc, task, schema: str) -> DataFrame:
    """A lazy pass running ``task`` once per non-empty partition of ``view``.

    The partition's Arrow batches are concatenated and decoded once into
    ``idx`` (E×N int64, from the index columns ``i0..``) and ``vals``;
    ``task(bc.value, idx, vals, batch)`` then yields the partition's
    ``schema`` records, and ``batch`` carries any further columns (Cache's
    ``pres``). An empty partition emits nothing, since Arrow cannot type a
    0-row batch, so sums on the Spark driver count it as zero.
    """

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = [b for b in batches if len(b)]
        if not frames:
            return
        batch = pd.concat(frames, ignore_index=True)
        order = sum(c[:1] == "i" and c[1:].isdigit() for c in batch.columns)
        idx = np.stack(
            [batch[c].to_numpy(np.int64) for c in entry_columns(order)], axis=1
        )
        yield from task(bc.value, idx, batch["val"].to_numpy(np.float64), batch)

    return view.mapInPandas(run, schema=schema)


def run_pass(view: DataFrame, state, task, schema: str) -> pd.DataFrame:
    """Broadcast ``state``, collect ``map_entries`` of ``task``, release.

    The broadcast is unpersisted in ``finally``, so a raising task leaks
    nothing.
    """
    bc = view.sparkSession.sparkContext.broadcast(state)
    try:
        return map_entries(view, bc, task, schema).toPandas()
    finally:
        bc.unpersist()


def assemble_factor(
    collected: pd.DataFrame, dim: int, rank: int
) -> np.ndarray:
    """Driver-side assembly of a dim×rank factor from collected (i, row) pairs.

    Unobserved rows stay zero, matching Eq. 10 with B = c = 0.
    """
    out = np.zeros((dim, rank), dtype=np.float64)
    if len(collected):
        out[collected["i"].to_numpy(np.int64)] = np.stack(
            collected["row"].to_numpy()
        )
    return out


def spark_entries_from_coo(
    spark: SparkSession, idx: np.ndarray, vals: np.ndarray
) -> DataFrame:
    """Create an entries DataFrame from COO arrays."""
    order = idx.shape[1]
    pdf = pd.DataFrame(
        {f"i{n}": idx[:, n].astype(np.int64) for n in range(order)}
        | {"val": vals.astype(np.float64)}
    )
    return spark.createDataFrame(pdf)
