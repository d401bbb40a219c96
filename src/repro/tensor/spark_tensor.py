"""Spark-side management of a partitioned sparse tensor.

``ModePartitionedTensor`` owns N persisted copies of the entries
DataFrame, copy ``n`` hash-partitioned by the mode-n index ``i{n}``.
Hash partitioning puts every row group Ω^(n)_{i_n} into exactly one
partition, so a ``mapInPandas`` pass over copy ``n`` can update its
owned factor-matrix rows without any cross-partition coordination —
the Spark analogue of P-Tucker's per-thread row allocation
(Section III-D of the paper).
"""
from __future__ import annotations

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

    def observed_index_masks(self) -> list[np.ndarray]:
        """Boolean mask per mode marking indices with >= 1 observed entry.

        Rows of A^(n) with an empty Ω^(n)_{i_n} are driven to zero by the
        update rule (B=0, c=0 ⇒ row←0); the engines apply that explicitly
        since the partitioned pass only ever emits observed rows.
        """
        masks = []
        for n in range(self.order):
            seen = (
                self._views[n]
                .select(f"i{n}")
                .distinct()
                .toPandas()[f"i{n}"]
                .to_numpy(np.int64)
            )
            m = np.zeros(self.shape[n], dtype=bool)
            m[seen] = True
            masks.append(m)
        return masks


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
