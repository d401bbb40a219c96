"""Spark-side management of a partitioned sparse tensor.

``ModePartitionedTensor`` owns N persisted copies of the entries
DataFrame, copy ``n`` hash-partitioned by the mode-n index ``i{n}``.
Hash partitioning puts every row group Ω^(n)_{i_n} into exactly one
partition, so a pass over copy ``n`` can update its owned factor-matrix
rows without any cross-partition coordination — the Spark analogue of
P-Tucker's per-thread row allocation (Section III-D of the paper).

Every engine pass runs over *blocks*, an RDD of one ``(idx E×N int64,
vals E[, pres E×|G|])`` tuple per non-empty partition (``to_blocks``,
``mode_blocks``): ``collect(block_pass(blocks, bc, task))``, or
``run_pass`` with its own broadcast. At |Ω|=10⁶ (N=3, 4 partitions, 4
cores) a no-op pass over persisted blocks takes ≈0.08 s against ≈0.95 s
as a pandas UDF over the persisted view; converting a view costs
0.27-0.33 s, once per run.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa
from py4j.protocol import Py4JJavaError
from pyspark import RDD
from pyspark.errors import PythonException
from pyspark.serializers import NoOpSerializer
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel


def entry_columns(order: int) -> list[str]:
    """Index column names i0..i{N-1} for an order-N tensor."""
    return [f"i{n}" for n in range(order)]


def typed_entries(entries: DataFrame, order: int) -> DataFrame:
    """``entries`` as columns i0..i{N-1} (long) and val (double)."""
    return entries.select(
        *[F.col(c).cast("long") for c in entry_columns(order)],
        F.col("val").cast("double"),
    )


class ModePartitionedTensor:
    """N mode-partitioned, persisted views of one sparse tensor.

    Every Spark engine reads one, and its caller owns it: the views live
    until ``unpersist()``, which a ``with`` block calls on exit.

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
        base = typed_entries(entries, self.order)
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

    def __enter__(self) -> ModePartitionedTensor:
        return self

    def __exit__(self, *exc) -> None:
        self.unpersist()


def to_blocks(entries: DataFrame) -> RDD:
    """Lazy RDD of one ``(idx, vals)`` block per non-empty partition.

    Block p holds partition p's entries (columns i0..i{N-1}, val) in
    order, as int64 and float64 arrays. The JVM encodes each partition as
    Arrow record batches (``Dataset.toArrowBatchRdd``, Spark-internal), and
    one Python task per partition decodes them into the block.
    """
    order = len(entries.columns) - 1
    typed = typed_entries(entries, order)
    messages = typed._jdf.toArrowBatchRdd().toJavaRDD()

    def unpack(parts):
        cols = entry_columns(order)  # a repro global: the worker imports repro
        schema = pa.schema([(c, pa.int64()) for c in cols] + [("val", pa.float64())])
        batches = [pa.ipc.read_record_batch(pa.py_buffer(m), schema) for m in parts]
        table = pa.Table.from_batches(batches, schema)
        if table.num_rows:
            idx = np.stack([table.column(c).to_numpy() for c in cols], axis=1)
            yield idx, table.column("val").to_numpy()

    sc = entries.sparkSession.sparkContext
    return RDD(messages, sc, NoOpSerializer()).mapPartitions(unpack)


@contextmanager
def mode_blocks(mpt: ModePartitionedTensor):
    """``blocks(n)`` for one run: the persisted blocks of mode view ``n``.

    View ``n`` is converted by the first pass over ``blocks(n)``, inside
    that pass's job. On exit every block RDD is unpersisted, also when a
    pass raises; the views stay with their owner.
    """
    made: dict[int, RDD] = {}

    def blocks(n: int) -> RDD:
        if n not in made:
            made[n] = to_blocks(mpt.view(n)).persist(StorageLevel.MEMORY_AND_DISK)
        return made[n]

    try:
        yield blocks
    finally:
        for b in made.values():
            b.unpersist()


def block_pass(blocks: RDD, bc, task) -> RDD:
    """The lazy pass ``task(bc.value, *block)`` over every block."""
    return blocks.map(lambda block: task(bc.value, *block))


def collect(rdd: RDD) -> list:
    """``rdd.collect()``, raising a failed task as ``PythonException`` with
    the task's traceback (an RDD action raises ``Py4JJavaError``)."""
    try:
        return rdd.collect()
    except Py4JJavaError as exc:
        cause = exc.java_exception.getCause()
        python = "org.apache.spark.api.python.PythonException"
        if cause is None or cause.getClass().getName() != python:
            raise
        raise PythonException(cause.getMessage()) from None


def run_pass(blocks: RDD, state, task) -> list:
    """Broadcast ``state``, collect ``block_pass`` of ``task``, and release
    the broadcast in ``finally``, so a raising task leaks nothing."""
    bc = blocks.context.broadcast(state)
    try:
        return collect(block_pass(blocks, bc, task))
    finally:
        bc.unpersist()


def assemble_factor(parts: list, dim: int, rank: int) -> np.ndarray:
    """Driver-side dim×rank factor from collected ``(indices, rows, ...)``.

    Unobserved rows stay zero, matching Eq. 10 with B = c = 0.
    """
    out = np.zeros((dim, rank), dtype=np.float64)
    for indices, rows, *_ in parts:
        out[indices] = rows
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
