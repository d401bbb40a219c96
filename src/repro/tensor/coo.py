"""COO (coordinate) representation of a sparse N-order tensor.

The driver-side twin of the Spark entries DataFrame: ``idx`` holds one row
of mode indices per observed entry, ``vals`` the entry values. All engines
(the sequential reference and the Spark engines) agree on this layout, so
tensors round-trip losslessly between the two worlds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class CooTensor:
    """An N-order sparse tensor with |Omega| observed entries.

    Attributes:
        idx:   (nnz, N) int64 array of 0-based mode indices.
        vals:  (nnz,) float64 array of observed values.
        shape: dimensionality (I_1, ..., I_N) of the tensor.
    """

    idx: np.ndarray
    vals: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.idx.ndim != 2:
            raise ValueError(f"idx must be 2-D, got shape {self.idx.shape}")
        if self.vals.ndim != 1 or len(self.vals) != len(self.idx):
            raise ValueError("vals must be 1-D and aligned with idx")
        if self.idx.shape[1] != len(self.shape):
            raise ValueError(
                f"idx has {self.idx.shape[1]} modes but shape has {len(self.shape)}"
            )
        for n, dim in enumerate(self.shape):
            col = self.idx[:, n]
            if len(col) and (col.min() < 0 or col.max() >= dim):
                raise ValueError(f"mode-{n} indices out of range [0, {dim})")

    @property
    def order(self) -> int:
        """Number of modes N."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of observed entries |Omega|."""
        return len(self.vals)

    def norm(self) -> float:
        """Frobenius norm over observed entries (Definition 1 restricted to Omega)."""
        return float(np.sqrt(np.sum(self.vals**2)))

    def to_pandas(self) -> pd.DataFrame:
        """Entries as a DataFrame with columns i0..i{N-1}, val."""
        data = {f"i{n}": self.idx[:, n].astype(np.int64) for n in range(self.order)}
        data["val"] = self.vals.astype(np.float64)
        return pd.DataFrame(data)

    def to_spark(self, spark):
        """Entries as a Spark DataFrame (columns i0..i{N-1}, val)."""
        # Imported here: the reference engine uses CooTensor without Spark.
        from repro.tensor.spark_tensor import spark_entries_from_coo

        return spark_entries_from_coo(spark, self.idx, self.vals)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (missing entries -> 0). Small tensors only."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[tuple(self.idx.T)] = self.vals
        return out

    def mask_dense(self) -> np.ndarray:
        """Dense 0/1 observation mask W aligned with :meth:`to_dense`."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[tuple(self.idx.T)] = 1.0
        return out

    def split(self, test_frac: float, seed: int) -> tuple["CooTensor", "CooTensor"]:
        """Deterministic train/test split of the observed entries.

        Mirrors the paper's 90/10 protocol (Section IV-A1). Hash-free:
        a seeded permutation so the split is stable for a given seed.
        """
        if not 0.0 < test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")
        g = np.random.default_rng(seed)
        perm = g.permutation(self.nnz)
        n_test = max(1, int(round(self.nnz * test_frac)))
        test_sel = perm[:n_test]
        train_sel = perm[n_test:]
        return (
            CooTensor(self.idx[train_sel], self.vals[train_sel], self.shape),
            CooTensor(self.idx[test_sel], self.vals[test_sel], self.shape),
        )


def from_dense(dense: np.ndarray, keep_zeros: bool = False) -> CooTensor:
    """COO view of a dense array; by default zero entries are treated as missing."""
    if keep_zeros:
        idx = np.indices(dense.shape).reshape(dense.ndim, -1).T.astype(np.int64)
        vals = dense.ravel().astype(np.float64)
    else:
        where = np.nonzero(dense)
        idx = np.stack(where, axis=1).astype(np.int64)
        vals = dense[where].astype(np.float64)
    return CooTensor(idx, vals, dense.shape)
