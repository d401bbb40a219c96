"""Evaluation metrics: reconstruction error (Eq. 6), fit, and test RMSE.

The paper evaluates with (a) reconstruction error over the training
(observed) entries and (b) RMSE over a held-out 10% of the observed
entries, predicted via Eq. 5. Both NumPy (driver) and Spark paths are
provided; the Spark path is ``ptucker.spark_sse``, a single block pass
returning per-partition partials (paper Section III-D).
"""
from __future__ import annotations

import numpy as np
from pyspark import RDD

from repro.core import delta as delta_mod
from repro.core import ptucker
from repro.tensor.coo import CooTensor


def reconstruction_error(
    tensor: CooTensor, core: np.ndarray, factors: list[np.ndarray]
) -> float:
    """Eq. 6: sqrt of the sum of squared residuals over observed entries."""
    pred = delta_mod.predictions(core, factors, tensor.idx)
    r = tensor.vals - pred
    return float(np.sqrt(np.dot(r, r)))


def fit(tensor: CooTensor, core: np.ndarray, factors: list[np.ndarray]) -> float:
    """fit = 1 − ‖X − X'‖ / ‖X‖ over observed entries (Section IV-C)."""
    return 1.0 - reconstruction_error(tensor, core, factors) / tensor.norm()


def rmse(tensor: CooTensor, core: np.ndarray, factors: list[np.ndarray]) -> float:
    """Root-mean-square error of Eq. 5 predictions on ``tensor``'s entries."""
    pred = delta_mod.predictions(core, factors, tensor.idx)
    r = tensor.vals - pred
    return float(np.sqrt(np.mean(r * r)))


def spark_reconstruction_error(
    blocks: RDD, core: np.ndarray, factors: list[np.ndarray]
) -> float:
    """Distributed Eq. 6 over entry blocks (``spark_tensor.to_blocks``):
    one ``spark_sse`` pass."""
    bc = blocks.context.broadcast((core, factors, None))
    try:
        return float(np.sqrt(ptucker.spark_sse(blocks, bc)))
    finally:
        bc.unpersist()
