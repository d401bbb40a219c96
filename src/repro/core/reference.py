"""Sequential reference P-Tucker (Algorithms 2-4): the numerical oracle.

The reference engine is ``ptucker``'s ALS loop on a local executor: each
mode update runs, in-process, the task a Spark partition runs
(``ptucker._update_task``, or ``cache._mode_task`` for Cache) on one
block holding every entry. Kernels, initialization and loop are the
Spark engines' own, so "Spark == reference" tests exactly the
partitioning, the broadcast and the assembly. No Spark call is made.
"""
from __future__ import annotations

from repro.core.cache import _mode_task
from repro.core.config import PTuckerConfig, PTuckerResult
from repro.core.ptucker import _als, _update_task
from repro.tensor.coo import CooTensor


def factorize(tensor: CooTensor, cfg: PTuckerConfig) -> PTuckerResult:
    """Run P-Tucker (or a variant) sequentially on a COO tensor.

    Cache carries the ``(idx, vals, pres)`` block a mode returns into the
    next mode; mode 0 starts again from ``(idx, vals)``.
    """
    make_task = _mode_task if cfg.variant == "cache" else _update_task
    last = tensor.order - 1
    block = None

    def step(n: int, state) -> list:
        nonlocal block
        if n == 0:
            block = (tensor.idx, tensor.vals)
        out = make_task(n, cfg.lam, n == last)(state, *block)
        if cfg.variant == "cache":
            block = out[4]
        return [out]

    return _als(step, tensor.shape, cfg)
