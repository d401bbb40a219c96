"""Serial replay of the in-task kernels on the largest partition of each
mode view, called directly (no Spark), plus the computed cost of δ."""
from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.core import delta, row_update
from repro.tensor import linalg
from perfbench.stats import median, short_row_share

REPEATS = 3


def _timed(fn, repeats: int = REPEATS):
    """(last result, median seconds) of ``repeats`` calls of ``fn``."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, median(times)


def dense_delta_cost(core_shape: tuple[int, ...], mode: int, entries: int) -> tuple[int, int]:
    """Computed (flops, bytes moved) of ``delta.delta_dense`` for one mode.

    The einsum chain contracts the other modes one at a time. Step s
    does E·W_s multiply-adds, W_s = |G|/Π_{t<s} J_t, reading an (E, W_s)
    array (the core itself at step 0) plus E gathered factor rows and
    writing an (E, W_{s+1}) array. Bytes count each array read or written
    once, 8 B per double; cache misses are not modelled.
    """
    width = int(np.prod(core_shape))
    flops, elems = 0, 0
    for k in [k for k in range(len(core_shape)) if k != mode]:
        read = entries * width if flops else width
        flops += 2 * entries * width
        width //= core_shape[k]
        elems += read + entries * core_shape[k] + entries * width
    return flops, 8 * elems


def replay(parts, cfg, factors, core, core_coo=None) -> dict:
    """Kernel timings, counts and scratch peak on one partition per mode.

    ``parts[n]`` is the (idx, vals) of the largest partition of view n;
    ``factors``/``core`` are the model the engine ended with, and
    ``core_coo`` the truncated core of the approx variant.
    """
    m = {"delta.flops": 0, "delta.bytes": 0, "row_update.rows": 0,
         "row_update.accumulate_s": 0.0, "linalg.solve_s": 0.0,
         "row_update.scratch_peak_mb": 0.0}
    for n, (idx, vals) in enumerate(parts):
        order = np.argsort(idx[:, n], kind="stable")
        s_idx, s_vals = idx[order], vals[order]
        d, m[f"delta.dense_s.mode{n}"] = _timed(
            lambda: delta.delta_dense(core, factors, s_idx, n))
        uniq, starts = np.unique(s_idx[:, n], return_index=True)
        (b, c), t = _timed(lambda: row_update.accumulate_b_c(d, s_vals, starts))
        m["row_update.accumulate_s"] += t
        m["linalg.solve_s"] += _timed(lambda: linalg.solve_rows_batched(b, c, cfg.lam))[1]
        m["row_update.rows"] += len(uniq)
        m[f"row_update.short_row_share.mode{n}"] = short_row_share(idx[:, n], cfg.ranks[n])
        flops, nbytes = dense_delta_cost(core.shape, n, len(idx))
        m["delta.flops"] += flops
        m["delta.bytes"] += nbytes
        pres = delta.compute_pres(core, factors, idx) if cfg.variant == "cache" else None
        tracemalloc.start()
        try:
            row_update.update_rows(idx, vals, core, factors, n, cfg.lam,
                                   core_coo=core_coo, pres=pres)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m["row_update.scratch_peak_mb"] = max(m["row_update.scratch_peak_mb"], peak / 2**20)

    # The SSE and R(β) passes scan view 0.
    idx, vals = parts[0]
    m["row_update.sse_s"] = _timed(
        lambda: row_update.sse_partial(idx, vals, core, factors, core_coo=core_coo))[1]
    m["delta.sparse_s"] = m["row_update.rerror_s"] = 0.0
    if cfg.variant == "approx":
        c_idx, c_vals = core_coo
        m["delta.sparse_s"] = _timed(
            lambda: delta.delta_sparse(c_idx, c_vals, cfg.ranks[0], factors, idx, 0))[1]
        m["row_update.rerror_s"] = _timed(
            lambda: row_update.rerror_partial(idx, vals, c_idx, c_vals, cfg.ranks, factors))[1]
    m["delta.compute_pres_s"] = m["delta.from_pres_s"] = m["delta.rescale_pres_s"] = 0.0
    if cfg.variant == "cache":
        pres, m["delta.compute_pres_s"] = _timed(lambda: delta.compute_pres(core, factors, idx))
        m["delta.from_pres_s"] = _timed(
            lambda: delta.delta_from_pres(pres, core, factors, idx, 0))[1]
        m["delta.rescale_pres_s"] = _timed(
            lambda: delta.rescale_pres(pres, core, factors, factors[0], idx, 0))[1]
    return m
