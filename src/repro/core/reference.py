"""Sequential NumPy reference implementation of P-Tucker (Algorithms 2-4).

This engine is the numerical oracle for the Spark engines: same update
rule, same initialization, same iteration structure, but single-process.
All three variants (default / cache / approx) are supported so each Spark
code path can be validated against its sequential twin.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core import delta as delta_mod
from repro.core.approx import (
    dense_core_from_coo,
    full_core_coo,
    truncate_core,
    use_sparse_core,
)
from repro.core.config import PTuckerConfig, PTuckerResult, converged
from repro.core.row_update import rerror_partial, update_rows
from repro.tensor.coo import CooTensor
from repro.tensor.linalg import init_factors, qr_orthogonalize


def factorize(tensor: CooTensor, cfg: PTuckerConfig) -> PTuckerResult:
    """Run P-Tucker (or a variant) sequentially on a COO tensor."""
    factors, core = init_factors(tensor.shape, cfg.ranks, cfg.seed)
    idx, vals = tensor.idx, tensor.vals
    n_modes = tensor.order

    # Rows never observed in mode n are driven to zero by Eq. 10 (B=c=0).
    observed = [np.zeros(tensor.shape[n], dtype=bool) for n in range(n_modes)]
    for n in range(n_modes):
        observed[n][np.unique(idx[:, n])] = True
        factors[n][~observed[n]] = 0.0

    core_idx = core_vals = None  # COO core once the approx variant truncates
    if cfg.variant == "approx":
        core_idx, core_vals = full_core_coo(core)

    result = PTuckerResult(factors=factors, core=core)
    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        # The COO kernels only pay off once truncation has made the core
        # genuinely sparse; until then the dense kernels run on the
        # zero-filled core (identical results, better constants).
        core_coo = None
        if cfg.variant == "approx" and use_sparse_core(
            len(core_vals), core.size
        ):
            core_coo = (core_idx, core_vals)
        pres = None
        if cfg.variant == "cache":
            pres = delta_mod.compute_pres(core, factors, idx)
        for n in range(n_modes):
            upd = update_rows(
                idx,
                vals,
                core,
                factors,
                n,
                cfg.lam,
                core_coo=core_coo,
                pres=pres,
            )
            old = factors[n]
            new = np.zeros_like(old)
            new[upd.indices] = upd.rows
            factors[n] = new
            if cfg.variant == "cache":
                pres = delta_mod.rescale_pres(pres, core, factors, old, idx, n)
        # Reconstruction error (Eq. 6) over observed entries, from the last
        # mode's predictions, as the Spark engines take it.
        result.errors.append(float(np.sqrt(upd.sse(vals))))
        if cfg.variant == "approx":
            rerr = rerror_partial(
                idx, vals, core_idx, core_vals, cfg.ranks, factors
            )
            core_idx, core_vals = truncate_core(
                core_idx, core_vals, rerr, cfg.truncation_rate
            )
            core = dense_core_from_coo(core_idx, core_vals, cfg.ranks)
        result.core_nnz_history.append(
            len(core_vals) if core_vals is not None else core.size
        )
        result.iter_times.append(time.perf_counter() - t0)
        if converged(result.errors, cfg.tol):
            result.converged = True
            break

    factors, core = qr_orthogonalize(factors, core)
    result.factors, result.core = factors, core
    return result
