"""Correctness checks applied to every factorization the benchmark times.

``check_result`` returns a list of problems; an empty list means the run
is correct. The approx engine records its last error *before* the last
truncation of the core (``ptucker.factorize`` appends the error, then
truncates), so the returned model is not the one that error describes.
``ModelCapture`` keeps the arguments of the last ``truncate_core`` and
``qr_orthogonalize`` calls, which is the model that error does describe.
It stores references only: no clock is read and no work is added.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core import cache, ptucker
from repro.core.approx import dense_core_from_coo
from repro.core.metrics import reconstruction_error

ERROR_RTOL = 1e-9
ORTHO_ATOL = 1e-9


class ModelCapture:
    """Last pre-QR factors and last pre-truncation core of a factorization."""

    def __init__(self) -> None:
        self.pre_qr = None  # (factors, core) handed to qr_orthogonalize
        self.truncation = None  # ((core_idx, core_vals), (kept_idx, kept_vals))

    @contextmanager
    def installed(self):
        # The cache engine imports qr_orthogonalize under its own name.
        saved = [(m, name, getattr(m, name)) for m, name in
                 ((ptucker, "qr_orthogonalize"), (cache, "qr_orthogonalize"),
                  (ptucker, "truncate_core"))]
        qr, trunc = ptucker.qr_orthogonalize, ptucker.truncate_core

        def capture_qr(factors, core):
            self.pre_qr = (factors, core)
            return qr(factors, core)

        def capture_truncate(core_idx, core_vals, rerror, rate):
            kept = trunc(core_idx, core_vals, rerror, rate)
            self.truncation = ((core_idx, core_vals), kept)
            return kept

        ptucker.qr_orthogonalize = cache.qr_orthogonalize = capture_qr
        ptucker.truncate_core = capture_truncate
        try:
            yield self
        finally:
            for m, name, fn in saved:
                setattr(m, name, fn)


def truncation_schedule(core_size: int, rate: float, iters: int) -> list[int]:
    """|G| after each iteration of Algorithm 4: drop int(p·|G|) entries."""
    out, g = [], core_size
    for _ in range(iters):
        g -= int(rate * g)
        out.append(g)
    return out


def check_result(tensor, cfg, result, capture: ModelCapture | None = None) -> list[str]:
    """Problems found in one factorization result (empty when correct)."""
    problems = []
    if len(result.errors) != cfg.max_iters:
        problems.append(f"ran {len(result.errors)} of {cfg.max_iters} iterations")
        return problems
    for n, a in enumerate(result.factors):
        gram = a.T @ a
        off = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        if not off <= ORTHO_ATOL:
            problems.append(f"factor {n} not orthonormal: max|AᵀA−I|={off:.3g}")
    if cfg.variant == "approx":
        if capture is None or capture.truncation is None or capture.pre_qr is None:
            problems.append("approx run without a captured pre-truncation model")
        else:
            (c_idx, c_vals), _ = capture.truncation
            core = dense_core_from_coo(c_idx, c_vals, cfg.ranks)
            recomputed = reconstruction_error(tensor, core, capture.pre_qr[0])
            problems += _compare_error(recomputed, result.final_error)
        want = truncation_schedule(int(np.prod(cfg.ranks)), cfg.truncation_rate, cfg.max_iters)
        if list(result.core_nnz_history) != want:
            problems.append(f"core nnz {result.core_nnz_history} != schedule {want}")
    else:
        recomputed = reconstruction_error(tensor, result.core, result.factors)
        problems += _compare_error(recomputed, result.final_error)
        rises = [t + 1 for t in range(len(result.errors) - 1)
                 if result.errors[t + 1] > result.errors[t]]
        if rises:
            problems.append(f"error rose at iterations {rises}: {result.errors}")
    return problems


def _compare_error(recomputed: float, reported: float) -> list[str]:
    rel = abs(recomputed - reported) / reported
    if not rel <= ERROR_RTOL:
        return [f"final error {reported!r} != driver recomputation {recomputed!r} (rel {rel:.3g})"]
    return []
