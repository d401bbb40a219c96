"""Tucker-ALS / HOOI (Algorithm 1) with full intermediate materialization.

The textbook method (De Lathauwer et al.): per mode, materialize the
*entire* dense Y_(n) = X ×_{k≠n} A^(k)T (an I_n × J^{N-1} matrix) and
take its J_n leading left singular vectors. The rows come from
``common.rows_pass`` with the identity projection and are assembled on
the driver, where the SVD runs. The dense Y_(n) is the *intermediate
data explosion* object (Definition 7) — its O(I·J^{N-1}) driver-side
footprint is what P-Tucker's O(T·J²) replaces. The budget guard turns
that explosion into a deterministic ``SimulatedOOM``.

Not one of the paper's named competitors, but it is the algorithm their
scalability critique targets, and it doubles as a correctness oracle:
S-HOT_scan / Tucker-CSF must reproduce its subspaces.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    ensure_budget,
    hooi_family_loop,
    rows_pass,
    y_cols,
)
from repro.tensor.spark_tensor import ModePartitionedTensor, assemble_factor


def factorize_hooi(
    mpt: ModePartitionedTensor,
    ranks: tuple[int, ...],
    *,
    max_iters: int = 20,
    tol: float = 1e-4,
    seed: int = 0,
    mem_budget: int | None = None,
):
    """Run classic Tucker-ALS (HOOI) with driver-side dense Y_(n)."""

    def updater(n, blocks, factors):
        dim, k_cols = mpt.shape[n], y_cols(factors, n)
        ensure_budget(dim * k_cols * 8, mem_budget, f"dense Y_({n}) matricization")
        rows = rows_pass(blocks, factors, n, None, np.eye(k_cols))
        y = assemble_factor(rows, dim, k_cols)
        u = np.linalg.svd(y, full_matrices=False)[0][:, : ranks[n]]
        # K < J_n: pad with zero columns.
        return np.pad(u, ((0, 0), (0, ranks[n] - u.shape[1])))

    return hooi_family_loop(mpt, ranks, updater, max_iters, tol, seed)
