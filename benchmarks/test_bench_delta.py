"""Benchmarks for the δ kernels (Eq. 13) around the COO switch.

P-Tucker-Approx runs ``delta_sparse`` on its truncated COO core once the
fill |G|/Π J drops below ``approx.SPARSE_CORE_THRESHOLD``, and
``delta_dense`` on the zero-filled core above it. Each case times both
kernels serially (mode 0, the one ``predictions`` also runs) on one
task's worth of entries, at J=10 and fills from 21% down to 0.7%: N=4
with 2600 and 3400 entries (``movielens-approx`` partitions) and N=3
with 25 000 (a Fig 9 job partition). The fill where ``coo`` starts to
beat ``dense`` is the threshold; re-run with
``pytest benchmarks/test_bench_delta.py``.
"""
import numpy as np
import pytest

from repro.core import delta as dm
from repro.core.approx import dense_core_from_coo

SHAPES = {
    "N4-E2600": (4, 2_600),
    "N4-E3400": (4, 3_400),
    "N3-E25000": (3, 25_000),
}
FILLS = [0.21, 0.055, 0.023, 0.018, 0.015, 0.012, 0.01, 0.007]
RANK = 10


def delta_case(order: int, n_entries: int, fill: float, seed: int = 0):
    """Random factors, entries and a core keeping ``fill`` of its J^N cells.

    Returns (core_idx, core_vals, zero-filled dense core, factors, idx).
    """
    g = np.random.default_rng(seed)
    ranks = (RANK,) * order
    dims = [200] * order
    factors = [g.standard_normal((i, RANK)) for i in dims]
    idx = np.stack([g.integers(0, i, n_entries) for i in dims], axis=1)
    size = RANK**order
    keep = np.sort(g.choice(size, max(1, round(fill * size)), replace=False))
    core_idx = np.stack(np.unravel_index(keep, ranks), axis=1).astype(np.int64)
    core_vals = g.standard_normal(len(keep))
    dense = dense_core_from_coo(core_idx, core_vals, ranks)
    return core_idx, core_vals, dense, factors, idx


@pytest.mark.parametrize("kernel", ["dense", "coo"])
@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_delta_kernel(benchmark, shape, fill, kernel):
    core_idx, core_vals, dense, factors, idx = delta_case(*SHAPES[shape], fill)
    benchmark.extra_info.update(fill=fill, nnz=len(core_vals))
    if kernel == "dense":
        run = lambda: dm.delta_dense(dense, factors, idx, 0)  # noqa: E731
    else:
        run = lambda: dm.delta_sparse(  # noqa: E731
            core_idx, core_vals, RANK, factors, idx, 0
        )
    benchmark.pedantic(run, rounds=15, warmup_rounds=1, iterations=1)
