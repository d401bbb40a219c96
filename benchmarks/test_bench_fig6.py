"""Benchmarks for Figure 6: per-iteration factorization time per method.

Each benchmark measures one full ALS sweep (1 iteration) at a
representative point of the paper's sweeps, scaled per DESIGN.md.
The full sweep tables come from ``jobs/fig6_data_scalability.py``.
"""
import pytest

from repro.baselines import factorize_csf, factorize_shot, factorize_wopt
from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import sparse_tensor_uniform
from repro.tensor.spark_tensor import ModePartitionedTensor


@pytest.fixture(scope="module")
def nnz_point(spark):
    """Fig 6(c) mid point: N=3, I=10^4, |Ω|=10^5, J=10 (scaled)."""
    t = sparse_tensor_uniform(shape=(10_000,) * 3, nnz=100_000, seed=1)
    with ModePartitionedTensor(t.to_spark(spark), t.shape) as mpt:
        yield t, mpt


@pytest.fixture(scope="module")
def order_point(spark):
    """Fig 6(a) point: N=5, I=100, |Ω|=10^3, J=3."""
    t = sparse_tensor_uniform(shape=(100,) * 5, nnz=1000, seed=2)
    with ModePartitionedTensor(t.to_spark(spark), t.shape) as mpt:
        yield t, mpt


def _bench(benchmark, fn):
    benchmark.pedantic(fn, rounds=1, iterations=1)


def test_fig6c_ptucker(benchmark, spark, nnz_point):
    t, mpt = nnz_point
    cfg = PTuckerConfig(ranks=(10,) * 3, max_iters=1, tol=0.0)
    _bench(benchmark, lambda: factorize_ptucker(spark, mpt, t.shape, cfg))


def test_fig6c_shot(benchmark, spark, nnz_point):
    t, mpt = nnz_point
    _bench(
        benchmark,
        lambda: factorize_shot(mpt, (10,) * 3, max_iters=1, tol=0.0),
    )


def test_fig6c_csf(benchmark, spark, nnz_point):
    t, mpt = nnz_point
    _bench(
        benchmark,
        lambda: factorize_csf(mpt, (10,) * 3, max_iters=1, tol=0.0),
    )


def test_fig6a_order5_ptucker(benchmark, spark, order_point):
    t, mpt = order_point
    cfg = PTuckerConfig(ranks=(3,) * 5, max_iters=1, tol=0.0)
    _bench(benchmark, lambda: factorize_ptucker(spark, mpt, t.shape, cfg))


def test_fig6a_order5_shot(benchmark, spark, order_point):
    t, mpt = order_point
    _bench(
        benchmark,
        lambda: factorize_shot(mpt, (3,) * 5, max_iters=1, tol=0.0),
    )


def test_fig6a_order5_csf(benchmark, spark, order_point):
    t, mpt = order_point
    _bench(
        benchmark,
        lambda: factorize_csf(mpt, (3,) * 5, max_iters=1, tol=0.0),
    )


def test_fig6a_order4_wopt(benchmark):
    """wOPT at its largest non-OOM paper-shaped point (N=4, I=50 scaled)."""
    t = sparse_tensor_uniform(shape=(50,) * 4, nnz=1000, seed=3)
    _bench(
        benchmark,
        lambda: factorize_wopt(
            t, (3,) * 4, max_iters=1, tol=0.0, mem_budget=4 * 10**9
        ),
    )
