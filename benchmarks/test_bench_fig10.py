"""Benchmarks for Figure 10: P-Tucker iteration time vs worker count T."""
import pytest

from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import sparse_tensor_uniform
from repro.tensor.spark_tensor import ModePartitionedTensor


@pytest.fixture(scope="module")
def tensor(spark):
    t = sparse_tensor_uniform(shape=(50_000,) * 3, nnz=200_000, seed=6)
    return t, t.to_spark(spark)


@pytest.mark.parametrize("threads", [1, 4, 16])
def test_fig10_iteration_at_T(benchmark, spark, tensor, threads):
    t, entries = tensor
    cfg = PTuckerConfig(ranks=(10,) * 3, max_iters=1, tol=0.0)
    benchmark.extra_info["T"] = threads
    with ModePartitionedTensor(entries, t.shape, threads) as mpt:
        benchmark.pedantic(
            lambda: factorize_ptucker(spark, mpt, t.shape, cfg),
            rounds=1,
            iterations=1,
        )
