"""Benchmarks for Figure 8: default vs cache variant per-iteration time."""
import pytest

from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import sparse_tensor_uniform
from repro.tensor.spark_tensor import ModePartitionedTensor

ORDER = 7  # paper sweeps 6-10; |G| = 3^7 = 2187 here


@pytest.fixture(scope="module")
def tensor(spark):
    t = sparse_tensor_uniform(shape=(100,) * ORDER, nnz=1000, seed=4)
    with ModePartitionedTensor(t.to_spark(spark), t.shape) as mpt:
        yield t, mpt


@pytest.mark.parametrize("variant", ["default", "cache"])
def test_fig8_variant_iteration(benchmark, spark, tensor, variant):
    t, mpt = tensor
    cfg = PTuckerConfig(
        ranks=(3,) * ORDER, max_iters=1, tol=0.0, variant=variant
    )
    benchmark.extra_info["variant"] = variant
    benchmark.pedantic(
        lambda: factorize_ptucker(spark, mpt, t.shape, cfg),
        rounds=1,
        iterations=1,
    )
