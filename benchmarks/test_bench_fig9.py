"""Benchmarks for Figure 9: default vs approx variant over iterations.

Approx's advantage builds up as |G| shrinks, so the benchmark measures a
5-iteration run of each variant; the per-iteration table comes from
``jobs/fig9_approx.py``.
"""
import pytest

from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.synth_data import lowrank_tensor
from repro.tensor.spark_tensor import ModePartitionedTensor


@pytest.fixture(scope="module")
def tensor(spark):
    t = lowrank_tensor(
        shape=(3_000,) * 3, ranks=(10,) * 3, nnz=30_000, noise=0.01, seed=5
    )
    with ModePartitionedTensor(t.to_spark(spark), t.shape) as mpt:
        yield t, mpt


@pytest.mark.parametrize("variant", ["default", "approx"])
def test_fig9_five_iterations(benchmark, spark, tensor, variant):
    t, mpt = tensor
    cfg = PTuckerConfig(
        ranks=(10,) * 3,
        max_iters=5,
        tol=0.0,
        variant=variant,
        truncation_rate=0.2,
    )
    benchmark.extra_info["variant"] = variant
    res = benchmark.pedantic(
        lambda: factorize_ptucker(spark, mpt, t.shape, cfg),
        rounds=1,
        iterations=1,
    )
