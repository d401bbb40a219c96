"""Benchmarks for Figure 11: accuracy runs (convergence to tolerance).

Timing here is the full factorize-to-tolerance wall clock; the accuracy
numbers themselves (recon error, test RMSE) are attached as extra_info
and tabulated by ``jobs/fig11_accuracy.py``.
"""
import pytest

from repro.baselines import factorize_shot
from repro.core.config import PTuckerConfig
from repro.core.metrics import reconstruction_error, rmse
from repro.core.ptucker import factorize as factorize_ptucker
from repro.experiments.fig7_realworld import datasets
from repro.tensor.spark_tensor import ModePartitionedTensor


@pytest.fixture(scope="module")
def movielens_split(spark):
    name, tensor, ranks = datasets(scale=0.25)[1]  # MovieLens stand-in
    train, test = tensor.split(0.1, seed=1234)
    with ModePartitionedTensor(train.to_spark(spark), train.shape) as mpt:
        yield train, test, ranks, mpt


def test_fig11_ptucker_movielens(benchmark, spark, movielens_split):
    train, test, ranks, mpt = movielens_split
    cfg = PTuckerConfig(ranks=ranks, max_iters=5, tol=1e-3)
    res = benchmark.pedantic(
        lambda: factorize_ptucker(spark, mpt, train.shape, cfg),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["recon_error"] = reconstruction_error(
        train, res.core, res.factors
    )
    benchmark.extra_info["test_rmse"] = rmse(test, res.core, res.factors)


def test_fig11_shot_movielens(benchmark, spark, movielens_split):
    train, test, ranks, mpt = movielens_split
    res = benchmark.pedantic(
        lambda: factorize_shot(mpt, ranks, max_iters=5, tol=1e-3),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["recon_error"] = reconstruction_error(
        train, res.core, res.factors
    )
    benchmark.extra_info["test_rmse"] = rmse(test, res.core, res.factors)
