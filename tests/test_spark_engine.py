"""Integration tests: the Spark P-Tucker engines vs the sequential oracle."""
import itertools
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro.core import ptucker, reference
from repro.core.approx import use_sparse_core
from repro.core.config import PTuckerConfig
from repro.core.metrics import (
    reconstruction_error,
    spark_reconstruction_error,
)
from repro.synth_data import lowrank_tensor
from repro.tensor.linalg import init_factors
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    spark_entries_from_coo,
)


@pytest.fixture(scope="module")
def tensor():
    return lowrank_tensor(
        shape=(40, 30, 20), ranks=(3, 3, 3), nnz=4000, noise=0.0, seed=1
    )


@pytest.fixture(scope="module")
def mpt(spark, tensor):
    m = ModePartitionedTensor(tensor.to_spark(spark), tensor.shape, partitions=4)
    yield m
    m.unpersist()


def _cfg(**kw):
    base = dict(ranks=(3, 3, 3), max_iters=3, tol=0.0, seed=0, partitions=4)
    base.update(kw)
    return PTuckerConfig(**base)


def test_mpt_counts_and_views(spark, tensor, mpt):
    assert mpt.nnz == tensor.nnz
    for n in range(3):
        v = mpt.view(n)
        assert v.rdd.getNumPartitions() == 4
        assert v.count() == tensor.nnz


def test_mpt_partitioning_groups_rows(spark, tensor, mpt):
    """Hash partitioning must keep each row group in one partition."""
    view = mpt.view(1)

    def owner_count(pdf_iter):
        import pandas as pd

        frames = list(pdf_iter)
        if not frames:
            return iter([pd.DataFrame({"i": []})])
        pdf = pd.concat(frames)
        return iter([pd.DataFrame({"i": pdf["i1"].unique()})])

    owners = view.mapInPandas(owner_count, schema="i long").toPandas()
    # every mode-1 index appears in exactly one partition
    assert owners["i"].is_unique


def test_mpt_observed_index_masks(spark, tensor, mpt):
    masks = mpt.observed_index_masks()
    for n in range(3):
        want = np.zeros(tensor.shape[n], bool)
        want[np.unique(tensor.idx[:, n])] = True
        np.testing.assert_array_equal(masks[n], want)


def test_spark_matches_reference_default(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg())
    rr = reference.factorize(tensor, _cfg())
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)
    for a, b in zip(rs.factors, rr.factors):
        np.testing.assert_allclose(a, b, atol=1e-8)
    np.testing.assert_allclose(rs.core, rr.core, atol=1e-8)


def test_spark_matches_reference_approx(spark, tensor, mpt):
    cfg = _cfg(variant="approx", max_iters=4)
    rs = ptucker.factorize(spark, mpt, tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)
    assert rs.core_nnz_history == rr.core_nnz_history


def test_spark_matches_reference_approx_past_coo_switch(spark, tensor, mpt):
    """Truncation at p=0.2 takes |G|=27 to 6 < 0.25·27 after 8 iterations,
    so iteration 9 runs the COO kernels with the fused error and R(β)."""
    cfg = _cfg(variant="approx", max_iters=9)
    rs = ptucker.factorize(spark, mpt, tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    assert use_sparse_core(rr.core_nnz_history[-2], 27)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)
    assert rs.core_nnz_history == rr.core_nnz_history


def test_spark_matches_reference_cache(spark, tensor):
    cfg = _cfg(variant="cache", max_iters=2)
    rs = ptucker.factorize(spark, tensor.to_spark(spark), tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-8)
    for a, b in zip(rs.factors, rr.factors):
        np.testing.assert_allclose(a, b, atol=1e-7)


# Tolerances of the Spark == reference checks above, per variant.
_RTOL = {"default": 1e-9, "approx": 1e-9, "cache": 1e-8}


@pytest.mark.parametrize(
    "variant, partitions",
    [pytest.param("default", p, id=str(p)) for p in (1, 2, 8)]
    + [
        pytest.param(v, p, id=f"{v}-{p}")
        for v, p in itertools.product(("approx", "cache"), (1, 2, 8))
    ],
)
def test_partition_count_invariance(spark, tensor, variant, partitions):
    """Results must not depend on the parallelism degree."""
    cfg = _cfg(partitions=partitions, max_iters=2, variant=variant)
    rs = ptucker.factorize(spark, tensor.to_spark(spark), tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=_RTOL[variant])
    assert rs.core_nnz_history == rr.core_nnz_history


@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_empty_partitions_count_as_zero(spark, variant):
    """With 3 mode-2 rows on 8 partitions, most last-mode tasks are empty
    and emit no stats record; the error and R(β) sums must not miss them."""
    t = lowrank_tensor(
        shape=(16, 12, 3), ranks=(2, 2, 2), nnz=300, noise=0.1, seed=5
    )
    cfg = _cfg(ranks=(2, 2, 2), partitions=8, max_iters=2, variant=variant)
    rs = ptucker.factorize(spark, t.to_spark(spark), t.shape, cfg)
    rr = reference.factorize(t, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=_RTOL[variant])
    assert rs.core_nnz_history == rr.core_nnz_history


def test_accepts_raw_dataframe(spark, tensor):
    """factorize() must build (and clean up) its own MPT from a DataFrame."""
    rs = ptucker.factorize(
        spark, tensor.to_spark(spark), tensor.shape, _cfg(max_iters=1)
    )
    assert len(rs.errors) == 1


def test_spark_error_monotone(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg(max_iters=5))
    es = rs.errors
    assert all(es[i + 1] <= es[i] + 1e-9 for i in range(len(es) - 1))


def test_assemble_factor_zero_fills():
    collected = pd.DataFrame(
        {"i": [1, 3], "row": [np.array([1.0, 2.0]), np.array([3.0, 4.0])]}
    )
    out = ptucker.assemble_factor(collected, 5, 2)
    np.testing.assert_allclose(out[1], [1, 2])
    np.testing.assert_allclose(out[3], [3, 4])
    np.testing.assert_allclose(out[[0, 2, 4]], 0.0)


def test_assemble_factor_empty():
    out = ptucker.assemble_factor(pd.DataFrame({"i": [], "row": []}), 4, 3)
    np.testing.assert_allclose(out, np.zeros((4, 3)))


def test_spark_sse_matches_numpy(spark, tensor, mpt):
    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=0)
    bc = spark.sparkContext.broadcast((core, factors, None))
    got = ptucker.spark_sse(mpt.view(0), bc, 3)
    bc.unpersist()
    want = reconstruction_error(tensor, core, factors) ** 2
    assert got == pytest.approx(want, rel=1e-9)


def test_spark_reconstruction_error_matches_numpy(spark, tensor):
    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=1)
    got = spark_reconstruction_error(
        tensor.to_spark(spark), tensor.shape, core, factors
    )
    want = reconstruction_error(tensor, core, factors)
    assert got == pytest.approx(want, rel=1e-9)


def test_spark_sse_vs_duckdb_oracle(spark, tensor):
    """Query-result check: the distributed SSE equals a SQL aggregation
    over per-entry squared residuals (DuckDB as ground truth)."""
    from repro.core.delta import predictions
    from repro.oracle import assert_equivalent
    from pyspark.sql import functions as F

    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=2)
    pdf = tensor.to_pandas()
    pdf["pred"] = predictions(core, factors, tensor.idx)
    df = spark.createDataFrame(pdf)
    out = df.select(
        F.round(F.sum((F.col("val") - F.col("pred")) ** 2), 6).alias("sse")
    )
    assert_equivalent(
        out,
        "SELECT ROUND(SUM((val - pred) * (val - pred)), 6) AS sse FROM entries",
        entries=pdf,
    )


def test_spark_entries_from_coo(spark, tensor):
    df = spark_entries_from_coo(spark, tensor.idx, tensor.vals)
    assert df.count() == tensor.nnz
    assert set(df.columns) == {"i0", "i1", "i2", "val"}


def test_iter_times_recorded(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg(max_iters=2))
    assert len(rs.iter_times) == 2
    assert all(t > 0 for t in rs.iter_times)


def test_spark_convergence_stops_early(spark):
    t = lowrank_tensor(
        shape=(20, 15, 10), ranks=(2, 2, 2), nnz=1500, noise=0.0, seed=4
    )
    cfg = PTuckerConfig(
        ranks=(2, 2, 2), max_iters=40, tol=1e-3, seed=0, partitions=2
    )
    rs = ptucker.factorize(spark, t.to_spark(spark), t.shape, cfg)
    assert rs.converged
    assert rs.n_iters < 40


_GROUPS = itertools.count()


def _one_iteration(spark, entries, shape, cfg) -> tuple[int, int]:
    """(jobs, shuffle-writing stages) of a one-iteration factorization."""
    sc = spark.sparkContext
    group = f"one-iteration-{cfg.variant}-{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        ptucker.factorize(spark, entries, shape, replace(cfg, max_iters=1))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()  # job events arrive asynchronously
    store = jsc.statusStore()
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    shuffles = 0
    for job in jobs:
        stages = store.job(job).stageIds().iterator()
        while stages.hasNext():
            stage = store.lastStageAttempt(stages.next())
            shuffles += stage.shuffleWriteRecords() > 0
    return len(jobs), shuffles


@pytest.fixture(scope="module")
def own_mpt(spark):
    """Views of a tensor no other test caches, so no test can release them."""
    t = lowrank_tensor(
        shape=(30, 20, 10), ranks=(3, 3, 3), nnz=1500, noise=0.1, seed=9
    )
    m = ModePartitionedTensor(t.to_spark(spark), t.shape, partitions=4)
    yield m
    m.unpersist()


@pytest.mark.parametrize("variant", ["default", "approx"])
def test_iteration_is_one_job_per_mode(spark, own_mpt, variant):
    """Each mode update is one action; error and R(β) add no pass."""
    jobs, shuffles = _one_iteration(
        spark, own_mpt, own_mpt.shape, _cfg(variant=variant)
    )
    assert (jobs, shuffles) == (3, 0)


def test_cache_iteration_passes(spark, own_mpt, monkeypatch):
    """Cache: no count(), and one shuffle per mode for modes 1..N-1.

    Mode 0 reads the i0-partitioned view: one job. Under adaptive query
    execution each later mode runs three: a check of the persisted
    previous output, the shuffle map stage and the result stage.
    """
    counted = []
    cls = type(own_mpt.view(0))
    count = cls.count
    monkeypatch.setattr(cls, "count", lambda df: counted.append(df) or count(df))
    jobs, shuffles = _one_iteration(
        spark, own_mpt, own_mpt.shape, _cfg(variant="cache")
    )
    assert counted == []
    assert shuffles == 2
    assert jobs == 1 + 3 * 2


@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_failed_pass_releases_persisted_data(spark, variant):
    """An index ≥ I raises, and nothing persisted for the run outlives it."""
    t = lowrank_tensor(
        shape=(12, 10, 8), ranks=(2, 2, 2), nnz=300, noise=0.1, seed=7
    )
    idx = t.idx.copy()
    idx[0, 0] = t.shape[0]
    df = spark_entries_from_coo(spark, idx, t.vals)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    cfg = _cfg(ranks=(2, 2, 2), partitions=2, variant=variant)
    # The driver's assembly or, for cache, the mode-0 task raises.
    with pytest.raises((IndexError, PythonException), match="out of bounds"):
        ptucker.factorize(spark, df, t.shape, cfg)
    assert persistent().size() == before
