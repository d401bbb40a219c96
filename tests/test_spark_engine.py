"""Integration tests: the Spark P-Tucker engines vs the sequential oracle."""
import itertools
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from py4j.protocol import Py4JJavaError
from pyspark.errors import PythonException

from repro.core import ptucker, reference
from repro.core.approx import use_sparse_core
from repro.core.config import PTuckerConfig
from repro.core.metrics import (
    reconstruction_error,
    spark_reconstruction_error,
)
from repro.synth_data import lowrank_tensor
from repro.tensor.coo import CooTensor
from repro.tensor.linalg import init_factors
from repro.tensor.spark_tensor import (
    ModePartitionedTensor,
    assemble_factor,
    block_pass,
    collect,
    spark_entries_from_coo,
    to_blocks,
)


@pytest.fixture(scope="module")
def tensor():
    return lowrank_tensor(
        shape=(40, 30, 20), ranks=(3, 3, 3), nnz=4000, noise=0.0, seed=1
    )


def _views(spark, t, partitions) -> ModePartitionedTensor:
    """The mode views of COO tensor ``t`` on ``partitions`` partitions."""
    return ModePartitionedTensor(t.to_spark(spark), t.shape, partitions)


@pytest.fixture(scope="module")
def mpt(spark, tensor):
    with _views(spark, tensor, 4) as m:
        yield m


def _cfg(**kw):
    base = dict(ranks=(3, 3, 3), max_iters=3, tol=0.0, seed=0)
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


def test_block_pass_runs_only_on_non_empty_partitions(spark):
    """3 distinct keys on 8 partitions: ``task`` runs once per non-empty
    partition, on its (idx, vals) block, and never on an empty block."""
    from pyspark.sql import functions as F

    pdf = pd.DataFrame(
        {
            "i0": [0, 1, 2, 0, 1, 2, 2],
            "i1": [5, 6, 7, 8, 9, 10, 11],
            "val": np.arange(7.0),
        }
    )
    df = spark.createDataFrame(pdf).repartition(8, "i0")
    non_empty = df.select(F.spark_partition_id()).distinct().count()
    bc = spark.sparkContext.broadcast(10.0)

    def task(state, idx, vals):
        assert idx.dtype == np.int64 and vals.dtype == np.float64
        np.testing.assert_array_equal(idx[:, 1] - 5, vals)
        return len(vals), idx.shape[1], state * vals.sum()

    try:
        out = collect(block_pass(to_blocks(df), bc, task))
    finally:
        bc.unpersist()
    assert len(out) == non_empty < 8
    n, order, s = map(np.array, zip(*out))
    assert (n > 0).all() and n.sum() == 7
    assert (order == 2).all()
    assert s.sum() == pytest.approx(10.0 * 21.0)


@pytest.mark.parametrize("order", [3, 4, 5])
def test_blocks_hold_exactly_their_view_partition(spark, order):
    """Block p of converted view n is view n's partition p, entries in
    order, so every row group is complete; with 3 keys per mode on 8
    partitions most partitions are empty and have no block."""
    from pyspark.sql import functions as F

    rng = np.random.default_rng(order)
    idx = rng.integers(0, 3, size=(60, order))
    t_df = spark_entries_from_coo(spark, idx, rng.standard_normal(60))
    m = ModePartitionedTensor(t_df, (3,) * order, partitions=8)
    try:
        for n in range(order):
            view = m.view(n)
            want = (
                view.withColumn("p", F.spark_partition_id())
                .toPandas()
                .groupby("p")
            )
            got = (
                to_blocks(view)
                .mapPartitionsWithIndex(lambda p, bs: [(p, b) for b in bs])
                .collect()
            )
            assert sorted(p for p, _ in got) == sorted(want.groups)
            for p, (b_idx, b_vals) in got:
                part = want.get_group(p)
                np.testing.assert_array_equal(
                    b_idx, part[[f"i{k}" for k in range(order)]].to_numpy()
                )
                np.testing.assert_array_equal(b_vals, part["val"].to_numpy())
            owners = [set(b_idx[:, n]) for _, (b_idx, _) in got]
            assert sum(map(len, owners)) == len(set().union(*owners)) == 3
    finally:
        m.unpersist()


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
    """Truncation at p=0.5 halves |G|=512 to 4 after 7 iterations, under
    the COO switch, so iteration 8 runs the COO kernels with the fused
    error and R(β); iteration 7 still runs dense."""
    cfg = _cfg(
        ranks=(8, 8, 8), variant="approx", truncation_rate=0.5, max_iters=8
    )
    rs = ptucker.factorize(spark, mpt, tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    assert use_sparse_core(rr.core_nnz_history[-2], 512)
    assert not use_sparse_core(rr.core_nnz_history[-3], 512)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)
    assert rs.core_nnz_history == rr.core_nnz_history


def test_spark_matches_reference_cache(spark, tensor, mpt):
    cfg = _cfg(variant="cache", max_iters=2)
    rs = ptucker.factorize(spark, mpt, tensor.shape, cfg)
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
    cfg = _cfg(max_iters=2, variant=variant)
    with _views(spark, tensor, partitions) as m:
        rs = ptucker.factorize(spark, m, tensor.shape, cfg)
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
    cfg = _cfg(ranks=(2, 2, 2), max_iters=2, variant=variant)
    with _views(spark, t, 8) as m:
        rs = ptucker.factorize(spark, m, t.shape, cfg)
    rr = reference.factorize(t, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=_RTOL[variant])
    assert rs.core_nnz_history == rr.core_nnz_history


def test_spark_error_monotone(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg(max_iters=5))
    es = rs.errors
    assert all(es[i + 1] <= es[i] + 1e-9 for i in range(len(es) - 1))


def test_assemble_factor_zero_fills():
    collected = [
        (np.array([1]), np.array([[1.0, 2.0]]), None, None),
        (np.array([3]), np.array([[3.0, 4.0]]), 0.5, None),
    ]
    out = assemble_factor(collected, 5, 2)
    np.testing.assert_allclose(out[1], [1, 2])
    np.testing.assert_allclose(out[3], [3, 4])
    np.testing.assert_allclose(out[[0, 2, 4]], 0.0)


def test_assemble_factor_empty():
    out = assemble_factor([], 4, 3)
    np.testing.assert_allclose(out, np.zeros((4, 3)))


def test_spark_sse_matches_numpy(spark, tensor, mpt):
    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=0)
    bc = spark.sparkContext.broadcast((core, factors, None))
    got = ptucker.spark_sse(to_blocks(mpt.view(0)), bc)
    bc.unpersist()
    want = reconstruction_error(tensor, core, factors) ** 2
    assert got == pytest.approx(want, rel=1e-9)


def test_spark_reconstruction_error_matches_numpy(spark, tensor):
    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=1)
    got = spark_reconstruction_error(
        to_blocks(tensor.to_spark(spark)), core, factors
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
    cfg = PTuckerConfig(ranks=(2, 2, 2), max_iters=40, tol=1e-3, seed=0)
    with _views(spark, t, 2) as m:
        rs = ptucker.factorize(spark, m, t.shape, cfg)
    assert rs.converged
    assert rs.n_iters < 40


_GROUPS = itertools.count()


def _one_iteration(spark, mpt, shape, cfg) -> tuple[int, int]:
    """(jobs, shuffle-writing stages) of a one-iteration factorization."""
    sc = spark.sparkContext
    group = f"one-iteration-{cfg.variant}-{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        ptucker.factorize(spark, mpt, shape, replace(cfg, max_iters=1))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()  # job events arrive asynchronously
    store = jsc.statusStore()
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    shuffles = 0
    for job in jobs:
        data, missing = store.job(job), 0
        stages = data.stageIds().iterator()
        while stages.hasNext():
            try:
                stage = store.lastStageAttempt(stages.next())
            except Py4JJavaError:
                # The store keeps spark.ui.retainedStages stages and drops
                # skipped ones (no completion time) first, whatever their
                # job; a skipped stage ran nothing in this job.
                missing += 1
                continue
            shuffles += stage.shuffleWriteRecords() > 0
        assert missing <= data.numSkippedStages()
    return len(jobs), shuffles


@pytest.fixture(scope="module")
def own_mpt(spark):
    """Views of a tensor no other test caches, so no test can release them."""
    t = lowrank_tensor(
        shape=(30, 20, 10), ranks=(3, 3, 3), nnz=1500, noise=0.1, seed=9
    )
    with _views(spark, t, 4) as m:
        yield m


@pytest.mark.parametrize("variant", ["default", "approx"])
def test_iteration_is_one_job_per_mode(spark, own_mpt, variant):
    """Each mode update is one action; error and R(β) add no pass."""
    jobs, shuffles = _one_iteration(
        spark, own_mpt, own_mpt.shape, _cfg(variant=variant)
    )
    assert (jobs, shuffles) == (3, 0)


def test_cache_iteration_passes(spark, own_mpt, monkeypatch):
    """Cache: no count(), one job per mode, and one shuffle per mode for
    modes 1..N-1.

    Mode 0 reads the blocks of the i0-partitioned view. Each later mode's
    job reshuffles the previous mode's persisted blocks (its shuffle map
    stage) and updates the rows (its result stage).
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
    assert jobs == 3


def _record_broadcasts(spark, monkeypatch) -> tuple[list, list]:
    """(made, released): every broadcast the driver makes from now on, and
    every broadcast unpersisted."""
    from pyspark import Broadcast

    made, released = [], []
    sc_cls = type(spark.sparkContext)
    broadcast, unpersist = sc_cls.broadcast, Broadcast.unpersist
    monkeypatch.setattr(
        sc_cls, "broadcast", lambda sc, v: made.append(broadcast(sc, v)) or made[-1]
    )
    monkeypatch.setattr(
        Broadcast,
        "unpersist",
        lambda b, *a, **k: released.append(b) or unpersist(b, *a, **k),
    )
    return made, released


def _is_persisted(m: ModePartitionedTensor) -> list[bool]:
    """Whether each view of ``m`` is persisted."""
    levels = [m.view(n).storageLevel for n in range(m.order)]
    return [lv.useMemory or lv.useDisk for lv in levels]


def _bad_views(spark, bad_index) -> ModePartitionedTensor:
    """Views, on 2 partitions, of a tensor whose first entry has mode-0
    index ``bad_index``; a mode-0 task over it raises."""
    t = lowrank_tensor(
        shape=(12, 10, 8), ranks=(2, 2, 2), nnz=300, noise=0.1, seed=7
    )
    idx = t.idx.copy()
    idx[0, 0] = bad_index
    return ModePartitionedTensor(
        spark_entries_from_coo(spark, idx, t.vals), t.shape, 2
    )


def _factorize_with_bad_index(spark, monkeypatch, variant, bad_index):
    """Factorize the ``_bad_views`` tensor; the mode-0 tasks raise. Asserts
    that nothing persisted or broadcast for the run outlives it, and that
    the caller's views stay persisted."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    with _bad_views(spark, bad_index) as m:
        before = persistent().size()
        made, released = _record_broadcasts(spark, monkeypatch)
        cfg = _cfg(ranks=(2, 2, 2), variant=variant)
        with pytest.raises(PythonException, match="out of bounds"):
            ptucker.factorize(spark, m, m.shape, cfg)
        assert persistent().size() == before
        assert all(_is_persisted(m))
    assert made
    assert {id(b) for b in released} == {id(b) for b in made}


@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_failed_pass_releases_persisted_data(spark, monkeypatch, variant):
    """An index ≥ I raises, and nothing persisted for the run outlives it."""
    _factorize_with_bad_index(spark, monkeypatch, variant, 12)


@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_negative_index_raises(spark, monkeypatch, variant):
    """A negative index raises instead of wrapping to the last row."""
    _factorize_with_bad_index(spark, monkeypatch, variant, -1)


@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_run_releases_broadcasts(spark, own_mpt, monkeypatch, variant):
    """A successful run broadcasts the model once per mode and unpersists
    every broadcast it made."""
    made, released = _record_broadcasts(spark, monkeypatch)
    cfg = _cfg(variant=variant, max_iters=1)
    ptucker.factorize(spark, own_mpt, own_mpt.shape, cfg)
    assert len(made) == 3
    assert {id(b) for b in released} == {id(b) for b in made}


@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_caller_owns_the_views(spark, variant):
    """A run persists nothing past its end, a raising run included, and
    leaves the caller's views persisted, so a second run on them gives
    the same errors; ``with`` releases the views when its block raises."""
    t = lowrank_tensor(
        shape=(12, 10, 8), ranks=(2, 2, 2), nnz=300, noise=0.1, seed=7
    )
    cfg = _cfg(ranks=(2, 2, 2), max_iters=2, variant=variant)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    outside = persistent().size()
    with pytest.raises(PythonException, match="out of bounds"):
        with _views(spark, t, 2) as good, _bad_views(spark, 12) as bad:
            before = persistent().size()
            first = ptucker.factorize(spark, good, t.shape, cfg)
            assert persistent().size() == before
            second = ptucker.factorize(spark, good, t.shape, cfg)
            assert persistent().size() == before
            assert second.errors == first.errors
            try:
                ptucker.factorize(spark, bad, t.shape, cfg)
            finally:
                assert persistent().size() == before
                assert all(_is_persisted(good) + _is_persisted(bad))
    assert persistent().size() == outside
    assert not any(_is_persisted(good) + _is_persisted(bad))


_EDGES = {
    "order2": ((20, 15), (2, 3), 120),
    "order5": ((6, 5, 4, 4, 3), (2, 2, 1, 2, 2), 400),
    "rank1": ((16, 12, 10), (1, 1, 1), 300),
    "duplicates": ((16, 12, 10), (2, 2, 2), 300),
}


@pytest.mark.parametrize(
    "edge, variant",
    [
        pytest.param(e, v, id=f"{e}-{v}")
        for e, v in itertools.product(_EDGES, ("default", "approx", "cache"))
    ],
)
def test_spark_matches_reference_edge_shapes(spark, edge, variant):
    """Spark == reference at order 2, order 5, rank 1, and with duplicate
    coordinates (each copy is its own observation in every engine)."""
    shape, ranks, nnz = _EDGES[edge]
    t = lowrank_tensor(shape=shape, ranks=ranks, nnz=nnz, noise=0.1, seed=3)
    if edge == "duplicates":  # the first 20 coordinates again, new values
        idx = np.concatenate([t.idx, t.idx[:20]])
        vals = np.concatenate([t.vals, np.random.default_rng(0).random(20)])
        t = CooTensor(idx, vals, t.shape)
    cfg = _cfg(ranks=ranks, max_iters=2, variant=variant)
    with _views(spark, t, 3) as m:
        rs = ptucker.factorize(spark, m, t.shape, cfg)
    rr = reference.factorize(t, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=_RTOL[variant])
    assert rs.core_nnz_history == rr.core_nnz_history


def test_failed_view_count_releases_persisted_data(spark, monkeypatch):
    """An index that does not cast to long fails the views' ``count()``
    under ANSI mode; none of the views stays persisted."""
    df = spark.createDataFrame(
        [("x", 0, 0, 1.0), ("1", 1, 1, 2.0)],
        "i0 string, i1 long, i2 long, val double",
    )
    views = []
    cls = type(df)
    persist = cls.persist
    monkeypatch.setattr(
        cls, "persist", lambda v, *a: views.append(v) or persist(v, *a)
    )
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    with pytest.raises(Exception, match="CAST_INVALID_INPUT"):
        ModePartitionedTensor(df, (2, 2, 2), partitions=2)
    assert persistent().size() == before
    # The count fails before any cached block is built, so the views'
    # entries in the cache manager are what would leak.
    assert len(views) == 3
    assert not any(
        v.storageLevel.useMemory or v.storageLevel.useDisk for v in views
    )
