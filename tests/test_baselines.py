"""Tests for the competitor baselines (HOOI family + wOPT)."""
import numpy as np
import pytest

from repro.baselines import (
    SimulatedOOM,
    factorize_csf,
    factorize_hooi,
    factorize_shot,
    factorize_wopt,
)
from repro.baselines.common import (
    ensure_budget,
    init_orthonormal_factors,
    leading_left_factor_from_gram,
    y_windows,
)
from repro.core import reference
from repro.core.config import PTuckerConfig
from repro.core.metrics import reconstruction_error, rmse
from repro.synth_data import lowrank_tensor
from repro.tensor.ops import kron_rows, ttmc_dense
from repro.tensor.spark_tensor import ModePartitionedTensor


@pytest.fixture(scope="module")
def tensor():
    return lowrank_tensor(
        shape=(25, 20, 15), ranks=(3, 3, 3), nnz=2500, noise=0.0, seed=2
    )


@pytest.fixture(scope="module")
def mpt(spark, tensor):
    with ModePartitionedTensor(tensor.to_spark(spark), tensor.shape, 4) as m:
        yield m


def test_ensure_budget_passes_within():
    ensure_budget(100, 1000, "x")  # no raise


def test_ensure_budget_none_unlimited():
    ensure_budget(10**18, None, "x")  # no raise


def test_ensure_budget_raises():
    with pytest.raises(SimulatedOOM, match="y needs"):
        ensure_budget(2000, 1000, "y")


def test_y_window_row_matches_kron_rows():
    """A Y row holding one entry is ⊗ of the other modes' factor rows,
    laid out as ``kron_rows`` (Eq. 2: lowest remaining mode fastest)."""
    g = np.random.default_rng(0)
    factors = [g.random((5, 2)), g.random((7, 3)), g.random((6, 2))]
    idx = np.stack(
        [g.integers(0, 5, 7), g.permutation(7), g.integers(0, 6, 7)], 1
    ).astype(np.int64)
    [(ids, rows)] = y_windows(idx, np.ones(7), factors, 1, None)
    for i, row in zip(ids, rows):
        t = np.flatnonzero(idx[:, 1] == i)[0]
        want = kron_rows([factors[0][idx[t, 0]], factors[2][idx[t, 2]]])
        np.testing.assert_allclose(row, want)


@pytest.mark.parametrize("window", [1, 2, None])
def test_y_windows_matches_ttmc(window):
    g = np.random.default_rng(1)
    shape = (8, 6, 5)
    idx = np.stack([g.integers(0, s, 60) for s in shape], 1).astype(np.int64)
    idx = g.permutation(np.unique(idx, axis=0))
    vals = g.random(len(idx))
    factors = [g.random((i, 2)) for i in shape]
    full = ttmc_dense(idx, vals, shape, factors, 1)
    windows = list(y_windows(idx, vals, factors, 1, window))
    assert all(len(ids) <= (window or len(idx)) for ids, _ in windows)
    ids = np.concatenate([w[0] for w in windows])
    np.testing.assert_array_equal(ids, np.unique(idx[:, 1]))
    rows = np.concatenate([w[1] for w in windows])
    np.testing.assert_allclose(rows, full[ids], atol=1e-10)


def test_leading_left_factor_from_gram():
    g = np.random.default_rng(2)
    y = g.standard_normal((40, 6))
    v, inv_sigma = leading_left_factor_from_gram(y.T @ y, 3)
    u = y @ (v * inv_sigma[None, :])
    # u must equal the top-3 left singular vectors up to column sign
    u_svd = np.linalg.svd(y, full_matrices=False)[0][:, :3]
    for j in range(3):
        dot = abs(u[:, j] @ u_svd[:, j])
        np.testing.assert_allclose(dot, 1.0, atol=1e-8)


def test_leading_left_factor_rank_deficient():
    y = np.outer(np.arange(5.0), np.array([1.0, 2.0]))  # rank 1
    v, inv_sigma = leading_left_factor_from_gram(y.T @ y, 2)
    assert inv_sigma[1] == 0.0  # null direction handled, not inf


def test_init_orthonormal_factors():
    fs = init_orthonormal_factors((10, 8), (3, 2), seed=0)
    for f in fs:
        np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)


def test_hooi_family_agree(spark, tensor, mpt):
    """HOOI, CSF and S-HOT are the same algorithm with different
    materialization — their error sequences must coincide."""
    kw = dict(max_iters=3, tol=0.0, seed=0)
    rh = factorize_hooi(mpt, (3, 3, 3), **kw)
    rc = factorize_csf(mpt, (3, 3, 3), **kw)
    rs = factorize_shot(mpt, (3, 3, 3), **kw)
    np.testing.assert_allclose(rc.errors, rh.errors, rtol=1e-6)
    np.testing.assert_allclose(rs.errors, rh.errors, rtol=1e-6)


def test_hooi_error_decreases(spark, tensor, mpt):
    res = factorize_hooi(mpt, (3, 3, 3), max_iters=4, tol=0.0, seed=0)
    assert res.errors[-1] <= res.errors[0]


def test_hooi_factors_orthonormal(spark, tensor, mpt):
    res = factorize_hooi(mpt, (3, 3, 3), max_iters=2, tol=0.0, seed=0)
    for f in res.factors:
        np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-8)


def test_csf_oom_guard(spark, tensor, mpt):
    with pytest.raises(SimulatedOOM):
        factorize_csf(mpt, (3, 3, 3), max_iters=1, mem_budget=10)


def test_shot_oom_guard(spark, tensor, mpt):
    with pytest.raises(SimulatedOOM):
        factorize_shot(mpt, (3, 3, 3), max_iters=1, mem_budget=10)


def test_shot_smaller_footprint_than_csf():
    """S-HOT must survive a budget that OOMs CSF (Table III ordering)."""
    # CSF needs I*J^{N-1}*8 = 25*9*8 = 1800 bytes; S-HOT needs
    # (81 + 256*9)*8 ~ 19k ... pick dims where scan window < I*K.
    from repro.baselines import shot_scan

    assert (9 * 9 + shot_scan._SCAN_ROWS * 9) * 8 < 10_000 * 9 * 8


def test_wopt_oom_guard(tensor):
    with pytest.raises(SimulatedOOM):
        factorize_wopt(tensor, (3, 3, 3), mem_budget=10)


def test_wopt_decreases_loss(tensor):
    res = factorize_wopt(
        tensor, (3, 3, 3), max_iters=4, tol=0.0, seed=0, inner_steps=5
    )
    assert res.errors[-1] < res.errors[0]


def test_wopt_accurate_on_small_planted():
    """Given enough iterations, the observed-only dense method reaches a
    good fit — the paper's 'Accuracy ✓' for wOPT."""
    t = lowrank_tensor(
        shape=(12, 10, 8), ranks=(2, 2, 2), nnz=700, noise=0.0, seed=5
    )
    res = factorize_wopt(
        t, (2, 2, 2), max_iters=30, tol=1e-7, seed=0, inner_steps=20
    )
    assert 1.0 - res.errors[-1] / t.norm() > 0.8


def test_ptucker_beats_zero_filling_on_sparse(spark, tensor, mpt):
    """The paper's core accuracy claim: on a sparse tensor the observed-
    only P-Tucker reconstructs far better than the zeros-as-missing HOOI
    family (Fig. 11: 1.4-4.8x; here the gap is much larger)."""
    pt = reference.factorize(
        tensor, PTuckerConfig(ranks=(3, 3, 3), max_iters=5, tol=0.0, seed=0)
    )
    sh = factorize_shot(mpt, (3, 3, 3), max_iters=5, tol=0.0, seed=0)
    assert pt.errors[-1] < sh.errors[-1] / 1.4


def test_ptucker_beats_zero_filling_test_rmse(spark):
    t = lowrank_tensor(
        shape=(30, 25, 20), ranks=(3, 3, 3), nnz=4000, noise=0.01, seed=6
    )
    train, test = t.split(0.1, seed=0)
    pt = reference.factorize(
        train, PTuckerConfig(ranks=(3, 3, 3), max_iters=8, tol=0.0, seed=0)
    )
    with ModePartitionedTensor(train.to_spark(spark), train.shape, 4) as m:
        sh = factorize_shot(m, (3, 3, 3), max_iters=8, tol=0.0, seed=0)
    rmse_pt = rmse(test, pt.core, pt.factors)
    rmse_sh = rmse(test, sh.core, sh.factors)
    assert rmse_pt < rmse_sh / 1.4


def test_wopt_recon_error_matches_metric(tensor):
    res = factorize_wopt(tensor, (3, 3, 3), max_iters=3, tol=0.0, seed=0)
    err = reconstruction_error(tensor, res.core, res.factors)
    assert err == pytest.approx(res.errors[-1], rel=1e-6)


@pytest.mark.parametrize(
    "factorize,bad",
    [
        pytest.param(
            f, bad, id=f.__name__ + ("" if bad == "past_end" else f"-{bad}")
        )
        for f in (factorize_shot, factorize_csf, factorize_hooi)
        for bad in ("past_end", "negative", "nan")
    ],
)
def test_failed_baseline_pass_releases_broadcasts(
    spark, monkeypatch, factorize, bad
):
    """A bad entry (mode-1 index ≥ I_1 or −1, or a NaN value) makes the
    first pass's tasks raise ``check_entries``'s ValueError; every
    broadcast the run made is unpersisted anyway, and so are its blocks,
    while the caller's views stay persisted."""
    from pyspark import Broadcast
    from pyspark.errors import PythonException

    from repro.tensor.spark_tensor import spark_entries_from_coo

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
    t = lowrank_tensor(shape=(12, 10, 8), ranks=(2, 2, 2), nnz=300, seed=7)
    idx, vals = t.idx.copy(), t.vals.copy()
    if bad == "nan":
        vals[0] = np.nan
    else:
        idx[0, 1] = t.shape[1] if bad == "past_end" else -1
    message = "non-finite" if bad == "nan" else "out of bounds"
    df = spark_entries_from_coo(spark, idx, vals)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    with ModePartitionedTensor(df, t.shape) as m:
        before = persistent().size()
        with pytest.raises(PythonException, match=f"ValueError: .*{message}"):
            factorize(m, (2, 2, 2), max_iters=1)
        assert persistent().size() == before
        assert all(m.view(n).storageLevel.useMemory for n in range(3))
    assert made
    assert {id(b) for b in released} == {id(b) for b in made}
