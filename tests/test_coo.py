"""Unit tests for the COO sparse-tensor substrate."""
import numpy as np
import pytest

from repro.tensor import coo
from repro.tensor.coo import CooTensor


def _small(order=3, seed=0, nnz=50):
    g = np.random.default_rng(seed)
    shape = tuple(range(5, 5 + order))
    idx = np.stack([g.integers(0, s, nnz) for s in shape], axis=1).astype(np.int64)
    idx = np.unique(idx, axis=0)
    vals = g.random(len(idx))
    return CooTensor(idx, vals, shape)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_order_and_nnz(order):
    t = _small(order)
    assert t.order == order
    assert t.nnz == len(t.vals)


def test_rejects_bad_idx_ndim():
    with pytest.raises(ValueError, match="2-D"):
        CooTensor(np.zeros(3, np.int64), np.zeros(3), (3,))


def test_rejects_misaligned_vals():
    with pytest.raises(ValueError, match="aligned"):
        CooTensor(np.zeros((3, 2), np.int64), np.zeros(4), (3, 3))


def test_rejects_shape_mode_mismatch():
    with pytest.raises(ValueError, match="modes"):
        CooTensor(np.zeros((3, 2), np.int64), np.zeros(3), (3, 3, 3))


def test_rejects_out_of_range_indices():
    idx = np.array([[0, 5]], np.int64)
    with pytest.raises(ValueError, match="out of range"):
        CooTensor(idx, np.ones(1), (3, 3))


def test_rejects_negative_indices():
    idx = np.array([[-1, 0]], np.int64)
    with pytest.raises(ValueError, match="out of range"):
        CooTensor(idx, np.ones(1), (3, 3))


def test_norm_matches_manual():
    t = _small()
    assert t.norm() == pytest.approx(np.sqrt((t.vals**2).sum()))


def test_to_dense_roundtrip():
    t = _small()
    dense = t.to_dense()
    back = coo.from_dense(dense)
    assert back.nnz == t.nnz
    np.testing.assert_allclose(back.to_dense(), dense)


def test_from_dense_keep_zeros():
    dense = np.zeros((2, 3))
    dense[0, 1] = 5.0
    t = coo.from_dense(dense, keep_zeros=True)
    assert t.nnz == 6
    np.testing.assert_allclose(t.to_dense(), dense)


def test_mask_dense_marks_observed():
    t = _small()
    w = t.mask_dense()
    assert w.sum() == t.nnz
    assert set(np.unique(w)) <= {0.0, 1.0}


def test_pandas_roundtrip():
    t = _small(order=4)
    pdf = t.to_pandas()
    back = np.stack([pdf[f"i{k}"].to_numpy() for k in range(t.order)], 1)
    np.testing.assert_array_equal(back, t.idx)
    np.testing.assert_allclose(pdf["val"].to_numpy(), t.vals)


def test_to_pandas_columns():
    t = _small(order=3)
    pdf = t.to_pandas()
    assert list(pdf.columns) == ["i0", "i1", "i2", "val"]
    assert pdf["i0"].dtype == np.int64


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5])
def test_split_sizes(frac):
    t = _small(nnz=400)
    train, test = t.split(frac, seed=3)
    assert train.nnz + test.nnz == t.nnz
    assert test.nnz == max(1, round(t.nnz * frac))


def test_split_deterministic():
    t = _small(nnz=200)
    a1, b1 = t.split(0.1, seed=9)
    a2, b2 = t.split(0.1, seed=9)
    np.testing.assert_array_equal(a1.idx, a2.idx)
    np.testing.assert_array_equal(b1.idx, b2.idx)


def test_split_disjoint():
    t = _small(nnz=300)
    train, test = t.split(0.2, seed=5)
    all_rows = {tuple(r) for r in t.idx}
    train_rows = {tuple(r) for r in train.idx}
    test_rows = {tuple(r) for r in test.idx}
    assert train_rows | test_rows == all_rows
    assert not (train_rows & test_rows)


@pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.5])
def test_split_rejects_bad_fraction(frac):
    with pytest.raises(ValueError):
        _small().split(frac, seed=0)


def test_spark_roundtrip(spark):
    t = _small(order=3)
    back = t.to_spark(spark).toPandas()
    # Spark does not preserve row order; compare as sets.
    got = sorted(map(tuple, back[["i0", "i1", "i2", "val"]].to_numpy()))
    want = sorted(map(tuple, np.column_stack([t.idx, t.vals])))
    np.testing.assert_allclose(got, want)


def test_spark_entry_count_oracle(spark):
    """Query-result check: per-mode-index entry counts vs DuckDB."""
    from repro.oracle import assert_equivalent

    t = _small(order=3, nnz=120)
    df = t.to_spark(spark)
    out = df.groupBy("i0").count().withColumnRenamed("count", "cnt")
    assert_equivalent(
        out,
        "SELECT i0, COUNT(*) AS cnt FROM entries GROUP BY i0",
        entries=t.to_pandas(),
    )
