"""Unit tests for tensor operations (matricization, n-mode product, TTMc)."""
import numpy as np
import pytest

from repro.tensor import ops
from repro.tensor.coo import CooTensor, from_dense


def _rand_dense(shape, seed=0):
    return np.random.default_rng(seed).random(shape)


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 3, 4, 2)])
@pytest.mark.parametrize("mode_sel", [0, -1])
def test_unfold_fold_roundtrip(shape, mode_sel):
    mode = mode_sel % len(shape)
    x = _rand_dense(shape)
    u = ops.unfold(x, mode)
    assert u.shape == (shape[mode], x.size // shape[mode])
    np.testing.assert_allclose(ops.fold(u, shape, mode), x)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 2, 5, 2)])
def test_matricization_col_index_matches_unfold(shape):
    """Eq. 2 index math must agree with the dense unfold layout."""
    x = _rand_dense(shape)
    t = from_dense(x, keep_zeros=True)
    for mode in range(len(shape)):
        u = ops.unfold(x, mode)
        cols = ops.matricization_col_index(t.idx, shape, mode)
        np.testing.assert_allclose(u[t.idx[:, mode], cols], t.vals)


@pytest.mark.parametrize("shape,mode", [((2, 3, 4), 0), ((2, 3, 4), 1), ((2, 3, 4), 2)])
def test_mode_n_product_elementwise(shape, mode):
    """Definition 3: each output element is the contraction of Eq. 3."""
    x = _rand_dense(shape)
    u = _rand_dense((2, shape[mode]), seed=1)
    y = ops.mode_n_product(x, u, mode)
    expect_shape = list(shape)
    expect_shape[mode] = 2
    assert y.shape == tuple(expect_shape)
    # brute-force check at a few positions
    g = np.random.default_rng(2)
    for _ in range(10):
        pos = [g.integers(0, s) for s in expect_shape]
        acc = 0.0
        for i in range(shape[mode]):
            src = list(pos)
            src[mode] = i
            acc += x[tuple(src)] * u[pos[mode], i]
        np.testing.assert_allclose(y[tuple(pos)], acc)


def test_mode_n_product_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ops.mode_n_product(_rand_dense((2, 3)), np.ones((2, 4)), 0)


def test_mode_n_product_via_unfold():
    """X ×_n U unfolds to U · X_(n)."""
    x = _rand_dense((3, 4, 5))
    u = _rand_dense((2, 4), seed=3)
    y = ops.mode_n_product(x, u, 1)
    np.testing.assert_allclose(ops.unfold(y, 1), u @ ops.unfold(x, 1))


def test_multi_mode_product_skips_none():
    x = _rand_dense((3, 4, 5))
    u = _rand_dense((2, 4), seed=4)
    y = ops.multi_mode_product(x, [None, u, None])
    np.testing.assert_allclose(y, ops.mode_n_product(x, u, 1))


def test_kron_rows_lowest_fastest():
    a = np.array([1.0, 2.0])
    b = np.array([10.0, 100.0])
    out = ops.kron_rows([a, b])
    # index j = j0 + 2*j1 (mode 0 fastest)
    np.testing.assert_allclose(out, [1 * 10, 2 * 10, 1 * 100, 2 * 100])


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 3)])
def test_ttmc_dense_matches_mode_products(shape):
    """Sparse TTMc must equal the dense X ×_{k≠n} A^(k)T unfolded at n."""
    x = _rand_dense(shape)
    t = from_dense(x, keep_zeros=True)
    ranks = tuple(2 for _ in shape)
    factors = [
        _rand_dense((i, j), seed=10 + k)
        for k, (i, j) in enumerate(zip(shape, ranks))
    ]
    for mode in range(len(shape)):
        got = ops.ttmc_dense(t.idx, t.vals, shape, factors, mode)
        dense = ops.multi_mode_product(
            x,
            [f.T if k != mode else None for k, f in enumerate(factors)],
        )
        want = ops.unfold(dense, mode)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_ttmc_missing_as_zero():
    """TTMc over a sparse tensor equals TTMc over its zero-filled dense."""
    g = np.random.default_rng(5)
    shape = (6, 5, 4)
    idx = np.stack([g.integers(0, s, 30) for s in shape], 1).astype(np.int64)
    idx = np.unique(idx, axis=0)
    t = CooTensor(idx, g.random(len(idx)), shape)
    factors = [_rand_dense((i, 2), seed=20 + k) for k, i in enumerate(shape)]
    got = ops.ttmc_dense(t.idx, t.vals, shape, factors, 0)
    dense = ops.multi_mode_product(
        t.to_dense(), [None, factors[1].T, factors[2].T]
    )
    np.testing.assert_allclose(got, ops.unfold(dense, 0), atol=1e-10)


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 2, 3, 3)])
def test_core_from_factors_matches_dense(spark, shape):
    """G = X ×_n A^(n)T for all n: the baselines' distributed core update
    (Algorithm 1 line 7) vs the dense n-mode products."""
    from repro.baselines.common import spark_core_update
    from repro.tensor.spark_tensor import to_blocks

    x = _rand_dense(shape)
    t = from_dense(x, keep_zeros=True)
    factors = [_rand_dense((i, 2), seed=30 + k) for k, i in enumerate(shape)]
    got = spark_core_update(
        to_blocks(t.to_spark(spark)), factors, (2,) * len(shape)
    )
    want = ops.multi_mode_product(x, [f.T for f in factors])
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_reconstruct_dense_matches_elementwise():
    """Eq. 5: reconstruction entry = sum over core of G_β Π a."""
    ranks = (2, 3, 2)
    shape = (4, 3, 5)
    core = _rand_dense(ranks, seed=7)
    factors = [_rand_dense((i, j), seed=40 + k) for k, (i, j) in enumerate(zip(shape, ranks))]
    recon = ops.reconstruct_dense(core, factors)
    g = np.random.default_rng(8)
    for _ in range(10):
        pos = tuple(g.integers(0, s) for s in shape)
        acc = 0.0
        for b in np.ndindex(*ranks):
            acc += core[b] * np.prod(
                [factors[n][pos[n], b[n]] for n in range(3)]
            )
        np.testing.assert_allclose(recon[pos], acc)
