"""Unit tests for the dense linear-algebra helpers."""
import numpy as np
import pytest

from repro.tensor import linalg
from repro.tensor.ops import reconstruct_dense


def _spd(j, seed=0):
    g = np.random.default_rng(seed)
    a = g.standard_normal((j, j))
    return a @ a.T


@pytest.mark.parametrize("j", [1, 2, 5, 8])
def test_solve_row_matches_inverse(j):
    b = _spd(j)
    c = np.random.default_rng(1).standard_normal(j)
    lam = 0.01
    got = linalg.solve_rows_batched(b[None], c[None], lam)[0]
    want = c @ np.linalg.inv(b + lam * np.eye(j))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_solve_row_zero_b_is_zero():
    """B = c = 0 (unobserved row) must give the zero row (Eq. 10)."""
    got = linalg.solve_rows_batched(np.zeros((1, 3, 3)), np.zeros((1, 3)), 0.01)
    np.testing.assert_allclose(got, 0.0)


@pytest.mark.parametrize("r,j", [(1, 2), (4, 3), (10, 5)])
def test_solve_rows_batched_matches_loop(r, j):
    g = np.random.default_rng(2)
    bs = np.stack([_spd(j, seed=i) for i in range(r)])
    cs = g.standard_normal((r, j))
    got = linalg.solve_rows_batched(bs, cs, 0.1)
    for i in range(r):
        np.testing.assert_allclose(
            got[i], np.linalg.solve(bs[i] + 0.1 * np.eye(j), cs[i]), atol=1e-10
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qr_orthogonalize_preserves_reconstruction(seed):
    """Algorithm 2 lines 8-11 must not change G ×_1 A ... (Eq. 8-9)."""
    g = np.random.default_rng(seed)
    shape, ranks = (6, 5, 4), (2, 3, 2)
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    before = reconstruct_dense(core, factors)
    nf, nc = linalg.qr_orthogonalize(factors, core)
    after = reconstruct_dense(nc, nf)
    np.testing.assert_allclose(after, before, atol=1e-10)


def test_qr_orthogonalize_gives_orthonormal_columns():
    g = np.random.default_rng(3)
    factors = [g.random((8, 3)), g.random((6, 2))]
    core = g.random((3, 2))
    nf, _ = linalg.qr_orthogonalize(factors, core)
    for q in nf:
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)


def test_init_factors_deterministic():
    f1, c1 = linalg.init_factors((4, 5), (2, 3), seed=7)
    f2, c2 = linalg.init_factors((4, 5), (2, 3), seed=7)
    for a, b in zip(f1, f2):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(c1, c2)


def test_init_factors_range_and_shapes():
    factors, core = linalg.init_factors((4, 5, 6), (2, 3, 2), seed=0)
    assert [f.shape for f in factors] == [(4, 2), (5, 3), (6, 2)]
    assert core.shape == (2, 3, 2)
    for f in factors:
        assert f.min() >= 0 and f.max() <= 1
    assert core.min() >= 0 and core.max() <= 1


def test_init_factors_order_mismatch():
    with pytest.raises(ValueError, match="order"):
        linalg.init_factors((4, 5), (2, 3, 2), seed=0)
