"""Unit tests for the δ kernels (Eq. 13) and the Pres cache table."""
import numpy as np
import pytest

from repro.core import delta as dm
from repro.core.approx import (
    SPARSE_CORE_THRESHOLD,
    dense_core_from_coo,
    full_core_coo,
    use_sparse_core,
)
from repro.tensor.ops import reconstruct_dense


def _setup(order=3, seed=0, n_entries=20, rank=3, dim=6):
    g = np.random.default_rng(seed)
    shape = tuple(dim + k for k in range(order))
    ranks = tuple(rank for _ in range(order))
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    idx = np.stack([g.integers(0, s, n_entries) for s in shape], axis=1).astype(
        np.int64
    )
    return core, factors, idx


def _delta_bruteforce(core, factors, idx, mode):
    """Literal Eq. 13: loop over all core entries."""
    e, jn = len(idx), core.shape[mode]
    out = np.zeros((e, jn))
    for t in range(e):
        for beta in np.ndindex(*core.shape):
            prod = core[beta]
            for k in range(core.ndim):
                if k != mode:
                    prod *= factors[k][idx[t, k], beta[k]]
            out[t, beta[mode]] += prod
    return out


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("mode_sel", [0, -1])
def test_delta_dense_matches_bruteforce(order, mode_sel):
    mode = mode_sel % order
    core, factors, idx = _setup(order)
    got = dm.delta_dense(core, factors, idx, mode)
    want = _delta_bruteforce(core, factors, idx, mode)
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_delta_sparse_full_core_matches_dense(order):
    core, factors, idx = _setup(order, seed=1)
    c_idx, c_vals = full_core_coo(core)
    for mode in range(order):
        got = dm.delta_sparse(
            c_idx, c_vals, core.shape[mode], factors, idx, mode
        )
        want = dm.delta_dense(core, factors, idx, mode)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_delta_sparse_truncated_core():
    """Zeroing truncated entries densely must equal the COO path."""
    core, factors, idx = _setup(3, seed=2)
    c_idx, c_vals = full_core_coo(core)
    keep = np.arange(len(c_vals)) % 2 == 0
    c_idx, c_vals = c_idx[keep], c_vals[keep]
    core_trunc = np.zeros_like(core)
    core_trunc[tuple(c_idx.T)] = c_vals
    for mode in range(3):
        got = dm.delta_sparse(
            c_idx, c_vals, core.shape[mode], factors, idx, mode
        )
        want = dm.delta_dense(core_trunc, factors, idx, mode)
        np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("side", [0.5, 2.0])
def test_delta_dense_zero_filled_matches_sparse_at_switch(side):
    """The engines pick a kernel by ``use_sparse_core``; on either side of
    the switch both kernels give the same δ."""
    core, factors, idx = _setup(3, seed=12, n_entries=40, rank=10, dim=12)
    n_keep = round(side * SPARSE_CORE_THRESHOLD * core.size)
    assert use_sparse_core(n_keep, core.size) == (side < 1)
    c_idx, c_vals = full_core_coo(core)
    keep = np.sort(
        np.random.default_rng(13).choice(core.size, n_keep, replace=False)
    )
    c_idx, c_vals = c_idx[keep], c_vals[keep]
    zero_filled = dense_core_from_coo(c_idx, c_vals, core.shape)
    for mode in range(3):
        got = dm.delta_dense(zero_filled, factors, idx, mode)
        want = dm.delta_sparse(c_idx, c_vals, 10, factors, idx, mode)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_delta_sparse_empty_core():
    core, factors, idx = _setup(3)
    got = dm.delta_sparse(
        np.zeros((0, 3), np.int64), np.zeros(0), core.shape[0], factors, idx, 0
    )
    np.testing.assert_allclose(got, 0.0)


def test_compute_pres_matches_definition():
    """Pres[α][β] = G_β Π_k a^(k)_{i_k β_k} (Algorithm 3 line 4)."""
    core, factors, idx = _setup(3, n_entries=5)
    pres = dm.compute_pres(core, factors, idx)
    jmap = dm.flat_core_mode_indices(core.shape)
    for t in range(len(idx)):
        for b in range(core.size):
            beta = tuple(jmap[k][b] for k in range(core.ndim))
            want = core[beta]
            for k in range(core.ndim):
                want *= factors[k][idx[t, k], beta[k]]
            np.testing.assert_allclose(pres[t, b], want)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_delta_from_pres_matches_dense(order):
    core, factors, idx = _setup(order, seed=3)
    pres = dm.compute_pres(core, factors, idx)
    for mode in range(order):
        got = dm.delta_from_pres(pres, core, factors, idx, mode)
        want = dm.delta_dense(core, factors, idx, mode)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_delta_from_pres_zero_factor_fallback():
    """Alg. 3 line 12 caveat: with a zero factor value the division path
    is invalid; the fallback must still produce the exact δ."""
    core, factors, idx = _setup(3, seed=4)
    factors[1][idx[0, 1], 0] = 0.0  # poison one used factor entry
    pres = dm.compute_pres(core, factors, idx)
    got = dm.delta_from_pres(pres, core, factors, idx, mode=1)
    want = dm.delta_dense(core, factors, idx, mode=1)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_rescale_pres_matches_recompute():
    """Pres · a_new/a_old == Pres recomputed with the new factor."""
    core, factors, idx = _setup(3, seed=5)
    pres = dm.compute_pres(core, factors, idx)
    g = np.random.default_rng(6)
    old = factors[2].copy()
    factors[2] = g.random(factors[2].shape) + 0.1
    got = dm.rescale_pres(pres, core, factors, old, idx, mode=2)
    want = dm.compute_pres(core, factors, idx)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_rescale_pres_zero_old_fallback():
    core, factors, idx = _setup(3, seed=7)
    factors[0][idx[0, 0], 1] = 0.0
    pres = dm.compute_pres(core, factors, idx)
    old = factors[0].copy()
    factors[0] = np.random.default_rng(8).random(factors[0].shape) + 0.1
    got = dm.rescale_pres(pres, core, factors, old, idx, mode=0)
    want = dm.compute_pres(core, factors, idx)
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_predictions_match_dense_reconstruction(order):
    """Eq. 5 at observed positions == dense reconstruction lookups."""
    core, factors, idx = _setup(order, seed=9, n_entries=15)
    got = dm.predictions(core, factors, idx)
    recon = reconstruct_dense(core, factors)
    want = recon[tuple(idx.T)]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_predictions_sparse_core_matches_dense():
    core, factors, idx = _setup(3, seed=10)
    c_idx, c_vals = full_core_coo(core)
    got = dm.predictions_sparse_core(c_idx, c_vals, core.shape, factors, idx)
    want = dm.predictions(core, factors, idx)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_predictions_empty():
    core, factors, _ = _setup(3)
    out = dm.predictions(core, factors, np.zeros((0, 3), np.int64))
    assert out.shape == (0,)


def test_delta_dense_chunking_consistency(monkeypatch):
    """Results must not depend on the einsum chunk size."""
    core, factors, idx = _setup(3, seed=11, n_entries=57)
    want = dm.delta_dense(core, factors, idx, 0)
    monkeypatch.setattr(dm, "_SCRATCH_ELEMS", 16)
    got = dm.delta_dense(core, factors, idx, 0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_flat_core_mode_indices_c_order():
    jmap = dm.flat_core_mode_indices((2, 3))
    # C-order raveling: last mode fastest
    np.testing.assert_array_equal(jmap[0], [0, 0, 0, 1, 1, 1])
    np.testing.assert_array_equal(jmap[1], [0, 1, 2, 0, 1, 2])
