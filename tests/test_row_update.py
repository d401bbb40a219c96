"""Unit tests for the row-wise update kernel (Eq. 10-12, Eq. 14)."""
import numpy as np
import pytest

from repro.core import delta as dm
from repro.core.approx import full_core_coo
from repro.core.row_update import (
    accumulate_b_c,
    rerror_partial,
    sse_partial,
    update_rows,
)

def _setup(order=3, seed=0, n_entries=60, rank=3, dim=5):
    g = np.random.default_rng(seed)
    shape = tuple(dim + k for k in range(order))
    ranks = tuple(rank for _ in range(order))
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    idx = np.stack(
        [g.integers(0, s, n_entries) for s in shape], axis=1
    ).astype(np.int64)
    idx = np.unique(idx, axis=0)
    vals = g.random(len(idx))
    return core, factors, idx, vals


def _loss(core, factors, idx, vals, lam):
    """Literal Eq. 7."""
    pred = dm.predictions(core, factors, idx)
    reg = sum(np.sum(f * f) for f in factors)
    return np.sum((vals - pred) ** 2) + lam * reg


def test_accumulate_b_c_bruteforce():
    g = np.random.default_rng(1)
    keys = np.sort(g.integers(0, 4, 30))
    delta = g.random((30, 3))
    vals = g.random(30)
    _, starts = np.unique(keys, return_index=True)
    b, c = accumulate_b_c(delta, vals, starts)
    uniq = np.unique(keys)
    for r, key in enumerate(uniq):
        sel = keys == key
        np.testing.assert_allclose(
            b[r], sum(np.outer(d, d) for d in delta[sel]), atol=1e-12
        )
        np.testing.assert_allclose(
            c[r], (vals[sel, None] * delta[sel]).sum(0), atol=1e-12
        )


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_update_minimizes_loss_over_row(mode):
    """Theorem 1: the updated row is the argmin of Eq. 7 w.r.t. that row.

    Verified by perturbation: any random perturbation of any updated row
    must not decrease the loss.
    """
    core, factors, idx, vals = _setup(seed=2)
    lam = 0.05
    upd = update_rows(idx, vals, core, factors, mode, lam)
    new_factors = [f.copy() for f in factors]
    new_factors[mode][upd.indices] = upd.rows
    base = _loss(core, new_factors, idx, vals, lam)
    g = np.random.default_rng(3)
    for _ in range(20):
        pert = [f.copy() for f in new_factors]
        r = g.integers(0, len(upd.indices))
        pert[mode][upd.indices[r]] += 0.01 * g.standard_normal(
            core.shape[mode]
        )
        assert _loss(core, pert, idx, vals, lam) >= base - 1e-9


def test_update_never_increases_loss():
    """Each row update minimizes Eq. 7, so the whole mode update cannot
    increase it (Theorem 2's monotonicity argument)."""
    core, factors, idx, vals = _setup(seed=4)
    lam = 0.01
    before = _loss(core, factors, idx, vals, lam)
    for mode in range(3):
        upd = update_rows(idx, vals, core, factors, mode, lam)
        factors[mode] = np.zeros_like(factors[mode])
        factors[mode][upd.indices] = upd.rows
        after = _loss(core, factors, idx, vals, lam)
        assert after <= before + 1e-9
        before = after


def test_update_rows_gradient_zero():
    """At the argmin, the Eq. 7 gradient w.r.t. the updated row vanishes."""
    core, factors, idx, vals = _setup(seed=5)
    lam = 0.1
    mode = 1
    upd = update_rows(idx, vals, core, factors, mode, lam)
    factors[mode] = np.zeros_like(factors[mode])
    factors[mode][upd.indices] = upd.rows
    # numerical gradient for one row
    i_row = upd.indices[0]
    eps = 1e-6
    for j in range(core.shape[mode]):
        fp = [f.copy() for f in factors]
        fp[mode][i_row, j] += eps
        fm = [f.copy() for f in factors]
        fm[mode][i_row, j] -= eps
        grad = (
            _loss(core, fp, idx, vals, lam) - _loss(core, fm, idx, vals, lam)
        ) / (2 * eps)
        assert abs(grad) < 1e-4


def test_update_rows_variants_agree():
    """Default, sparse-core (full COO), and Pres paths give the same rows."""
    core, factors, idx, vals = _setup(seed=6)
    c_idx, c_vals = full_core_coo(core)
    pres = dm.compute_pres(core, factors, idx)
    for mode in range(3):
        d = update_rows(idx, vals, core, factors, mode, 0.01)
        s = update_rows(
            idx, vals, core, factors, mode, 0.01, core_coo=(c_idx, c_vals)
        )
        c = update_rows(idx, vals, core, factors, mode, 0.01, pres=pres)
        np.testing.assert_array_equal(d.indices, s.indices)
        np.testing.assert_allclose(d.rows, s.rows, atol=1e-10)
        np.testing.assert_allclose(d.rows, c.rows, atol=1e-10)


def test_update_rows_empty_batch():
    core, factors, _, _ = _setup()
    upd = update_rows(
        np.zeros((0, 3), np.int64), np.zeros(0), core, factors, 0, 0.01
    )
    assert len(upd.indices) == 0
    assert upd.rows.shape == (0, core.shape[0])
    assert upd.pred.shape == (0,)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("path", ["dense", "coo", "pres"])
def test_update_rows_pred_matches_predictions(order, path):
    """``pred`` is Eq. 5 on the factors with the new rows written in, in
    input order, whichever δ path built it."""
    core, factors, idx, vals = _setup(
        order=order, seed=20 + order, n_entries=80, rank=2, dim=4
    )
    perm = np.random.default_rng(order).permutation(len(vals))
    idx, vals = idx[perm], vals[perm]  # not sorted by any mode
    c_idx, c_vals = full_core_coo(core)
    keep = np.arange(len(c_vals)) % 3 != 0  # a truncated COO core
    c_idx, c_vals = c_idx[keep], c_vals[keep]
    core_t = np.zeros_like(core)
    core_t[tuple(c_idx.T)] = c_vals
    kw = {
        "dense": {},
        "coo": {"core_coo": (c_idx, c_vals)},
        "pres": {"pres": dm.compute_pres(core_t, factors, idx)},
    }[path]
    for mode in range(order):
        upd = update_rows(idx, vals, core_t, factors, mode, 0.01, **kw)
        new = [f.copy() for f in factors]
        new[mode][upd.indices] = upd.rows
        np.testing.assert_allclose(
            upd.pred, dm.predictions(core_t, new, idx), rtol=1e-12, atol=1e-12
        )


def test_sse_partial_matches_manual():
    core, factors, idx, vals = _setup(seed=7)
    sse, cnt = sse_partial(idx, vals, core, factors)
    pred = dm.predictions(core, factors, idx)
    np.testing.assert_allclose(sse, np.sum((vals - pred) ** 2))
    assert cnt == len(vals)


def test_sse_partial_sparse_core_path():
    core, factors, idx, vals = _setup(seed=8)
    c_idx, c_vals = full_core_coo(core)
    sse_d, _ = sse_partial(idx, vals, core, factors)
    sse_s, _ = sse_partial(
        idx, vals, core, factors, core_coo=(c_idx, c_vals)
    )
    np.testing.assert_allclose(sse_s, sse_d, atol=1e-9)


def _rerror_bruteforce(idx, vals, core_idx, core_vals, ranks, factors):
    """Literal first line of Eq. 14: error-with-β minus error-without-β."""
    out = np.zeros(len(core_vals))
    for b in range(len(core_vals)):
        full_sse = 0.0
        wo_sse = 0.0
        for t in range(len(vals)):
            pred_full = 0.0
            pred_wo = 0.0
            for gidx in range(len(core_vals)):
                term = core_vals[gidx]
                for k in range(idx.shape[1]):
                    term *= factors[k][idx[t, k], core_idx[gidx, k]]
                pred_full += term
                if gidx != b:
                    pred_wo += term
            full_sse += (vals[t] - pred_full) ** 2
            wo_sse += (vals[t] - pred_wo) ** 2
        out[b] = full_sse - wo_sse
    return out


def test_rerror_partial_matches_eq14_definition():
    """Our simplified R(β) must equal the literal difference-of-errors."""
    core, factors, idx, vals = _setup(seed=9, n_entries=15, rank=2, dim=4)
    c_idx, c_vals = full_core_coo(core)
    got = rerror_partial(idx, vals, c_idx, c_vals, core.shape, factors)
    want = _rerror_bruteforce(idx, vals, c_idx, c_vals, core.shape, factors)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_rerror_partial_truncated_core_empty_slice():
    """Eq. 14 on a truncated core in which a whole mode-0 slice and part
    of the last mode are gone: zeros of the core must not leak into R(β)."""
    core, factors, idx, vals = _setup(seed=11, n_entries=15, rank=3, dim=4)
    c_idx, c_vals = full_core_coo(core)
    keep = (c_idx[:, 0] != 1) & ((c_idx[:, 2] != 2) | (c_idx[:, 1] == 0))
    c_idx, c_vals = c_idx[keep], c_vals[keep]
    got = rerror_partial(idx, vals, c_idx, c_vals, core.shape, factors)
    want = _rerror_bruteforce(idx, vals, c_idx, c_vals, core.shape, factors)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_rerror_partial_chunking_consistency(monkeypatch):
    """R(β) across entry-chunk boundaries still matches Eq. 14 literally."""
    core, factors, idx, vals = _setup(seed=12, n_entries=57, rank=3, dim=5)
    c_idx, c_vals = full_core_coo(core)
    c_idx, c_vals = c_idx[::2], c_vals[::2]
    monkeypatch.setattr(dm, "_SCRATCH_ELEMS", 4 * 9)  # 4-entry chunks
    assert dm.chunk_rows(core.shape, 2) < len(vals)
    got = rerror_partial(idx, vals, c_idx, c_vals, core.shape, factors)
    want = _rerror_bruteforce(idx, vals, c_idx, c_vals, core.shape, factors)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_rerror_partial_additive_over_batches():
    """Partials over entry batches must sum to the whole (needed by the
    distributed reduction)."""
    core, factors, idx, vals = _setup(seed=10, n_entries=30, rank=2, dim=4)
    c_idx, c_vals = full_core_coo(core)
    whole = rerror_partial(idx, vals, c_idx, c_vals, core.shape, factors)
    half = len(vals) // 2
    part = rerror_partial(
        idx[:half], vals[:half], c_idx, c_vals, core.shape, factors
    ) + rerror_partial(
        idx[half:], vals[half:], c_idx, c_vals, core.shape, factors
    )
    np.testing.assert_allclose(part, whole, atol=1e-9)
