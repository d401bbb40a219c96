"""Property-based tests (hypothesis) for the numeric substrates."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import delta as dm
from repro.tensor import ops
from repro.tensor.linalg import solve_rows_batched

shapes = st.lists(st.integers(2, 5), min_size=2, max_size=4).map(tuple)


@given(shape=shapes, data=st.data())
@settings(max_examples=25, deadline=None)
def test_matricization_index_bijective_per_mode(shape, data):
    """Eq. 2 must biject the non-mode index space onto [0, Π I_k)."""
    mode = data.draw(st.integers(0, len(shape) - 1))
    full = np.indices(shape).reshape(len(shape), -1).T.astype(np.int64)
    cols = ops.matricization_col_index(full, shape, mode)
    rest = int(np.prod([s for k, s in enumerate(shape) if k != mode]))
    assert cols.min() >= 0 and cols.max() < rest
    # (row, col) pairs unique -> bijection
    pairs = set(zip(full[:, mode].tolist(), cols.tolist()))
    assert len(pairs) == len(full)


@given(shape=shapes, seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=20, deadline=None)
def test_unfold_fold_identity(shape, seed, data):
    mode = data.draw(st.integers(0, len(shape) - 1))
    x = np.random.default_rng(seed).random(shape)
    np.testing.assert_allclose(ops.fold(ops.unfold(x, mode), shape, mode), x)


@given(seed=st.integers(0, 10_000), j=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_solve_row_solves_regularized_system(seed, j):
    g = np.random.default_rng(seed)
    a = g.standard_normal((j, j))
    b = a @ a.T
    c = g.standard_normal(j)
    lam = 0.1
    row = solve_rows_batched(b[None], c[None], lam)[0]
    np.testing.assert_allclose(row @ (b + lam * np.eye(j)), c, atol=1e-8)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_delta_linear_in_core(seed):
    """δ (Eq. 13) is linear in G: δ(aG1 + bG2) = a·δ(G1) + b·δ(G2)."""
    g = np.random.default_rng(seed)
    shape, ranks = (5, 4, 6), (2, 3, 2)
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    idx = np.stack([g.integers(0, s, 8) for s in shape], 1).astype(np.int64)
    g1, g2 = g.random(ranks), g.random(ranks)
    a, b = g.random(), g.random()
    lhs = dm.delta_dense(a * g1 + b * g2, factors, idx, 1)
    rhs = a * dm.delta_dense(g1, factors, idx, 1) + b * dm.delta_dense(
        g2, factors, idx, 1
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_predictions_multilinear_scaling(seed):
    """Scaling one factor matrix scales Eq. 5 predictions linearly."""
    g = np.random.default_rng(seed)
    shape, ranks = (4, 5, 3), (2, 2, 2)
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    idx = np.stack([g.integers(0, s, 6) for s in shape], 1).astype(np.int64)
    base = dm.predictions(core, factors, idx)
    scaled = [f.copy() for f in factors]
    scaled[2] = 3.0 * scaled[2]
    np.testing.assert_allclose(
        dm.predictions(core, scaled, idx), 3.0 * base, atol=1e-9
    )


@given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_sse_partial_additivity(seed, n):
    """SSE partials over any split must sum to the whole — the invariant
    the distributed reduction relies on."""
    from repro.core.row_update import sse_partial

    g = np.random.default_rng(seed)
    shape, ranks = (6, 5, 4), (2, 2, 2)
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    idx = np.stack([g.integers(0, s, 50) for s in shape], 1).astype(np.int64)
    vals = g.random(50)
    whole, cnt = sse_partial(idx, vals, core, factors)
    s1, c1 = sse_partial(idx[:n], vals[:n], core, factors)
    s2, c2 = sse_partial(idx[n:], vals[n:], core, factors)
    assert cnt == c1 + c2 == 50
    np.testing.assert_allclose(s1 + s2, whole, atol=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_y_window_layout_matches_col_index(seed):
    """y_windows' column layout must match Eq. 2's column indices: with
    identity factors, a Y row holding one entry is the unit vector at
    that entry's matricization_col_index."""
    g = np.random.default_rng(seed)
    shape = (4, 6, 5)
    factors = [np.eye(s) for s in shape]  # identity factors expose layout
    from repro.baselines.common import y_windows

    idx = np.stack(
        [g.integers(0, 4, 5), g.permutation(6)[:5], g.integers(0, 5, 5)], 1
    ).astype(np.int64)
    [(ids, rows)] = y_windows(idx, np.ones(5), factors, 1, None)
    cols = ops.matricization_col_index(idx, shape, 1)
    for i, row in zip(ids, rows):
        want = np.zeros(shape[0] * shape[2])
        want[cols[idx[:, 1] == i]] = 1.0
        np.testing.assert_allclose(row, want)
