"""Tests for the synthetic sparse-tensor generators."""
import numpy as np
import pytest

from repro import synth_data as sd


@pytest.mark.parametrize("shape", [(10, 10, 10), (8, 6, 4, 3)])
def test_sparse_tensor_uniform_properties(shape):
    t = sd.sparse_tensor_uniform(shape=shape, nnz=200, seed=1)
    assert t.shape == shape
    assert t.nnz <= 200
    assert t.vals.min() >= 0 and t.vals.max() <= 1
    # positions distinct
    assert len(np.unique(t.idx, axis=0)) == t.nnz


def test_sparse_tensor_uniform_deterministic():
    a = sd.sparse_tensor_uniform(shape=(10, 10, 10), nnz=100, seed=2)
    b = sd.sparse_tensor_uniform(shape=(10, 10, 10), nnz=100, seed=2)
    np.testing.assert_array_equal(a.idx, b.idx)
    np.testing.assert_allclose(a.vals, b.vals)


def test_lowrank_tensor_is_low_rank():
    """A rank-(2,2,2) factorization must fit the noiseless planted tensor."""
    from repro.core import reference
    from repro.core.config import PTuckerConfig

    t = sd.lowrank_tensor(
        shape=(15, 12, 10), ranks=(2, 2, 2), nnz=900, noise=0.0, seed=3
    )
    res = reference.factorize(
        t, PTuckerConfig(ranks=(2, 2, 2), max_iters=15, tol=1e-7, seed=0)
    )
    assert res.fit(t.norm()) > 0.95


def test_lowrank_tensor_normalized():
    t = sd.lowrank_tensor(shape=(10, 10, 10), ranks=(2, 2, 2), nnz=300, seed=4)
    assert t.vals.min() >= 0.0 and t.vals.max() <= 1.0


def test_movielens_like_shapes_and_truth():
    t, truth = sd.movielens_like(
        n_users=50, n_movies=40, nnz=2000, n_genres=3, seed=5
    )
    assert t.shape == (50, 40, 21, 24)
    assert len(truth["genre_of_movie"]) == 40
    assert len(truth["year_peaks"]) == 3
    assert len(truth["hour_peaks"]) == 3
    assert t.vals.min() >= 0 and t.vals.max() <= 1


def test_movielens_like_genre_signal():
    """Entries of a movie's own genre-peaked (year, hour) cells must be
    larger on average than off-peak cells — the planted signal exists."""
    t, truth = sd.movielens_like(
        n_users=200, n_movies=100, nnz=20000, noise=0.0, seed=6
    )
    gm = truth["genre_of_movie"][t.idx[:, 1]]
    year_peak = np.zeros(len(gm), bool)
    hour_peak = np.zeros(len(gm), bool)
    for c, (yp, hp) in enumerate(zip(truth["year_peaks"], truth["hour_peaks"])):
        sel = gm == c
        year_peak[sel] = np.isin(t.idx[sel, 2], yp)
        hour_peak[sel] = np.isin(t.idx[sel, 3], hp)
    on_peak = year_peak & hour_peak
    assert t.vals[on_peak].mean() > t.vals[~on_peak].mean() * 1.5


def test_video_image_standins():
    v = sd.video_like(sf=0.05)
    assert v.shape == (112, 160, 3, 32)
    i = sd.image_like(sf=0.05)
    assert i.shape == (256, 256, 3)
    assert i.order == 3 and v.order == 4


def test_scaled_rating_standins():
    m = sd.movielens_scaled(sf=0.001)
    assert m.order == 4
    assert m.shape[2:] == (21, 24)
    y = sd.yahoo_music_scaled(sf=0.0001)
    assert y.order == 4
    assert y.shape[2:] == (133, 24)


def test_tensor_to_spark_roundtrip(spark):
    t = sd.sparse_tensor_uniform(shape=(10, 8, 6), nnz=100, seed=7)
    assert t.to_spark(spark).count() == t.nnz
