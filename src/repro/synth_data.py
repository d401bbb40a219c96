"""Synthetic sparse tensors for the P-Tucker reproduction (ICDE 2018).

The paper evaluates on (a) random synthetic tensors with values in [0,1]
(Section IV-B1), and (b) four real-world tensors — Yahoo-music,
MovieLens, a video and an image tensor (Table IV) — none of which are
available offline. The stand-ins below match order/shape ratios and,
where the experiment depends on it (discovery, accuracy), plant a known
low-rank structure so recovered concepts/relations can be verified.
Every generator is deterministic in ``seed``.
"""
import numpy as np


def sparse_tensor_uniform(*, shape, nnz, seed=0, distinct=True):
    """Random sparse tensor: |Omega| entries at (near-)distinct positions,
    values uniform in [0, 1] — the paper's synthetic-tensor recipe.

    Returns a ``repro.tensor.coo.CooTensor``. For huge index spaces the
    positions are sampled i.i.d. and deduplicated (collisions are
    vanishingly rare when prod(shape) >> nnz).
    """
    from repro.tensor.coo import CooTensor

    g = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    idx = np.stack(
        [g.integers(0, s, int(nnz * 1.05) + 8) for s in shape], axis=1
    ).astype(np.int64)
    if distinct:
        idx = np.unique(idx, axis=0)
        g.shuffle(idx)
    idx = idx[:nnz]
    vals = g.random(len(idx))
    return CooTensor(idx, vals, shape)


def lowrank_tensor(*, shape, ranks, nnz, noise=0.01, seed=0):
    """Sparse observations of a planted Tucker-structured tensor.

    X = G x_1 A1 ... x_N AN + eps with nonneg factors, sampled at nnz
    random positions. Used for convergence tests and video/image-like
    stand-ins: a factorization at the planted rank should reach fit ~= 1.
    Values are min-max normalized to [0, 1] as the paper normalizes its
    real tensors.
    """
    from repro.tensor.coo import CooTensor

    g = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    ranks = tuple(int(r) for r in ranks)
    factors = [g.random((i, j)) for i, j in zip(shape, ranks)]
    core = g.random(ranks)
    base = sparse_tensor_uniform(shape=shape, nnz=nnz, seed=seed + 1)
    idx = base.idx
    # Eq. 5 evaluated sparsely at the sampled positions.
    from repro.core.delta import predictions

    vals = predictions(core, factors, idx)
    vals = vals + noise * g.standard_normal(len(vals))
    lo, hi = vals.min(), vals.max()
    vals = (vals - lo) / (hi - lo) if hi > lo else vals * 0.0
    return CooTensor(idx, vals.astype(np.float64), shape)


def movielens_like(
    *,
    n_users=600,
    n_movies=400,
    n_years=21,
    n_hours=24,
    n_genres=3,
    nnz=40_000,
    noise=0.05,
    seed=7,
):
    """A 4-way (user, movie, year, hour; rating) tensor with planted
    genre structure — the MovieLens stand-in for Tables V-VI and Figs 7/11.

    Planted generative model:
      * each movie belongs to one of ``n_genres`` genres;
      * each user has a genre-affinity vector;
      * each genre has a year-popularity and an hour-preference profile
        (distinct peaks per genre, so genre-year and genre-hour relations
        are recoverable from the core tensor);
      * rating(u, m, y, h) = affinity[u, g(m)] * year_pop[g(m), y]
        * hour_pref[g(m), h] + noise, min-max normalized to [0, 1].

    Returns (CooTensor, ground_truth dict) where ground_truth holds the
    movie->genre labels and the per-genre year/hour peak sets.
    """
    from repro.tensor.coo import CooTensor

    g = np.random.default_rng(seed)
    genre_of_movie = g.integers(0, n_genres, n_movies)
    affinity = g.random((n_users, n_genres)) ** 2  # skewed preferences
    # Per-genre year/hour profiles with planted peaks.
    year_pop = 0.15 + 0.1 * g.random((n_genres, n_years))
    hour_pref = 0.15 + 0.1 * g.random((n_genres, n_hours))
    year_peaks, hour_peaks = [], []
    for c in range(n_genres):
        yp = g.choice(n_years, size=3, replace=False)
        hp = g.choice(n_hours, size=4, replace=False)
        year_pop[c, yp] = 0.9 + 0.1 * g.random(3)
        hour_pref[c, hp] = 0.9 + 0.1 * g.random(4)
        year_peaks.append(np.sort(yp))
        hour_peaks.append(np.sort(hp))

    users = g.integers(0, n_users, nnz)
    # Zipf-ish movie popularity: popular movies get most ratings.
    ranks_m = np.arange(1, n_movies + 1)
    w = 1.0 / ranks_m**0.8
    movies = g.choice(n_movies, size=nnz, p=w / w.sum())
    years = g.integers(0, n_years, nnz)
    hours = g.integers(0, n_hours, nnz)
    idx = np.stack([users, movies, years, hours], axis=1).astype(np.int64)
    idx = np.unique(idx, axis=0)
    u, m, y, h = idx.T
    gm = genre_of_movie[m]
    vals = (
        affinity[u, gm] * year_pop[gm, y] * hour_pref[gm, h]
        + noise * g.standard_normal(len(idx))
    )
    lo, hi = vals.min(), vals.max()
    vals = (vals - lo) / (hi - lo)
    tensor = CooTensor(
        idx, vals.astype(np.float64), (n_users, n_movies, n_years, n_hours)
    )
    truth = {
        "genre_of_movie": genre_of_movie,
        "year_peaks": year_peaks,
        "hour_peaks": hour_peaks,
        "affinity": affinity,
    }
    return tensor, truth


def video_like(*, sf=1.0, seed=11):
    """Stand-in for the Sea-wave video tensor: 4-way (112,160,3,32)-shaped
    low-rank tensor, 10%-sampled like the paper's version (~160K nnz at
    sf=1; sf scales the nnz)."""
    shape = (112, 160, 3, 32)
    nnz = max(100, int(160_000 * sf))
    return lowrank_tensor(shape=shape, ranks=(3, 3, 2, 3), nnz=nnz, seed=seed)


def image_like(*, sf=1.0, seed=13):
    """Stand-in for the 'Lena' image tensor: 3-way (256,256,3), ~20K nnz
    at sf=1 (10%-sampled), planted low rank."""
    shape = (256, 256, 3)
    nnz = max(100, int(20_000 * sf))
    return lowrank_tensor(shape=shape, ranks=(3, 3, 2), nnz=nnz, seed=seed)


def movielens_scaled(*, sf=1.0, seed=17):
    """Speed-benchmark MovieLens stand-in (no planted structure needed):
    4-way with the paper's (138K, 27K, 21, 24) shape scaled by sf on the
    two large modes and nnz = 20M * sf."""
    shape = (max(2, int(138_000 * sf)), max(2, int(27_000 * sf)), 21, 24)
    nnz = max(100, int(20_000_000 * sf))
    return sparse_tensor_uniform(shape=shape, nnz=nnz, seed=seed)


def yahoo_music_scaled(*, sf=1.0, seed=19):
    """Speed-benchmark Yahoo-music stand-in: (1M, 625K, 133, 24) scaled by
    sf on the two large modes, nnz = 252M * sf."""
    shape = (max(2, int(1_000_000 * sf)), max(2, int(625_000 * sf)), 133, 24)
    nnz = max(100, int(252_000_000 * sf))
    return sparse_tensor_uniform(shape=shape, nnz=nnz, seed=seed)
