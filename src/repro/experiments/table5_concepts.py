"""Table V: concept discovery on the MovieLens(-like) tensor.

The paper runs P-Tucker (J=8) on MovieLens, K-means (K=100) on the
movie-mode factor matrix, and reads genres out of the clusters. On the
planted stand-in the genres are known, so the reproduction reports
cluster *purity* against the planted movie→genre labels plus an
exemplar table in the spirit of Table V (top movies per concept, with
their planted genre).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.discovery.concepts import discover_concepts
from repro.synth_data import movielens_like
from repro.tensor.spark_tensor import ModePartitionedTensor


def factorize_movielens(spark, rank, iters, nnz, n_users, n_movies, seed):
    """P-Tucker on the planted MovieLens-like tensor; (result, truth).

    The year and hour ranks are clamped to those modes' dimensions.
    """
    tensor, truth = movielens_like(
        n_users=n_users, n_movies=n_movies, nnz=nnz, seed=seed
    )
    ranks = (rank, rank, min(rank, tensor.shape[2]), min(rank, tensor.shape[3]))
    cfg = PTuckerConfig(ranks=ranks, max_iters=iters, tol=1e-4)
    with ModePartitionedTensor(tensor.to_spark(spark), tensor.shape) as mpt:
        return factorize_ptucker(spark, mpt, tensor.shape, cfg), truth


def concept_discovery(
    spark: SparkSession,
    rank: int = 8,
    iters: int = 12,
    nnz: int = 30_000,
    n_users: int = 300,
    n_movies: int = 100,
    seed: int = 7,
) -> tuple[list[dict], float]:
    """Run the full pipeline; returns (exemplar rows, cluster purity).

    Defaults keep ~300 ratings/movie — the per-movie coverage needed for
    clean clustering (the paper's MovieLens has ~740 ratings/movie).
    """
    res, truth = factorize_movielens(
        spark, rank, iters, nnz, n_users, n_movies, seed
    )
    n_genres = len(truth["year_peaks"])
    report = discover_concepts(
        res.factors[1], n_genres, truth=truth["genre_of_movie"], seed=0
    )
    rows = []
    for c, exemplars in enumerate(report.exemplars):
        for movie in exemplars:
            rows.append(
                {
                    "concept": f"C{c + 1}",
                    "movie index": movie,
                    "planted genre": int(truth["genre_of_movie"][movie]),
                }
            )
    return rows, report.purity
