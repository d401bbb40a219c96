"""Table VI: relation discovery via top core-tensor entries.

The paper inspects the largest values of the core tensor G; each names a
relation among one column of every factor matrix (e.g. drama–hour,
year–hour). On the planted MovieLens-like tensor the per-genre year and
hour peaks are known, so the reproduction checks that the decoded
attributes of the top relations intersect the planted peak sets (hit
rate), and reports the decoded relations as Table VI does.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.discovery.relations import relation_hit_rate, top_relations
from repro.experiments.table5_concepts import factorize_movielens

# Mode layout of movielens_like: (user, movie, year, hour).
MOVIE, YEAR, HOUR = 1, 2, 3


def relation_discovery(
    spark: SparkSession,
    rank: int = 8,
    iters: int = 12,
    nnz: int = 30_000,
    n_users: int = 300,
    n_movies: int = 100,
    n_relations: int = 3,
    seed: int = 7,
) -> tuple[list[dict], dict]:
    """Run the pipeline; returns (relation rows, {'year': hit, 'hour': hit}).

    Defaults match :func:`repro.experiments.table5_concepts.concept_discovery`
    (per-movie coverage comparable, after scaling, to real MovieLens).
    """
    res, truth = factorize_movielens(
        spark, rank, iters, nnz, n_users, n_movies, seed
    )
    relations = top_relations(
        res.core,
        res.factors,
        n_relations=n_relations,
        n_attributes=5,
        modes=[MOVIE, YEAR, HOUR],
    )
    rows = []
    for k, r in enumerate(relations):
        movie_tops = r.top_attributes[0]
        genres = truth["genre_of_movie"][movie_tops]
        majority = int(np.bincount(genres).argmax())
        rows.append(
            {
                "relation": f"R{k + 1}",
                "G value": r.strength,
                "core index": str(r.core_index),
                "top movies": str(movie_tops),
                "majority genre": majority,
                "decoded years": str(r.top_attributes[1]),
                "planted year peaks": str(truth["year_peaks"][majority].tolist()),
                "decoded hours": str(r.top_attributes[2]),
                "planted hour peaks": str(truth["hour_peaks"][majority].tolist()),
            }
        )
    hits = {
        "year": relation_hit_rate(
            relations,
            1,
            truth["year_peaks"],
            genre_of_top_movie=truth["genre_of_movie"],
            movie_mode_pos=0,
        ),
        "hour": relation_hit_rate(
            relations,
            2,
            truth["hour_peaks"],
            genre_of_top_movie=truth["genre_of_movie"],
            movie_mode_pos=0,
        ),
    }
    return rows, hits
