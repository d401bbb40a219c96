"""Benchmarks for Tables I/III/V/VI: the derived-table pipelines.

Tables I and III are derived from the Figure-6/11 measurement rows (see
those jobs); their benchmark here measures the derivation itself plus a
miniature measurement pass. Tables V/VI benchmark the discovery stage
(K-means / core-entry decoding) on a factorization computed once.
"""
import pytest

from repro.discovery.concepts import discover_concepts
from repro.discovery.relations import top_relations
from repro.experiments.table1_summary import derive_summary
from repro.experiments.table3_complexity import (
    memory_class_table,
    nnz_scaling_exponent,
)
from repro.experiments.table4_datasets import dataset_table
from repro.experiments.table5_concepts import factorize_movielens


@pytest.fixture(scope="module")
def factorized_movielens(spark):
    return factorize_movielens(
        spark, rank=6, iters=8, nnz=20_000, n_users=300, n_movies=100, seed=7
    )


_NNZ_ROWS = [
    {"nnz": 10**k, "P-Tucker": float(10 ** (k - 4)), "S-HOT": float(10 ** (k - 3)),
     "Tucker-CSF": float(10 ** (k - 3)), "Tucker-wOPT": "O.O.M."}
    for k in (3, 4, 5, 6)
]
_ACC_ROWS = [
    {"dataset": "d", "method": m, "test RMSE": v}
    for m, v in (("P-Tucker", 0.1), ("S-HOT", 0.4), ("Tucker-CSF", 0.4), ("Tucker-wOPT", 0.12))
]


def test_table1_derivation(benchmark):
    rows = benchmark(
        derive_summary,
        _NNZ_ROWS,
        _ACC_ROWS,
        i_dim=100_000,
        rank=10,
        order=3,
        threads=16,
    )
    assert {r["Method"] for r in rows} == {
        "P-Tucker",
        "S-HOT",
        "Tucker-CSF",
        "Tucker-wOPT",
    }


def test_table3_derivation(benchmark):
    def run():
        slope = nnz_scaling_exponent(_NNZ_ROWS)
        rows = memory_class_table(
            nnz=10**6, i_dim=10**5, rank=10, order=3, threads=16
        )
        return slope, rows

    slope, rows = benchmark(run)
    assert 0.9 < slope < 1.1
    assert len(rows) == 6


def test_table4_generation(benchmark):
    rows = benchmark(dataset_table, 0.05)
    assert len(rows) == 4


def test_table5_discovery_stage(benchmark, factorized_movielens):
    res, truth = factorized_movielens
    report = benchmark(
        discover_concepts,
        res.factors[1],
        3,
        truth=truth["genre_of_movie"],
        seed=0,
    )
    assert report.purity > 0.8


def test_table6_discovery_stage(benchmark, factorized_movielens):
    res, _ = factorized_movielens
    rels = benchmark(
        top_relations, res.core, res.factors, n_relations=3, modes=[1, 2, 3]
    )
    assert len(rels) == 3
