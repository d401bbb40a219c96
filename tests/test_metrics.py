"""Tests for evaluation metrics (Eq. 5/6, fit, RMSE)."""
import numpy as np
import pytest

from repro.core import metrics
from repro.core.delta import predictions
from repro.synth_data import lowrank_tensor, sparse_tensor_uniform
from repro.tensor.linalg import init_factors
from repro.tensor.ops import reconstruct_dense
from repro.tensor.spark_tensor import to_blocks


@pytest.fixture(scope="module")
def setup():
    t = sparse_tensor_uniform(shape=(12, 10, 8), nnz=300, seed=0)
    factors, core = init_factors(t.shape, (2, 3, 2), seed=1)
    return t, core, factors


def test_predict_matches_dense(setup):
    t, core, factors = setup
    got = predictions(core, factors, t.idx)
    want = reconstruct_dense(core, factors)[tuple(t.idx.T)]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_reconstruction_error_definition(setup):
    t, core, factors = setup
    pred = predictions(core, factors, t.idx)
    want = np.sqrt(np.sum((t.vals - pred) ** 2))
    assert metrics.reconstruction_error(t, core, factors) == pytest.approx(want)


def test_fit_near_one_on_converged_planted():
    """fit = 1 − err/‖X‖ approaches 1 when the model nails the tensor."""
    from repro.core import reference
    from repro.core.config import PTuckerConfig

    t = lowrank_tensor(
        shape=(15, 12, 10), ranks=(2, 2, 2), nnz=900, noise=0.0, seed=2
    )
    res = reference.factorize(
        t, PTuckerConfig(ranks=(2, 2, 2), max_iters=20, tol=1e-8, seed=0)
    )
    assert metrics.fit(t, res.core, res.factors) > 0.95


def test_fit_zero_model(setup):
    t, _, _ = setup
    zero_core = np.zeros((2, 3, 2))
    factors, _ = init_factors(t.shape, (2, 3, 2), seed=3)
    assert metrics.fit(t, zero_core, factors) == pytest.approx(0.0)


def test_rmse_definition(setup):
    t, core, factors = setup
    pred = predictions(core, factors, t.idx)
    want = np.sqrt(np.mean((t.vals - pred) ** 2))
    assert metrics.rmse(t, core, factors) == pytest.approx(want)


def test_spark_reconstruction_error_matches(spark, setup):
    t, core, factors = setup
    got = metrics.spark_reconstruction_error(
        to_blocks(t.to_spark(spark)), core, factors
    )
    want = metrics.reconstruction_error(t, core, factors)
    assert got == pytest.approx(want, rel=1e-9)


def test_spark_rmse_components_vs_duckdb(spark, setup):
    """Query-result check: mean squared residual via Spark SQL vs DuckDB."""
    from pyspark.sql import functions as F

    from repro.oracle import assert_equivalent

    t, core, factors = setup
    pdf = t.to_pandas()
    pdf["pred"] = predictions(core, factors, t.idx)
    df = spark.createDataFrame(pdf)
    out = df.select(
        F.round(F.avg((F.col("val") - F.col("pred")) ** 2), 6).alias("mse")
    )
    assert_equivalent(
        out,
        "SELECT ROUND(AVG((val - pred) * (val - pred)), 6) AS mse FROM e",
        e=pdf,
    )
