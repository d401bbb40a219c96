"""Figure 11: accuracy on (stand-in) real-world tensors.

Protocol from Section IV-A1/IV-E: 90% of observed entries train, 10%
test; metrics are the training reconstruction error (Eq. 6) and the test
RMSE of Eq. 5 predictions. The paper's shape: P-Tucker (and Approx,
which is similar-or-better on test RMSE) beat the zero-filling HOOI
family by 1.4-4.8× on both metrics; wOPT is accurate where it fits in
memory and O.O.M. on the large tensors.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.metrics import reconstruction_error, rmse
from repro.experiments.fig7_realworld import COMPARED, WOPT_BUDGET, datasets
from repro.experiments.harness import OOM, run_methods


def accuracy_eval(
    spark: SparkSession,
    iters: int = 10,
    scale: float = 1.0,
    test_frac: float = 0.1,
) -> list[dict]:
    """Train recon error + test RMSE per method per stand-in dataset."""
    rows = []
    for name, tensor, ranks in datasets(scale):
        train, test = tensor.split(test_frac, seed=1234)
        results = run_methods(
            spark,
            train,
            ranks,
            COMPARED,
            iters=iters,
            tol=1e-4,
            wopt_budget=WOPT_BUDGET,
        )
        for label, res in results:
            rows.append(
                {
                    "dataset": name,
                    "method": label,
                    "recon error": OOM
                    if res is None
                    else reconstruction_error(train, res.core, res.factors),
                    "test RMSE": OOM
                    if res is None
                    else rmse(test, res.core, res.factors),
                }
            )
    return rows
