"""The benchmark's workloads: one generated tensor and one engine config each.

Every workload is built from ``repro.synth_data`` with the benchmark's
``--seed``; the engine gets only the generated tensor and a fixed config
(``tol=0``, so every run does the same number of iterations). Why each
workload was chosen is recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import synth_data
from repro.core.config import PTuckerConfig
from repro.tensor.coo import CooTensor


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], CooTensor]
    cfg: PTuckerConfig


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "movielens-approx",
            lambda seed: synth_data.movielens_scaled(sf=0.0005, seed=seed),
            PTuckerConfig(
                ranks=(10,) * 4, max_iters=9, tol=0.0, variant="approx",
                truncation_rate=0.2,
            ),
        ),
        Workload(
            "cache-order6",
            lambda seed: synth_data.sparse_tensor_uniform(
                shape=(100,) * 6, nnz=2_000, seed=seed
            ),
            PTuckerConfig(ranks=(2,) * 6, max_iters=5, tol=0.0, variant="cache"),
        ),
    ]
}
