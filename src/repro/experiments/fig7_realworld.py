"""Figure 7: running time per iteration on (stand-in) real-world tensors.

The paper's four real tensors (Table IV) are proprietary/offline, so the
DESIGN.md stand-ins are used: same order, same rank, shapes matched at a
documented scale factor. The paper's shape to reproduce: P-Tucker and
P-Tucker-Approx fastest everywhere, wOPT O.O.M. on the two large
tensors, S-HOT/CSF slower (1.7-275×).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.experiments.harness import mean_iter_time_or_oom, run_methods
from repro.synth_data import (
    image_like,
    movielens_scaled,
    video_like,
    yahoo_music_scaled,
)

# Scaled analogue of the paper's 512 GB for the real-world stand-ins: the
# rating tensors are scaled down harder than the synthetic sweeps, so the
# budget scales with them — wOPT must O.O.M. on Yahoo-music*/MovieLens*
# (dense ≥ 1.9 GB) and run on Video*/Image* (dense ≤ 70 MB), reproducing
# the paper's Fig 7/11 O.O.M. pattern.
WOPT_BUDGET = 10**9

COMPARED = ("P-Tucker", "P-Tucker-Approx", "S-HOT", "Tucker-CSF", "Tucker-wOPT")


def datasets(scale: float = 1.0) -> list[tuple[str, object, tuple[int, ...]]]:
    """(name, tensor, ranks) stand-ins for Table IV's four real tensors.

    ``scale`` < 1 shrinks the two rating tensors further (for tests). A
    rank is capped at its mode's size (J_n ≤ I_n), which only such shrunken
    modes reach (e.g. MovieLens* at ``scale=0.02`` has I_2 = 2).
    """
    stand_ins = [
        (
            "Yahoo-music*",
            yahoo_music_scaled(sf=0.0005 * scale),
            (10, 10, 10, 10),
        ),
        ("MovieLens*", movielens_scaled(sf=0.005 * scale), (10, 10, 10, 10)),
        ("Video*", video_like(sf=1.0 * scale), (3, 3, 3, 3)),
        ("Image*", image_like(sf=1.0 * scale), (3, 3, 3)),
    ]
    return [
        (name, t, tuple(map(min, ranks, t.shape))) for name, t, ranks in stand_ins
    ]


def realworld_speed(
    spark: SparkSession, iters: int = 2, scale: float = 1.0
) -> list[dict]:
    """Seconds/iteration per method per stand-in dataset."""
    rows = []
    for name, tensor, ranks in datasets(scale):
        results = run_methods(
            spark,
            tensor,
            ranks,
            COMPARED,
            iters=iters,
            tol=0.0,
            wopt_budget=WOPT_BUDGET,
        )
        rows.append(
            {"dataset": name, "nnz": tensor.nnz}
            | {label: mean_iter_time_or_oom(res) for label, res in results}
        )
    return rows
