"""Shared experiment harness: method registry and table rendering.

Fig 6, 7 and 11 compare the same methods; ``METHODS`` says how each one
is called and ``run_methods`` runs a list of them over one shared set of
mode views. Every experiment module produces a list of row dicts;
``format_table`` renders them as GitHub markdown so jobs can be pasted
straight into EXPERIMENTS.md. Methods that exceed their simulated-memory
budget are recorded as ``O.O.M.`` — the same presentation the paper uses.
"""
from __future__ import annotations

from typing import Any, Callable

from pyspark.sql import SparkSession

from repro.baselines import factorize_csf, factorize_shot, factorize_wopt
from repro.baselines.common import SimulatedOOM
from repro.core.config import PTuckerConfig
from repro.core.ptucker import factorize as factorize_ptucker
from repro.tensor.coo import CooTensor
from repro.tensor.spark_tensor import ModePartitionedTensor

OOM = "O.O.M."


def mean_iter_time_or_oom(result_or_none) -> float | str:
    """Paper speed metric: average elapsed seconds per iteration."""
    if result_or_none is None:
        return OOM
    return result_or_none.mean_iter_time


def _ptucker(variant: str) -> Callable:
    def run(spark, mpt, tensor, ranks, iters, tol, wopt_budget):
        cfg = PTuckerConfig(ranks=ranks, max_iters=iters, tol=tol, variant=variant)
        return factorize_ptucker(spark, mpt, tensor.shape, cfg)

    return run


def _hooi_family(factorize: Callable) -> Callable:
    def run(spark, mpt, tensor, ranks, iters, tol, wopt_budget):
        return factorize(mpt, ranks, max_iters=iters, tol=tol)

    return run


def _wopt(spark, mpt, tensor, ranks, iters, tol, wopt_budget):
    return factorize_wopt(
        tensor, ranks, max_iters=iters, tol=tol, mem_budget=wopt_budget
    )


# Row label -> runner(spark, mpt, tensor, ranks, iters, tol, wopt_budget).
# The Spark methods read the shared views ``mpt``; wOPT is dense and local.
METHODS: dict[str, Callable] = {
    "P-Tucker": _ptucker("default"),
    "P-Tucker-Approx": _ptucker("approx"),
    "S-HOT": _hooi_family(factorize_shot),
    "Tucker-CSF": _hooi_family(factorize_csf),
    "Tucker-wOPT": _wopt,
}


def run_methods(
    spark: SparkSession,
    tensor: CooTensor,
    ranks: tuple[int, ...],
    names: tuple[str, ...],
    *,
    iters: int,
    tol: float,
    wopt_budget: int,
) -> list[tuple[str, Any]]:
    """Run each named method on ``tensor``; [(name, result or None)].

    One ``ModePartitionedTensor`` serves every method and is released
    before returning, also when a method raises. A simulated O.O.M. gives
    ``None``; any other error propagates.
    """
    results = []
    with ModePartitionedTensor(tensor.to_spark(spark), tensor.shape) as mpt:
        for name in names:
            try:
                res = METHODS[name](
                    spark, mpt, tensor, ranks, iters, tol, wopt_budget
                )
            except SimulatedOOM:
                res = None
            results.append((name, res))
    return results


def fmt(v: Any) -> str:
    """Human formatting: seconds/floats to 4 sig figs, pass-through strings."""
    if isinstance(v, float):
        if v == 0:
            return "0"
        return f"{v:.4g}"
    return str(v)


def format_table(title: str, rows: list[dict], columns: list[str] | None = None) -> str:
    """Render rows as a titled GitHub-markdown table."""
    if not rows:
        return f"### {title}\n\n(no rows)\n"
    cols = columns or list(rows[0].keys())
    lines = [f"### {title}", "", "| " + " | ".join(cols) + " |"]
    lines.append("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        lines.append("| " + " | ".join(fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(lines) + "\n"

