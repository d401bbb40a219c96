"""Table I: the scalability ✓-matrix, derived from measurements.

The paper asserts: P-Tucker is the only method scalable in all of
{Scale, Speed, Memory, Accuracy}; wOPT has only Accuracy; CSF has
Scale+Speed; S-HOT has Scale+Speed+Memory. Here each mark is *derived*
from the reproduction's own measurements rather than asserted:

* Scale    — the method completes the largest nnz-sweep point (no OOM);
* Speed    — its s/iter there is within ``SPEED_FACTOR``× of the fastest;
* Memory   — its intermediate-data complexity at that point is below
  ``MEM_FRACTION`` of the dense-Y footprint (Table III classes);
* Accuracy — its test RMSE on the accuracy benchmark is within
  ``ACC_FACTOR``× of the best (O.O.M. counts as not accurate at scale,
  matching the paper's treatment of wOPT on the big tensors... except
  Table I credits wOPT's accuracy from the small tensors, as do we:
  accuracy is judged on the largest dataset the method completes).
"""
from __future__ import annotations

import numpy as np

from repro.baselines.shot_scan import scan_bytes
from repro.baselines.tucker_csf import materialized_bytes
from repro.core.cache import default_intermediate_bytes
from repro.experiments.harness import OOM

SPEED_FACTOR = 3.0
ACC_FACTOR = 1.5
MEM_FRACTION = 0.01


def intermediate_bytes(
    method: str,
    nnz: int,
    i_dim: int,
    rank: int,
    order: int,
    threads: int,
) -> float:
    """Table III memory classes, instantiated at a sweep point.

    Each comes from the footprint its method's budget guard enforces,
    except wOPT's: the class O(I^N), not the guard's 4·I^N + … working set.
    """
    j_rest = rank ** (order - 1)
    if method == "P-Tucker":
        return default_intermediate_bytes(threads, rank)
    if method == "S-HOT":
        return scan_bytes(j_rest)
    if method == "Tucker-CSF":
        return materialized_bytes(i_dim, j_rest)
    if method == "Tucker-wOPT":
        return float(i_dim) ** order * 8
    raise ValueError(method)


def derive_summary(
    nnz_rows: list[dict],
    accuracy_rows: list[dict],
    *,
    i_dim: int,
    rank: int,
    order: int,
    threads: int,
) -> list[dict]:
    """Build the Table-I matrix from fig6(c) timing rows + fig11 rows."""
    largest = nnz_rows[-1]
    nnz = largest["nnz"]
    methods = [k for k in largest if k != "nnz"]
    times = {
        m: largest[m] for m in methods if isinstance(largest[m], float)
    }
    fastest = min(times.values()) if times else float("nan")
    dense_y = i_dim * rank ** (order - 1) * 8

    # Best test RMSE per method across datasets it completed.
    best_rmse: dict[str, float] = {}
    for r in accuracy_rows:
        v = r["test RMSE"]
        if v == OOM:
            continue
        m = r["method"]
        canonical = "P-Tucker" if m.startswith("P-Tucker") else m
        best_rmse[canonical] = min(best_rmse.get(canonical, np.inf), float(v))
    best_overall = min(best_rmse.values()) if best_rmse else np.nan

    rows = []
    for m in methods:
        scale_ok = largest[m] != OOM
        speed_ok = scale_ok and times.get(m, np.inf) <= SPEED_FACTOR * fastest
        mem_ok = (
            intermediate_bytes(m, nnz, i_dim, rank, order, threads)
            <= MEM_FRACTION * dense_y
        )
        acc = best_rmse.get(m, np.inf)
        acc_ok = acc <= ACC_FACTOR * best_overall
        rows.append(
            {
                "Method": m,
                "Scale": "✓" if scale_ok else "",
                "Speed": "✓" if speed_ok else "",
                "Memory": "✓" if mem_ok else "",
                "Accuracy": "✓" if acc_ok else "",
            }
        )
    return rows
