"""Aggregation helpers: medians and quartiles, partition skew, short rows,
and Spark Python-worker memory read from ``/proc``."""
from __future__ import annotations

import os
import statistics

import numpy as np


def median(values) -> float:
    """Median of a non-empty sequence of numbers."""
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def skew(entries_per_partition) -> float:
    """Load imbalance of one view: max / median entries per partition."""
    counts = np.asarray(entries_per_partition, dtype=np.float64)
    return float(counts.max() / np.median(counts))


def short_row_share(keys: np.ndarray, rank: int) -> float:
    """Share of the distinct row keys that own fewer than ``rank`` entries.

    Such a row has k < J observations, so its J×J system B is rank
    deficient and only λI keeps the solve well posed.
    """
    _, counts = np.unique(keys, return_counts=True)
    if len(counts) == 0:
        return 0.0
    return float(np.mean(counts < rank))


def parse_vmhwm_mb(status_text: str) -> float | None:
    """Peak resident set (``VmHWM``) in MiB from a ``/proc/<pid>/status`` text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(value) / 1024.0
    return None


def _children(proc: str = "/proc") -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir(proc):
        if not name.isdigit():
            continue
        try:
            with open(f"{proc}/{name}/stat") as f:
                # The command name is parenthesised and may hold spaces.
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def python_worker_peak_rss_mb(jvm_pid: int, proc: str = "/proc") -> float:
    """Largest ``VmHWM`` among the Python processes the Spark JVM started."""
    kids = _children(proc)
    todo, peak = list(kids.get(jvm_pid, [])), 0.0
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, []))
        try:
            with open(f"{proc}/{pid}/cmdline", "rb") as f:
                if b"pyspark" not in f.read():
                    continue
            with open(f"{proc}/{pid}/status") as f:
                peak = max(peak, parse_vmhwm_mb(f.read()) or 0.0)
        except OSError:
            continue  # the process ended while we looked
    return peak
