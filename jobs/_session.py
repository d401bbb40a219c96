"""Shared SparkSession bootstrap for the spark-submit job entrypoints.

Mirrors conftest.py's settings so results from jobs and pytest agree —
including the driver-memory derivation: ``spark.driver.memory`` is read
at JVM launch, so PYSPARK_SUBMIT_ARGS must be set before the first
``getOrCreate()`` (running these scripts with plain ``python`` launches
the JVM lazily at that point). Without this, the driver runs with the
1 GB default and dies on the larger sweeps.
"""
from __future__ import annotations

import os
import sys


def _driver_mem() -> str:
    """~75% of the container memory limit (same policy as conftest.py)."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):
                continue
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    return "48g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
# Workers run the driver's interpreter and NumPy, as under pytest.
os.environ.setdefault("PYSPARK_PYTHON", sys.executable)
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_session(app: str) -> SparkSession:
    """Create (or reuse) the local session with the reproduction's config."""
    s = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
