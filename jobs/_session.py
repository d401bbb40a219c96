"""Shared SparkSession bootstrap for the job entrypoints and the test suite.

``conftest.py`` imports this module too, so results from jobs and pytest
run with the same settings — including the driver-memory derivation:
``spark.driver.memory`` is read at JVM launch, so PYSPARK_SUBMIT_ARGS
must be set before the first ``getOrCreate()`` (running these scripts
with plain ``python`` launches the JVM lazily at that point), which is
why the environment is set when this module is imported. Without this,
the Spark driver runs with the 1 GB default and dies on the larger sweeps.
"""
from __future__ import annotations

import os
import sys


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of ``/proc/meminfo``'s MemTotal, clamped to 2-8 g > 2g.
    Where the value came from is left in ``_SPARK_DRIVER_MEM_SRC`` (unset
    for the env override).

    The cgroup read is best-effort: some container runtimes' sysfs
    emulation does not pass the host limit through. An unbounded value
    (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit) is
    treated as absent so the JVM is never handed an impossible heap.
    """
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
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
        os.environ["_SPARK_DRIVER_MEM_SRC"] = f"meminfo:MemTotal={kib} kB"
        return f"{min(8, max(2, kib // (2 << 20)))}g"
    except (OSError, ValueError, StopIteration, IndexError):
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
        return "2g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
# Workers run the Spark driver's interpreter (and so its NumPy), which the 1e-9
# Spark == reference checks assume; read when the first worker starts.
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
    """Create (or reuse) the local session with the reproduction's config.

    Per-session configs that *are* honoured after the JVM launch are set
    here. Broadcast joins are disabled so that joins exercise the shuffle
    path; a query that wants a broadcast join sets the threshold back.
    """
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
