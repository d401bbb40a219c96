"""Spark ``local[4]`` session whose scratch files stay inside the checkout.

Mirrors the repository's own session settings (``conftest.py``,
``jobs/_session.py``): Arrow on, 64 shuffle partitions, broadcast joins
off, UI off. Spark's block manager, the JVM and Python temp files all go
to ``.bench_build/`` under the checkout root. ``stopped`` waits until the
JVM has exited, so no process outlives the benchmark.
"""
from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

MASTER = "local[4]"
DRIVER_MEMORY = "2g"


def prepare_environment(root: Path) -> None:
    """Set the variables a Spark launch reads; call before importing pyspark."""
    work = root / ".bench_build"
    tmp, local = work / "tmp", work / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    # Workers import repro and perfbench by path, as the driver does.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        # The traced run reads every stage of a factorization back from
        # the status store; keep them all (set in both modes alike).
        "--conf spark.ui.retainedJobs=100000 "
        "--conf spark.ui.retainedStages=100000 "
        f"--conf spark.local.dir={local} "
        "pyspark-shell"
    )


@contextmanager
def spark_session():
    """Yield a fresh session; stop it and wait for its JVM on exit."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    gateway = SparkContext._gateway
    try:
        yield spark
    finally:
        spark.stop()
        gateway.shutdown()
        jvm = gateway.proc
        jvm.stdin.close()  # the launcher exits on stdin EOF
        try:
            jvm.wait(timeout=60)
        except subprocess.TimeoutExpired:
            jvm.kill()
            jvm.wait()
        SparkContext._gateway = SparkContext._jvm = None


def jvm_pid() -> int:
    """Process id of the running session's JVM."""
    from pyspark import SparkContext

    return SparkContext._gateway.proc.pid
