import os
import sys

import pytest

# Sets the driver memory and PYSPARK_* environment before pyspark starts a
# JVM; pytest loads this conftest before any test module.
from jobs._session import get_session


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session."""
    s = get_session("repro")
    # One stderr line recording where the driver memory came from, so a
    # log shows whether the cgroup derivation saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
