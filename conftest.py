import os

import pytest

# Sets the driver memory and PYSPARK_* environment before pyspark starts a
# JVM; pytest loads this conftest before any test module.
from jobs._session import get_session

_SESSION_FACTS = pytest.StashKey[str]()


@pytest.fixture(scope="session")
def spark(request):
    """One local-mode SparkSession for the whole test session."""
    s = get_session("repro")
    request.config.stash[_SESSION_FACTS] = (
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}"
    )
    yield s
    s.stop()


def pytest_terminal_summary(terminalreporter, config):
    """One line recording where the driver memory came from, so a log shows
    whether the cgroup derivation saw the real limit.

    Written in the summary, not the header: ``-q`` drops the header, and
    output from fixtures is captured.
    """
    terminalreporter.write_line(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        + config.stash.get(_SESSION_FACTS, "no SparkSession started")
    )
