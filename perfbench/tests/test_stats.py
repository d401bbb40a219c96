import statistics

import numpy as np
import pytest

from perfbench import stats

STATUS = """Name:\tpython3
State:\tS (sleeping)
VmPeak:\t  812344 kB
VmHWM:\t  126976 kB
VmRSS:\t  120832 kB
Threads:\t1
"""


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.median(values) == statistics.median(values) == 3.75
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_spread_of_constant_values_is_zero():
    assert stats.spread([2.0] * 10) == 0.0


def test_skew_is_max_over_median():
    assert stats.skew([10, 10, 10, 10]) == 1.0
    assert stats.skew([5, 10, 10, 30]) == 3.0


def test_short_row_share_counts_rows_below_rank():
    # rows 0,1,2 own 1, 3 and 5 entries; rank 3 makes only row 0 short
    keys = np.array([0, 1, 1, 1, 2, 2, 2, 2, 2])
    assert stats.short_row_share(keys, 3) == pytest.approx(1 / 3)
    assert stats.short_row_share(keys, 1) == 0.0
    assert stats.short_row_share(keys, 6) == 1.0
    assert stats.short_row_share(np.zeros(0, np.int64), 3) == 0.0


def test_parse_vmhwm():
    assert stats.parse_vmhwm_mb(STATUS) == 124.0
    assert stats.parse_vmhwm_mb("Name:\tx\n") is None
    with pytest.raises(ValueError):
        stats.parse_vmhwm_mb("VmHWM:\t 1 MB\n")


def _proc(tmp_path, pid, ppid, cmd, hwm_kb):
    d = tmp_path / str(pid)
    d.mkdir()
    (d / "stat").write_text(f"{pid} (my (odd) name) S {ppid} 1 1 0\n")
    (d / "cmdline").write_bytes(cmd.encode().replace(b" ", b"\0"))
    (d / "status").write_text(f"Name:\tx\nVmHWM:\t{hwm_kb} kB\n")


def test_worker_peak_walks_the_jvm_descendants(tmp_path):
    _proc(tmp_path, 100, 1, "java org.apache.spark.deploy.SparkSubmit", 900_000)
    _proc(tmp_path, 101, 100, "python3 -m pyspark.daemon", 50_000)
    _proc(tmp_path, 102, 101, "python3 -m pyspark.daemon", 204_800)
    _proc(tmp_path, 103, 101, "python3 -m pyspark.daemon", 102_400)
    _proc(tmp_path, 200, 1, "python3 -m pyspark.daemon", 999_999)  # not ours
    (tmp_path / "self").mkdir()
    assert stats.python_worker_peak_rss_mb(100, proc=str(tmp_path)) == 200.0
