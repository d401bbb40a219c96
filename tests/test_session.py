"""The Spark driver-memory derivation of the shared session bootstrap."""
import builtins
import os

from jobs import _session


def test_driver_mem_without_cgroup_limit_fits_memtotal(monkeypatch):
    """With no override and no readable cgroup limit, the driver heap comes
    from MemTotal and never exceeds it."""

    def no_cgroup(path, *args, **kwargs):
        if str(path).startswith("/sys/fs/cgroup"):
            raise OSError(f"unreadable: {path}")
        return builtins.open(path, *args, **kwargs)

    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    # setenv (not delenv) so that the value _driver_mem writes is undone.
    monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")
    monkeypatch.setattr(_session, "open", no_cgroup, raising=False)
    mem = _session._driver_mem()
    with open("/proc/meminfo") as f:
        kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    assert mem.endswith("g")
    assert int(mem[:-1]) << 20 <= kib
    assert os.environ["_SPARK_DRIVER_MEM_SRC"] == f"meminfo:MemTotal={kib} kB"
