"""Skip zipimport's directory re-read while the archive is unchanged.

PySpark's Python worker calls ``importlib.invalidate_caches()`` before
every task. Up to CPython 3.12, ``zipimporter.invalidate_caches()``
re-reads the whole central directory of its archive on each call, and a
worker holds one zipimporter per package it imported from
``pyspark.zip`` (16 of them, 1,328 files), so every task re-parsed that
directory 16 times: ≈0.24 s per task. CPython 3.13 made the re-read lazy.

``install()`` wraps the method so that it re-reads only when the archive
may have changed: when its ``(st_mtime_ns, st_size, st_ino)`` differs
from the stamp taken before the last read of it, or when ``os.stat``
fails. A changed or missing archive still takes CPython's own re-read,
so what imports is the same. ``repro/__init__.py`` installs it, so every
worker that runs a task function from ``repro`` gets it. Its first task
still pays in full (PySpark invalidates before it unpickles the function),
the second reads each archive once to take the stamps, and later tasks
read nothing while the archive is unchanged.
"""
from __future__ import annotations

import functools
import os
import sys
import zipimport


def _stamp(path: str) -> tuple[int, int, int]:
    st = os.stat(path)
    return st.st_mtime_ns, st.st_size, st.st_ino


def install() -> None:
    """Wrap ``zipimporter.invalidate_caches`` once per process (CPython < 3.13)."""
    cls = zipimport.zipimporter
    original = cls.invalidate_caches
    if sys.version_info >= (3, 13) or hasattr(original, "__wrapped__"):
        return
    # archive path -> (stamp taken before its last read, directory read).
    # Keyed by archive, so the importers sharing one re-use one read.
    reads: dict[str, tuple[tuple[int, int, int], dict]] = {}

    @functools.wraps(original)
    def invalidate_caches(self) -> None:
        try:
            stamp = _stamp(self.archive)
        except OSError:
            stamp = None  # matches no stored stamp
        last = reads.get(self.archive)
        if last is not None and last[0] == stamp:
            self._files = zipimport._zip_directory_cache[self.archive] = last[1]
            return
        original(self)
        if stamp is None or self.archive not in zipimport._zip_directory_cache:
            reads.pop(self.archive, None)  # unreadable: re-read next time too
        else:
            reads[self.archive] = (stamp, self._files)

    cls.invalidate_caches = invalidate_caches
