"""Zip importers re-read their archive's directory only when it changed."""
import importlib
import os
import sys
import zipfile
import zipimport

import pandas as pd
import pytest

from repro import _zipimport_cache

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="CPython 3.13 re-reads lazily itself"
)


def _write_zip(path, modules: dict[str, str]) -> None:
    with zipfile.ZipFile(path, "w") as z:
        for name, source in modules.items():
            z.writestr(f"{name}.py", source)


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """A zip on ``sys.path`` with ``zipmod_a`` imported from it, and the
    list of archive paths ``zipimport._read_directory`` is called with."""
    path = str(tmp_path / "mods.zip")
    _write_zip(path, {"zipmod_a": "X = 1\n"})
    monkeypatch.syspath_prepend(path)
    reads = []
    read = zipimport._read_directory
    monkeypatch.setattr(
        zipimport, "_read_directory", lambda p: reads.append(p) or read(p)
    )
    assert importlib.import_module("zipmod_a").X == 1
    importlib.invalidate_caches()  # the first invalidation reads and stamps
    reads.clear()
    yield path, reads
    for name in ("zipmod_a", "zipmod_b"):
        sys.modules.pop(name, None)
    sys.path_importer_cache.pop(path, None)


def test_unchanged_archive_is_not_reread(archive):
    path, reads = archive
    importlib.invalidate_caches()
    assert reads.count(path) == 0


def test_rewritten_archive_is_reread(archive):
    path, reads = archive
    _write_zip(path, {"zipmod_a": "X = 1\n", "zipmod_b": "Y = 2\n"})
    importlib.invalidate_caches()
    assert reads.count(path) == 1
    assert importlib.import_module("zipmod_b").Y == 2
    importlib.invalidate_caches()
    assert reads.count(path) == 1


def test_deleted_archive_does_not_raise(archive):
    path, reads = archive
    os.remove(path)
    importlib.invalidate_caches()
    importlib.invalidate_caches()
    assert reads.count(path) == 2  # each call tries, as CPython's own does
    with pytest.raises(ImportError):
        importlib.import_module("zipmod_b")


def test_install_twice_wraps_once():
    _zipimport_cache.install()
    _zipimport_cache.install()
    wrapper = zipimport.zipimporter.invalidate_caches
    assert hasattr(wrapper, "__wrapped__")
    assert not hasattr(wrapper.__wrapped__, "__wrapped__")


def test_spark_worker_skips_unchanged_pyspark_zip(spark):
    """In a worker that imported repro, a second invalidation reads no zip.

    Both invalidations run in one task: the worker pool may hand a task
    whose function comes from outside repro to a worker that never
    imported it.
    """

    def probe(pdfs):
        import importlib
        import sys
        import zipimport

        import repro  # noqa: F401

        for _ in pdfs:
            pass
        importlib.invalidate_caches()
        reads = []
        read = zipimport._read_directory
        zipimport._read_directory = lambda p: reads.append(p) or read(p)
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read
        zips = sum(
            isinstance(f, zipimport.zipimporter)
            for f in sys.path_importer_cache.values()
        )
        yield pd.DataFrame({"reads": [len(reads)], "zips": [zips]})

    out = spark.range(1).coalesce(1).mapInPandas(
        probe, "reads long, zips long"
    ).toPandas()
    assert out["zips"].iloc[0] > 0  # the worker imports pyspark from a zip
    assert out["reads"].tolist() == [0]
