from repro import _zipimport_cache

# Any task function from a repro module imports this package in its Spark
# worker, so the worker's later tasks skip the per-task zip re-reads.
_zipimport_cache.install()
