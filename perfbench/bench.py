"""One benchmark run: set up, factorize in a closed loop, check, report.

A run starts one Spark ``local[4]`` session and one closed-loop client
that issues one factorization at a time on the workload's tensor. With
tracing off it reports the end-to-end metrics; with tracing on it reports
the per-layer metrics (see ``perfbench/README.md`` for every name).
"""
from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core import ptucker, reference
from repro.core.approx import use_sparse_core
from repro.core.metrics import reconstruction_error
from repro.tensor.spark_tensor import ModePartitionedTensor, spark_entries_from_coo
from perfbench import probes, session
from perfbench.checks import ERROR_RTOL, ModelCapture, check_result
from perfbench.replay import replay
from perfbench.spans import (
    StatusCounters,
    Tracer,
    classify_passes,
    covered,
    diff,
    iteration_bounds,
    self_time,
)
from perfbench.stats import median, python_worker_peak_rss_mb, skew
from perfbench.workloads import WORKLOADS

SETUPS = 7  # warm set-ups per run, after the factorizations; setup_s is their median
REPORTED_MODES = 3  # every workload has modes 0-2; the rest show in `.max`
OVERHEAD_ITERS = 3  # iterations of the untraced run in a traced benchmark run
_T0 = time.perf_counter()


def log(msg: str) -> None:
    """Progress line on stderr, stamped with seconds since start."""
    print(f"perfbench: {time.perf_counter() - _T0:7.2f}s {msg}", file=sys.stderr, flush=True)


@dataclass
class Op:
    """One factorization: its result (None if it raised) and its checks."""

    result: object
    solve_s: float
    problems: list
    capture: ModelCapture
    rel_error: float = float("nan")


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def setup(spark, tensor, tracer: Tracer | None = None):
    """Build the mode-partitioned tensor from the driver's COO arrays."""
    t0 = time.perf_counter()
    with _span(tracer, "spark_tensor.to_spark"):
        df = spark_entries_from_coo(spark, tensor.idx, tensor.vals)
    mpt = ModePartitionedTensor(df, tensor.shape)
    return mpt, time.perf_counter() - t0


def warm_setups(spark, tensor, tracer=None) -> list[float]:
    """SETUPS set-ups, each released before the next one starts.

    Run after the factorizations: on a cold JVM set-up time falls from
    3-5 s to under 1 s over the first ten set-ups, so their median would
    measure JIT warm-up.
    """
    times = []
    for _ in range(SETUPS):
        mpt, t = setup(spark, tensor, tracer)
        mpt.unpersist()
        times.append(t)
    return times


def factorize_loop(spark, mpt, tensor, cfg, until, tracer=None) -> list[Op]:
    """Factorize back to back while the next one should end by ``until``.

    ``until`` is a ``time.perf_counter()`` value; at least one runs.
    """
    ops, norm = [], tensor.norm()
    while True:
        capture = ModelCapture()
        t0 = time.perf_counter()
        tracing = tracer.installed() if tracer else nullcontext()
        try:
            with capture.installed(), tracing, _span(tracer, "ptucker.factorize"):
                res = ptucker.factorize(spark, mpt, tensor.shape, cfg)
            op = Op(res, time.perf_counter() - t0, [], capture)
            op.problems = check_result(tensor, cfg, res, capture)
            op.rel_error = reconstruction_error(tensor, res.core, res.factors) / norm
        except Exception as exc:  # a failed operation is counted, not fatal
            op = Op(None, time.perf_counter() - t0, [f"raised {exc!r}"], capture)
        ops.append(op)
        if time.perf_counter() + op.solve_s > until:
            return ops


def _ok(ops):
    return [op for op in ops if op.result is not None and not op.problems]


def _later_iters(ops, upto=None):
    """Iteration times after the first (which also ships code and state)."""
    return [t for op in _ok(ops) for t in op.result.iter_times[1:upto]]


def timed_run(spark, wl, tensor, seconds) -> dict:
    """End-to-end metrics with tracing off."""
    probes.floor_s(spark, repeats=1)  # start the Python workers before timing
    mpt, cold = setup(spark, tensor)  # the cold set-up is not reported
    log(f"cold set-up {cold:.2f}s")
    ops = factorize_loop(spark, mpt, tensor, wl.cfg, time.perf_counter() + seconds)
    for op in ops:
        iters = [round(t, 2) for t in op.result.iter_times] if op.result else None
        log(f"factorized in {op.solve_s:.2f}s, iterations {iters}")
    mpt.unpersist()
    setups = warm_setups(spark, tensor)
    log(f"set up {SETUPS}x: {[round(t, 2) for t in setups]}")
    good = _ok(ops)
    metrics = {}
    if good:
        metrics = {
            "setup_s": median(setups),
            "iter_s": median(_later_iters(ops)),
            "solve_s": median([op.solve_s for op in good]),
            "rel_error": median([op.rel_error for op in good]),
            "worker_peak_rss_mb": python_worker_peak_rss_mb(session.jvm_pid()),
        }
    return _report(ops, metrics, [])


def _report(ops, metrics, extra_problems) -> dict:
    failed = sum(1 for op in ops if op.result is None or op.problems)
    problems = [p for op in ops for p in op.problems] + extra_problems
    return {
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: float(v) for k, v in metrics.items()},
        "problems": problems,
    }


def _mode_family(line: dict, detail: dict, prefix: str, per_mode: list[float]) -> None:
    """Report modes 0-2 and the max over all modes; keep every mode in detail."""
    for n, v in enumerate(per_mode):
        detail[f"{prefix}.mode{n}"] = v
        if n < REPORTED_MODES:
            line[f"{prefix}.mode{n}"] = v
    line[f"{prefix}.max"] = max(per_mode)


def _span_layers(tracer, ops, cfg) -> dict:
    """Per-iteration layer times, coverage and driver self time from spans."""
    order = len(cfg.ranks)
    per_iter: dict[str, list[float]] = {}
    coverage, driver_self, qr = [], [], []
    facts = [s for s in tracer.spans if s.name == "ptucker.factorize"]
    for f, op in zip(facts, ops):
        if op.result is None:
            continue
        kids = tracer.children(f.id)
        qr_span = next(s for s in kids if s.name == "linalg.qr")
        qr.append(qr_span.dur)
        labeled = classify_passes(kids, order, cfg.variant)
        bounds = iteration_bounds(f, qr_span, op.result.iter_times)
        for it, (lo, hi) in enumerate(bounds):
            inside = [(s, lab) for s, lab in labeled if lo <= s.start < hi]
            cov = covered([(s.start, s.end) for s, _ in inside], lo, hi)
            coverage.append(cov / (hi - lo))
            if it == 0:
                continue  # the first iteration also pays for shipping code
            driver_self.append((hi - lo) - cov)
            sums: dict[str, float] = {}
            for s, lab in inside:
                sums[lab] = sums.get(lab, 0.0) + s.dur
            for lab in _iter_labels(order):
                per_iter.setdefault(lab, []).append(sums.get(lab, 0.0))
    med = {lab: median(v) for lab, v in per_iter.items()}
    rescale = sum(med[f"cache.rescale.mode{n}"] for n in range(order))
    update = [med[f"update.mode{n}"] for n in range(order)]
    return {
        "update": update,
        "ptucker.sse_pass_s": med["ptucker.sse_pass"],
        "ptucker.rerror_pass_s": med["ptucker.rerror_pass"],
        "ptucker.broadcast_s": med["spark.broadcast"],
        "ptucker.assemble_s": med["ptucker.assemble"],
        "approx.truncate_s": med["approx.truncate"],
        "cache.precompute_pass_s": med["cache.precompute"],
        "cache.update_pass_s": sum(update) if cfg.variant == "cache" else 0.0,
        "cache.rescale_pass_s": rescale,
        "linalg.qr_s": median(qr),
        "trace.coverage": min(coverage),
        "trace.driver_self_s": median(driver_self),
    }


def _self_times(tracer, iters: int) -> dict:
    """Self time of each span name inside the traced factorizations, per iteration."""
    inside = {s.id for f in tracer.spans if f.name == "ptucker.factorize"
              for s in tracer.spans if f.start <= s.start and s.end <= f.end}
    out: dict[str, float] = {}
    for s in tracer.spans:
        if s.id in inside:
            out[s.name] = out.get(s.name, 0.0) + self_time(s, tracer.children(s.id)) / iters
    return out


def _iter_labels(order):
    return (
        [f"update.mode{n}" for n in range(order)]
        + [f"cache.rescale.mode{n}" for n in range(order)]
        + ["ptucker.sse_pass", "ptucker.rerror_pass", "spark.broadcast",
           "ptucker.assemble", "approx.truncate", "cache.precompute"]
    )


def _approx_layers(ops, cfg) -> dict:
    """Iterations on the COO kernel, and s/iter on each kernel."""
    out = {"approx.coo_iters": 0, "approx.iter_s.dense": 0.0, "approx.iter_s.coo": 0.0}
    good = _ok(ops)
    if cfg.variant != "approx" or not good:
        return out
    size = int(np.prod(cfg.ranks))
    dense, coo = [], []
    for op in good:
        # Iteration t runs on the core left by iteration t-1.
        nnz = [size] + op.result.core_nnz_history[:-1]
        on_coo = [use_sparse_core(g, size) for g in nnz]
        for t in range(1, len(on_coo)):
            (coo if on_coo[t] else dense).append(op.result.iter_times[t])
        out["approx.coo_iters"] = sum(on_coo)
    out["approx.iter_s.dense"] = median(dense)
    out["approx.iter_s.coo"] = median(coo) if coo else 0.0
    return out


def host_facts(spark) -> dict:
    """Core count, Spark parallelism and library versions of this run."""
    import pyarrow
    import pyspark

    return {"nproc": os.cpu_count(), "master": spark.sparkContext.master,
            "defaultParallelism": spark.sparkContext.defaultParallelism,
            "spark": pyspark.__version__, "numpy": np.__version__,
            "pyarrow": pyarrow.__version__, "python": sys.version.split()[0]}


def traced_run(spark, wl, tensor, seconds, trace_path: Path) -> dict:
    """Per-layer metrics: probes, traced set-ups and factorizations, a
    kernel replay and one reference iteration; spans go to ``trace_path``."""
    cfg, order = wl.cfg, len(wl.cfg.ranks)
    line, detail = {}, {}
    tracer, counters = Tracer(), StatusCounters(spark)
    line["spark.floor_s"] = probes.floor_s(spark)

    mpt, _ = setup(spark, tensor)
    views_mb = counters.persisted_mb()
    line["spark_tensor.cached_mb"] = views_mb

    sizes = [probes.partition_sizes(mpt.view(n), mpt.partitions) for n in range(order)]
    _mode_family(line, detail, "spark_tensor.skew", [skew(s) for s in sizes])
    detail["partition_sizes"] = sizes
    parts = []
    for n in range(order):
        pdf = probes.read_partition(mpt.view(n), int(np.argmax(sizes[n])))
        idx = np.stack([pdf[f"i{k}"].to_numpy(np.int64) for k in range(order)], axis=1)
        parts.append((idx, pdf["val"].to_numpy(np.float64)))
    _mode_family(line, detail, "spark.scan_s", [probes.scan_s(mpt.view(n)) for n in range(order)])
    log("skew and scan probes done")

    # A short untraced run takes the JVM's warm-up (its first factorization
    # runs up to 1.5x slower); the traced runs follow, then a second short
    # untraced run. The gap between traced and that last untraced run's
    # iterations 2..OVERHEAD_ITERS in s/iter is the trace overhead.
    short = replace(cfg, max_iters=min(cfg.max_iters, OVERHEAD_ITERS))
    warm = factorize_loop(spark, mpt, tensor, short, 0.0)
    peak = [views_mb]
    tracer.after_count = lambda: peak.append(counters.persisted_mb())
    before = counters.snapshot()
    traced = factorize_loop(spark, mpt, tensor, cfg, time.perf_counter() + seconds, tracer)
    tracer.after_count = None
    spent = diff(counters.snapshot(), before)
    plain = factorize_loop(spark, mpt, tensor, short, 0.0)
    log(f"untraced, traced and untraced factorizations done in "
        f"{[round(op.solve_s, 2) for op in warm + traced + plain]}s")
    if not _ok(traced) or not _ok(plain):
        return _report(warm + traced + plain, {}, [])
    iters = sum(len(op.result.iter_times) for op in _ok(traced))
    line["spark.jobs_per_iter"] = spent["jobs"] / iters
    line["spark.tasks_per_iter"] = spent["tasks"] / iters
    line["spark.shuffle_write_mb_per_iter"] = spent["shuffle_write_b"] / 2**20 / iters
    line["spark.result_mb_per_iter"] = spent["result_b"] / 2**20 / iters
    line["spark.executor_run_s_per_iter"] = spent["run_ms"] / 1000 / iters
    line["cache.pres_mb"] = max(peak) - views_mb if cfg.variant == "cache" else 0.0

    layers = _span_layers(tracer, traced, cfg)
    _mode_family(line, detail, "ptucker.update_pass_s", layers.pop("update"))
    line.update(layers)
    line.update(_approx_layers(traced, cfg))
    line["trace.overhead_iter_s"] = (median(_later_iters(traced, OVERHEAD_ITERS))
                                     - median(_later_iters(plain, OVERHEAD_ITERS)))

    detail["self_s_per_iter"] = _self_times(tracer, iters)

    # Set-up spans, on a session as warm as the one timed_run sets up in.
    with tracer.installed():
        warm_setups(spark, tensor, tracer)
    views = [s for s in tracer.spans if s.name == "spark_tensor.views"]
    line["spark_tensor.to_spark_s"] = median(
        [s.dur for s in tracer.spans if s.name == "spark_tensor.to_spark"])
    line["spark_tensor.views_s"] = median([s.dur for s in views])
    line["spark_tensor.views_self_s"] = median(
        [self_time(s, tracer.children(s.id)) for s in views])

    # Serial replay on the model the last factorization ended with.
    last = _ok(traced)[-1]
    factors, core = last.capture.pre_qr
    core_coo = last.capture.truncation[1] if cfg.variant == "approx" else None
    rep = replay(parts, cfg, factors, core, core_coo)
    for fam in ("delta.dense_s", "row_update.short_row_share"):
        _mode_family(line, detail, fam, [rep.pop(f"{fam}.mode{n}") for n in range(order)])
    line.update(rep)

    problems = []
    ref = reference.factorize(tensor, replace(cfg, max_iters=1))
    line["reference.iter_s"] = ref.iter_times[0]
    rel = abs(ref.errors[0] - last.result.errors[0]) / ref.errors[0]
    if not rel <= ERROR_RTOL:
        problems.append(f"reference first error {ref.errors[0]!r} != "
                        f"Spark first error {last.result.errors[0]!r}")
    mpt.unpersist()

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({"host": host_facts(spark), "metrics": line, "per_mode": detail,
                   "spans": [vars(s) for s in tracer.spans]}, f)
    return _report(warm + traced + plain, line, problems)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    wl = WORKLOADS[workload]
    tensor = wl.make(seed)
    log(f"generated {workload} seed {seed}: shape {tensor.shape}, {tensor.nnz} entries")
    with session.spark_session() as spark:
        log("session up")
        if trace:
            path = root / ".bench_build" / f"trace-{workload}-seed{seed}.json"
            return traced_run(spark, wl, tensor, seconds, path)
        return timed_run(spark, wl, tensor, seconds)
