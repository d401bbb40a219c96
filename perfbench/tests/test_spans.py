import pytest

from perfbench import spans
from perfbench.replay import dense_delta_cost
from perfbench.spans import Span, Tracer, classify_passes, covered, iteration_bounds, self_time


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_children_once():
    parent = _span(0, "p", 0.0, 10.0)
    kids = [_span(1, "a", 1.0, 4.0, 0), _span(2, "b", 3.0, 5.0, 0)]
    assert self_time(parent, kids) == pytest.approx(6.0)


def test_classify_passes_labels_modes_and_cache_counts():
    kids = [_span(i, n, i, i + 0.5) for i, n in enumerate(
        ["spark.count", "spark.broadcast", "spark.toPandas", "spark.count",
         "spark.toPandas", "spark.count", "ptucker.sse_pass", "spark.count",
         "spark.toPandas"])]
    labels = [lab for _, lab in classify_passes(kids, 2, "cache")]
    assert labels == ["cache.precompute", "spark.broadcast", "update.mode0",
                      "cache.rescale.mode0", "update.mode1", "cache.rescale.mode1",
                      "ptucker.sse_pass", "cache.precompute", "update.mode0"]
    plain = [lab for _, lab in classify_passes(kids[:3], 2, "default")]
    assert plain == ["spark.count", "spark.broadcast", "update.mode0"]


def test_iteration_bounds_walk_back_from_qr():
    f = _span(0, "ptucker.factorize", 0.0, 10.0)
    qr = _span(5, "linalg.qr", 9.0, 9.5, 0)
    assert iteration_bounds(f, qr, [3.0, 2.0, 3.5]) == [(0.5, 3.5), (3.5, 5.5), (5.5, 9.0)]


def test_tracer_records_nested_spans_and_restores_patches():
    originals = [getattr(owner, attr) for owner, attr, _ in spans.PATCHES]
    tracer = Tracer()
    with tracer.installed():
        assert all(getattr(o, a) is not f
                   for (o, a, _), f in zip(spans.PATCHES, originals))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert [getattr(o, a) for o, a, _ in spans.PATCHES] == originals
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.children(outer.id) == [inner]


def test_dense_delta_cost_counts_each_contraction():
    # core (2,3,4), mode 2, 5 entries: contract mode 0 (5·24 MACs, out
    # 5×12) then mode 1 (5·12 MACs, out 5×4).
    flops, nbytes = dense_delta_cost((2, 3, 4), 2, 5)
    assert flops == 2 * (5 * 24 + 5 * 12)
    assert nbytes == 8 * ((24 + 5 * 2 + 5 * 12) + (5 * 12 + 5 * 3 + 5 * 4))
