"""Integration tests: every experiment harness runs end-to-end at tiny scale
and produces rows with the paper's qualitative shape."""
import pytest

from repro.experiments import harness
from repro.experiments.fig6_data_scalability import (
    dim_sweep,
    nnz_sweep,
    order_sweep,
    rank_sweep,
)
from repro.experiments.fig7_realworld import realworld_speed
from repro.experiments.fig8_cache import cache_tradeoff
from repro.experiments.fig9_approx import approx_tradeoff
from repro.experiments.fig10_threads import thread_scalability
from repro.experiments.fig11_accuracy import accuracy_eval
from repro.experiments.harness import OOM, format_table
from repro.experiments.table1_summary import derive_summary, intermediate_bytes
from repro.experiments.table3_complexity import (
    loglog_slope,
    memory_class_table,
    nnz_scaling_exponent,
)
from repro.experiments.table4_datasets import dataset_table
from repro.experiments.table5_concepts import concept_discovery
from repro.experiments.table6_relations import relation_discovery


def test_format_table_markdown():
    rows = [{"a": 1, "b": 2.34567}, {"a": 2, "b": OOM}]
    out = format_table("T", rows)
    assert "### T" in out and "| a | b |" in out
    assert "O.O.M." in out and "2.346" in out


def test_format_table_empty():
    assert "(no rows)" in format_table("X", [])


def test_run_methods_oom_is_none_and_errors_release_views(spark, monkeypatch):
    """A simulated O.O.M. becomes a None result; any other error propagates.
    Either way the shared views are released."""
    from repro.baselines.common import SimulatedOOM
    from repro.synth_data import sparse_tensor_uniform

    def oom(*args):
        raise SimulatedOOM("x")

    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setitem(harness.METHODS, "S-HOT", oom)
    monkeypatch.setitem(harness.METHODS, "Tucker-CSF", fail)
    t = sparse_tensor_uniform(shape=(6, 5, 4), nnz=30, seed=0)
    kw = dict(iters=1, tol=0.0, wopt_budget=10**9)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    out = harness.run_methods(spark, t, (2, 2, 2), ("S-HOT",), **kw)
    assert out == [("S-HOT", None)]
    assert persistent().size() == before
    with pytest.raises(RuntimeError, match="boom"):
        harness.run_methods(spark, t, (2, 2, 2), ("S-HOT", "Tucker-CSF"), **kw)
    assert persistent().size() == before


def test_order_sweep_tiny(spark):
    rows = order_sweep(
        spark, orders=(3, 4), i_dim=15, nnz=120, rank=2, iters=1
    )
    assert [r["order"] for r in rows] == [3, 4]
    for r in rows:
        assert isinstance(r["P-Tucker"], float)
        assert isinstance(r["S-HOT"], float)


def test_order_sweep_wopt_ooms_at_higher_order(spark):
    """Scaled analogue of the paper's N≥5 wOPT O.O.M.: a budget sized for
    the N=3 dense working set must OOM the N=4 point."""
    rows = order_sweep(
        spark,
        orders=(3, 4),
        i_dim=15,
        nnz=100,
        rank=2,
        iters=1,
        wopt_budget=5 * 15**3 * 8 + 10_000,
    )
    for row in rows:
        assert list(row) == ["order", "P-Tucker", "S-HOT", "Tucker-CSF", "Tucker-wOPT"]
    assert isinstance(rows[0]["Tucker-wOPT"], float)
    assert rows[1]["Tucker-wOPT"] == OOM


def test_dim_sweep_tiny(spark):
    rows = dim_sweep(spark, dims=(20, 40), nnz_per_dim=5, rank=2, iters=1)
    assert len(rows) == 2
    assert all(isinstance(r["P-Tucker"], float) for r in rows)


def test_nnz_sweep_tiny(spark):
    rows = nnz_sweep(spark, nnzs=(100, 300), i_dim=50, rank=2, iters=1)
    assert [r["nnz"] for r in rows] == [100, 300]


def test_rank_sweep_tiny(spark):
    rows = rank_sweep(spark, ranks=(2, 3), i_dim=30, nnz=300, iters=1)
    assert [r["rank"] for r in rows] == [2, 3]


def test_realworld_speed_tiny(spark):
    rows = realworld_speed(spark, iters=1, scale=0.02)
    assert len(rows) == 4
    for r in rows:
        assert list(r) == [
            "dataset",
            "nnz",
            "P-Tucker",
            "P-Tucker-Approx",
            "S-HOT",
            "Tucker-CSF",
            "Tucker-wOPT",
        ]
        assert isinstance(r["P-Tucker"], float)
        assert isinstance(r["P-Tucker-Approx"], float)


def test_cache_tradeoff_tiny(spark):
    rows = cache_tradeoff(spark, orders=(4, 5), i_dim=15, nnz=150, rank=2, iters=1)
    for r in rows:
        # results must agree between variants, memory ratio must grow
        assert r["err diff"] < 1e-6
    assert rows[1]["mem ratio"] > rows[0]["mem ratio"]  # grows with order


def test_approx_tradeoff_tiny(spark):
    rows = approx_tradeoff(spark, i_dim=60, nnz=800, rank=3, iters=4)
    assert len(rows) == 4
    # |G| must shrink every iteration (Algorithm 4 applied per iteration)
    gs = [r["Approx |G|"] for r in rows]
    assert all(gs[i + 1] < gs[i] for i in range(len(gs) - 1))
    # default's fit must be >= approx's at the end (trade-off direction)
    assert rows[-1]["P-Tucker fit"] >= rows[-1]["Approx fit"] - 1e-9


def test_thread_scalability_tiny(spark):
    rows = thread_scalability(
        spark, threads=(1, 2), i_dim=200, nnz=2000, rank=3, iters=1
    )
    assert rows[0]["T"] == 1 and rows[0]["speedup"] == 1.0
    assert rows[1]["intermediate KB"] == pytest.approx(
        2 * rows[0]["intermediate KB"]
    )


def test_accuracy_eval_tiny(spark):
    rows = accuracy_eval(spark, iters=2, scale=0.02)
    methods = [
        "P-Tucker",
        "P-Tucker-Approx",
        "S-HOT",
        "Tucker-CSF",
        "Tucker-wOPT",
    ]
    datasets = ["Yahoo-music*", "MovieLens*", "Video*", "Image*"]
    assert [(r["dataset"], r["method"]) for r in rows] == [
        (d, m) for d in datasets for m in methods
    ]
    pt = [r for r in rows if r["method"] == "P-Tucker"]
    assert all(isinstance(r["test RMSE"], float) for r in pt)


def test_intermediate_bytes_ordering():
    """Table III ordering at a large point: P-Tucker << S-HOT << CSF << wOPT."""
    kw = dict(nnz=10**6, i_dim=10**5, rank=10, order=3, threads=16)
    pt = intermediate_bytes("P-Tucker", **kw)
    sh = intermediate_bytes("S-HOT", **kw)
    cs = intermediate_bytes("Tucker-CSF", **kw)
    wo = intermediate_bytes("Tucker-wOPT", **kw)
    assert pt < sh < cs < wo
    # T·(2J² + 2J)·8, (K² + 256·K)·8 with K = J^{N-1}, I·K·8, I^N·8
    assert (pt, sh, cs, wo) == (28_160, 284_800, 80_000_000, 8e15)


def test_derive_summary_shapes():
    nnz_rows = [
        {
            "nnz": 1000,
            "P-Tucker": 1.0,
            "S-HOT": 2.0,
            "Tucker-CSF": 2.5,
            "Tucker-wOPT": OOM,
        }
    ]
    acc_rows = [
        {"dataset": "d", "method": "P-Tucker", "test RMSE": 0.1},
        {"dataset": "d", "method": "S-HOT", "test RMSE": 0.4},
        {"dataset": "d", "method": "Tucker-CSF", "test RMSE": 0.4},
        {"dataset": "d", "method": "Tucker-wOPT", "test RMSE": 0.11},
    ]
    rows = derive_summary(
        nnz_rows, acc_rows, i_dim=10**5, rank=10, order=3, threads=16
    )
    by = {r["Method"]: r for r in rows}
    # Table I's claims
    assert by["P-Tucker"] == {
        "Method": "P-Tucker",
        "Scale": "✓",
        "Speed": "✓",
        "Memory": "✓",
        "Accuracy": "✓",
    }
    assert by["Tucker-wOPT"]["Scale"] == ""
    assert by["Tucker-wOPT"]["Accuracy"] == "✓"
    assert by["S-HOT"]["Memory"] == "✓"
    assert by["Tucker-CSF"]["Memory"] == ""


def test_kernel_nnz_scaling_tiny():
    from repro.experiments.table3_complexity import kernel_nnz_scaling

    rows, slope = kernel_nnz_scaling(
        nnzs=(20_000, 200_000), i_dim=5_000, rank=5
    )
    assert len(rows) == 2
    # kernel time must grow close to linearly in |Omega| (Theorem 3)
    assert 0.6 < slope < 1.4


def test_loglog_slope_exact():
    xs = [1.0, 10.0, 100.0]
    ys = [2.0, 20.0, 200.0]
    assert loglog_slope(xs, ys) == pytest.approx(1.0)


def test_nnz_scaling_exponent_ignores_oom():
    rows = [
        {"nnz": 10, "P-Tucker": 1.0},
        {"nnz": 100, "P-Tucker": 10.0},
        {"nnz": 1000, "P-Tucker": OOM},
    ]
    assert nnz_scaling_exponent(rows) == pytest.approx(1.0)


def test_memory_class_table_rows():
    rows = memory_class_table(
        nnz=10**6, i_dim=10**5, rank=10, order=3, threads=16
    )
    assert len(rows) == 6
    by = {r["Method"]: r["Bytes @ point"] for r in rows}
    assert by["P-Tucker"] < by["P-Tucker-Cache"]
    assert by["P-Tucker-Approx"] < by["P-Tucker-Cache"]
    assert by == {
        "P-Tucker": 28_160,
        "P-Tucker-Cache": 8_000_000_000,  # |Ω|·J^N·8
        "P-Tucker-Approx": 8_000,
        "S-HOT": 284_800,
        "Tucker-CSF": 80_000_000,
        "Tucker-wOPT": 8e15,
    }


def test_dataset_table_matches_paper_rows():
    rows = dataset_table(scale=0.02)
    assert [r["Paper dataset"] for r in rows] == [
        "Yahoo-music",
        "MovieLens",
        "Video (Wave)",
        "Image (Lena)",
    ]
    assert all(r["Stand-in nnz"] > 0 for r in rows)


def test_concept_discovery_recovers_planted_genres(spark):
    rows, purity = concept_discovery(
        spark, rank=6, iters=8, nnz=20_000, n_users=300, n_movies=100, seed=7
    )
    assert purity > 0.8
    assert len(rows) == 9  # 3 concepts x 3 exemplars


def test_relation_discovery_hits_planted_peaks(spark):
    rows, hits = relation_discovery(
        spark,
        rank=6,
        iters=8,
        nnz=20_000,
        n_users=300,
        n_movies=100,
        n_relations=3,
        seed=7,
    )
    assert len(rows) == 3
    # top relations must touch the planted hour or year structure
    assert max(hits["year"], hits["hour"]) >= 2 / 3
