"""Unit tests for the experiment harness utilities."""
from repro.experiments.harness import fmt, format_table


def test_fmt_float_sig_figs():
    assert fmt(1.23456789) == "1.235"
    assert fmt(0.000123456) == "0.0001235"
    assert fmt(0.0) == "0"


def test_fmt_passthrough():
    assert fmt("O.O.M.") == "O.O.M."
    assert fmt(7) == "7"


def test_format_table_column_selection():
    rows = [{"a": 1, "b": 2, "c": 3}]
    out = format_table("T", rows, columns=["c", "a"])
    assert "| c | a |" in out and "b" not in out.split("\n")[2]
