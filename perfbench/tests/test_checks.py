import numpy as np
import pytest

from perfbench.checks import ModelCapture, check_result, truncation_schedule
from repro import synth_data
from repro.core import ptucker, reference
from repro.core.config import PTuckerConfig


@pytest.fixture(scope="module")
def solved():
    x = synth_data.sparse_tensor_uniform(shape=(30, 20, 10), nnz=600, seed=3)
    cfg = PTuckerConfig(ranks=(3, 3, 2), max_iters=4, tol=0.0)
    return x, cfg, reference.factorize(x, cfg)


def test_reference_result_passes(solved):
    x, cfg, res = solved
    assert check_result(x, cfg, res) == []


def test_perturbed_factor_is_rejected(solved):
    x, cfg, res = solved
    bad = [a.copy() for a in res.factors]
    bad[1][0, 0] += 1e-3
    res_bad = type(res)(factors=bad, core=res.core, errors=res.errors,
                        iter_times=res.iter_times, core_nnz_history=res.core_nnz_history)
    problems = check_result(x, cfg, res_bad)
    assert any("not orthonormal" in p for p in problems)
    assert any("final error" in p for p in problems)


def test_rising_error_and_short_run_are_rejected(solved):
    x, cfg, res = solved
    rising = type(res)(factors=res.factors, core=res.core,
                       errors=res.errors[:-2] + [res.errors[-1], res.errors[-2]],
                       iter_times=res.iter_times)
    assert any("rose" in p for p in check_result(x, cfg, rising))
    short = type(res)(factors=res.factors, core=res.core, errors=res.errors[:2])
    assert check_result(x, cfg, short) == ["ran 2 of 4 iterations"]


def test_truncation_schedule():
    assert truncation_schedule(10_000, 0.2, 8) == [8000, 6400, 5120, 4096, 3277, 2622, 2098, 1679]
    assert truncation_schedule(4, 0.2, 2) == [4, 4]


def test_model_capture_restores_and_records():
    qr, trunc = ptucker.qr_orthogonalize, ptucker.truncate_core
    cap = ModelCapture()
    with cap.installed():
        assert ptucker.qr_orthogonalize is not qr
        idx = np.array([[0, 0], [0, 1], [1, 0]])
        vals = np.array([1.0, 2.0, 3.0])
        kept = ptucker.truncate_core(idx, vals, np.array([0.0, 5.0, 1.0]), 0.4)
    assert ptucker.qr_orthogonalize is qr and ptucker.truncate_core is trunc
    assert cap.truncation[0][1] is vals
    np.testing.assert_array_equal(kept[1], [1.0, 3.0])
