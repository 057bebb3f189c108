import math

import numpy as np
import pytest

from ritzlab.bounds import (
    BoundInputs,
    all_bounds,
    dudley_rademacher_bound,
    log_covering_bound,
    pdim_bound,
    predicted_rates,
    statistical_error_bound,
)


def test_pdim_bound_values():
    # 16 * 1024 * (4 + ln 32) = 122318.6...
    assert pdim_bound(4, 32, 1.0) == pytest.approx(16 * 1024 * (4 + math.log(32)), rel=1e-12)
    assert pdim_bound(4, 32, 1.0) == pytest.approx(1.223e5, rel=1e-3)
    assert pdim_bound(1, 1, 1.0) == 1.0


def test_pdim_bound_width_scaling():
    base = pdim_bound(3, 16, 1.0)
    doubled = pdim_bound(3, 32, 1.0)
    # W^2 factor quadruples; the log factor grows a little beyond that
    assert doubled / base >= 4.0
    assert doubled / base == pytest.approx(4 * (3 + math.log(32)) / (3 + math.log(16)), rel=1e-12)


def test_log_covering_bound_values():
    got = log_covering_bound(0.5, 1000, 1.0, 10)
    assert got == pytest.approx(10 * math.log(math.e * 1000 / 5.0), rel=1e-12)
    assert got == pytest.approx(62.98, abs=0.01)
    eps_top = math.e * 1000 * 1.0 / 10
    assert log_covering_bound(eps_top, 1000, 1.0, 10) == pytest.approx(0.0, abs=1e-12)


def test_log_covering_bound_monotone_in_eps():
    vals = [log_covering_bound(e, 1000, 1.0, 10) for e in (2.0, 1.0, 0.5, 0.25)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_log_covering_bound_domain():
    with pytest.raises(ValueError):
        log_covering_bound(0.5, 5, 1.0, 10)


def test_dudley_bound_value():
    got = dudley_rademacher_bound(1000, 1.0, 10)
    want = 28 * math.sqrt(1.5) * 0.1 * math.sqrt(1 + math.log(100))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(8.12, abs=0.01)


def test_dudley_bound_monotone_tail_and_homogeneous():
    ns = [2**k for k in range(6, 20)]
    vals = [dudley_rademacher_bound(n, 1.0, 10) for n in ns if n > 10 * math.e]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert dudley_rademacher_bound(1000, 2.0, 10) == pytest.approx(
        2 * dudley_rademacher_bound(1000, 1.0, 10), rel=1e-12
    )
    with pytest.raises(ValueError):
        dudley_rademacher_bound(10, 1.0, 10)


def test_statistical_error_bound_value():
    inp = BoundInputs(depth=4, width=32, d=2, n=10**6, B=1.0, c3=1.0, nu=0.01)
    inner = 2 * 7 * 6 * 32 * math.sqrt((7 + math.log(2 * 6 * 32)) / 1e6)
    assert inner == pytest.approx(9.673, abs=5e-4)
    assert statistical_error_bound(inp, 1.0) == pytest.approx(inner**0.99, rel=1e-12)
    assert statistical_error_bound(inp, 1.0) == pytest.approx(9.46, abs=0.01)


def test_statistical_error_bound_nu_zero_is_bracket():
    inp = BoundInputs(depth=3, width=8, d=1, n=4096, B=1.0, c3=1.0, nu=0.0)
    inner = 1 * 6 * 5 * 8 * math.sqrt((6 + math.log(5 * 8)) / 4096)
    assert statistical_error_bound(inp, 1.0) == pytest.approx(inner, rel=1e-12)


def test_statistical_error_bound_decreases_in_n():
    vals = [
        statistical_error_bound(
            BoundInputs(depth=4, width=32, d=2, n=n, B=1.0, c3=1.0, nu=0.01)
        )
        for n in (10**4, 10**5, 10**6, 10**7)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_predicted_rates():
    assert predicted_rates(2, 0.0) == pytest.approx((-0.25, -0.125), rel=1e-14)
    assert predicted_rates(1, 0.0) == pytest.approx((-1 / 3, -1 / 6), rel=1e-14)
    seq = [predicted_rates(2, nu)[0] for nu in (0.0, 1.0, 10.0, 100.0, 1e6)]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert abs(seq[-1]) < 1e-5


def test_composed_chain_finite_and_decreasing():
    # pdim feeding the Dudley bound stays finite and decreases past crossover
    pdim = pdim_bound(4, 32, 1.0)
    ns = [2**k for k in range(18, 29)]
    vals = [dudley_rademacher_bound(n, 1.0, pdim) for n in ns if n > pdim * math.e]
    assert len(vals) >= 8
    assert all(np.isfinite(vals))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_all_bounds_reports_constants():
    inp = BoundInputs(depth=4, width=32, d=2, n=10**6, B=1.0, c3=1.0, nu=0.01,
                      pdim_constant=1.0)
    out = all_bounds(inp, C_Bc3=1.0)
    assert out["inputs"]["pdim_constant"] == 1.0
    assert out["inputs"]["C_Bc3"] == 1.0
    assert out["pdim_bound"] == pytest.approx(pdim_bound(4, 32, 1.0))
    assert out["dudley_rademacher_bound"] is not None


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(depth=0, width=1, d=1, n=1, B=1.0, c3=1.0)
    with pytest.raises(ValueError):
        BoundInputs(depth=1, width=1, d=1, n=1, B=-1.0, c3=1.0)


def test_zero_sup_bound_is_accepted_where_no_bound_reads_it():
    # an identically zero net measures B = 0; the statistical bound's C_Bc3 absorbs B
    inputs = BoundInputs(depth=2, width=3, d=1, n=10_000, B=0.0, c3=1.0)
    assert statistical_error_bound(inputs) > 0.0
    pdim = pdim_bound(2, 3)
    with pytest.raises(ValueError):
        dudley_rademacher_bound(inputs.n, inputs.B, pdim)
    with pytest.raises(ValueError):
        log_covering_bound(1.0, inputs.n, inputs.B, pdim)
