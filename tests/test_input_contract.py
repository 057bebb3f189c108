"""The input contract of the public entries.

A count, level or seed must be an integer (not a float, not a bool) at or
above its lower bound; a real range input must be finite and at or above
its bound.  Anything else fails with a ValueError whose message starts with
the argument's name (after the config class, for config fields), and a call
that is accepted returns finite outputs.
"""

import functools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzlab import cli
from ritzlab.bounds import (
    BoundInputs,
    all_bounds,
    dudley_rademacher_bound,
    log_covering_bound,
    pdim_bound,
    predicted_rates,
)
from ritzlab.gadgets import fit_spline_coefficients, full_index_range, prescribe_architecture
from ritzlab import ritz
from ritzlab.harness import DecompositionConfig, StudyConfig, TrainRunConfig, calibrate_spline_rate
from ritzlab.networks import (
    IDENTITY,
    RELU2,
    Architecture,
    forward_batch,
    values_and_input_gradients,
    weighted_parameter_gradient,
)
from ritzlab.problems import make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import (
    derived_seed,
    energy_excess,
    statistical_gap_estimate,
)
from ritzlab.sampling import h1_error, make_sample_set, rng_stream, sample_boundary, sample_domain
from ritzlab.training import TrainConfig, init_network

from conftest import random_relu2_net

NET = random_relu2_net(1, (3,), seed=0)
COSINE = make_cosine_problem(1)
NET_D3, COSINE_D3 = random_relu2_net(3, (3,), seed=0), make_cosine_problem(3)
TINY = Architecture((1, 3, 1), (RELU2, IDENTITY))
BOUND_ARGS = dict(depth=2, width=3, d=1, n=100_000, B=1.0, c3=1.0)
GOLDEN_NET = Path(__file__).parent / "golden" / "train_d1" / "trained_network.txt"


def _bounds(**kw):
    return all_bounds(BoundInputs(**{**BOUND_ARGS, **kw}))


def _cli_bounds(flag, value):
    """`ritzlab bounds` on BOUND_ARGS, with flag set to value."""
    args = {**{f"--{key}": v for key, v in BOUND_ARGS.items()}, flag: value}
    return cli.main(["bounds", *(str(t) for item in args.items() for t in item)])


def _names_argument(err: ValueError, name: str) -> bool:
    return re.match(rf"(\w+\.)?{re.escape(name)} ", str(err)) is not None


# ------------------------------------------------ defects of the old per-site checks


@pytest.mark.parametrize("call, name", [
    (lambda: predicted_rates(1, math.nan), "nu"),
    (lambda: pdim_bound(2.5, 3), "depth"),
    (lambda: BoundInputs(**{**BOUND_ARGS, "depth": 2.5}), "depth"),
    (lambda: BoundInputs(**{**BOUND_ARGS, "depth": True}), "depth"),
    (lambda: BoundInputs(**{**BOUND_ARGS, "n": 1e5}), "n"),
    (lambda: make_cosine_problem(1.5), "d"),
    (lambda: make_quadratic_problem(True), "d"),
    (lambda: sample_boundary(2.0, 1, 0), "m"),
    (lambda: sample_domain(True, 1, 0), "n"),
    (lambda: statistical_gap_estimate(NET, COSINE, 4, 1, 0), "n_quad"),
    (lambda: derived_seed(0, 1.5), "k"),
    (lambda: dudley_rademacher_bound(1000, 1e307, 10), "B"),
    (lambda: log_covering_bound(1.0, 1000, 1e307, 10), "B"),
    (lambda: _bounds(B=1e307), "B"),
    (lambda: _bounds(B=sys.float_info.max), "B"),
    (lambda: prescribe_architecture(2, 1024, True), "nu"),
    (lambda: BoundInputs(**{**BOUND_ARGS, "B": True}), "B"),
    (lambda: BoundInputs(**{**BOUND_ARGS, "c3": True}), "c3"),
    (lambda: BoundInputs(**{**BOUND_ARGS, "nu": False}), "nu"),
    (lambda: calibrate_spline_rate(levels=()), "levels"),
    # each overflow of `ritzlab bounds` names the input that drove it
    (lambda: _cli_bounds("--width", str(10**200)), "width"),
    (lambda: _cli_bounds("--n", str(10**400)), "n"),
    (lambda: _cli_bounds("--eps", "1e-320"), "eps"),
    (lambda: cli.main(["bounds", "--c-bc3", "1e307", "--depth", "20", "--width", "3000",
                       "--d", "3", "--n", "1"]), "C_Bc3"),
    (lambda: _bounds(nu=1e3, n=10**12), "nu"),
    (lambda: predicted_rates(10**400, 0.0), "d"),
], ids=["rates-nan-nu", "pdim-float-depth", "inputs-float-depth", "inputs-bool-depth",
        "inputs-float-n", "cosine-float-d", "quadratic-bool-d", "boundary-float-m",
        "domain-bool-n", "gap-one-n-quad", "seed-float-k", "dudley-huge-B",
        "covering-huge-B", "all-bounds-huge-B", "all-bounds-max-B", "prescribe-bool-nu",
        "inputs-bool-B", "inputs-bool-c3", "inputs-bool-nu", "calibrate-empty-levels",
        "cli-bounds-huge-width", "cli-bounds-huge-n", "cli-bounds-tiny-eps",
        "cli-bounds-huge-c-bc3", "all-bounds-huge-nu", "rates-huge-d"])
def test_bad_input_fails_naming_the_argument(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert _names_argument(info.value, name), str(info.value)


@pytest.mark.parametrize("call, name", [
    (lambda: prescribe_architecture(10**6, 64, 0.0), "d"),
    (lambda: prescribe_architecture(1, 10**12, 0.0), "n"),
    (lambda: h1_error(NET, COSINE, 10**13, 0), "n_quad"),
    (lambda: energy_excess(NET, COSINE, 10**13, 0), "n_quad"),
    (lambda: sample_boundary(10**13, 1, 0), "m"),
    (lambda: make_sample_set(4, 10**13, 1, 0), "n_boundary"),
    (lambda: statistical_gap_estimate(NET_D3, COSINE_D3, 2**26, 2, 0), "n"),
    (lambda: statistical_gap_estimate(NET_D3, COSINE_D3, 4, 2**26, 0), "n_quad"),
    (lambda: cli.main(["verify-gradnet", str(GOLDEN_NET), "--probes", str(10**12)]), "--probes"),
], ids=["prescribe-huge-d", "prescribe-huge-n", "h1-huge-n-quad", "excess-huge-n-quad",
        "boundary-huge-m", "sample-set-huge-n-boundary", "gap-huge-n", "gap-huge-n-quad",
        "verify-gradnet-huge-probes"])
def test_size_past_a_cap_fails_naming_the_argument(call, name, monkeypatch):
    # without the caps: widths of 4e6, or numpy's bare MemoryError; and each cap
    # fires at entry, before any domain pass of a loss estimator
    monkeypatch.setattr(ritz, "_pointwise",
                        lambda *args: pytest.fail("a domain pass ran before the size cap"))
    with pytest.raises(ValueError) as info:
        call()
    assert _names_argument(info.value, name), str(info.value)
    assert re.search(r"over (1e8|2\*\*27)", str(info.value)), str(info.value)


def test_prescription_cap_admits_large_d2_and_d3_nets():
    # 2 x 6272^2 = 7.9e7 and 3 x 4116^2 = 5.1e7 hidden weights, under the 1e8 cap
    assert prescribe_architecture(2, 10**6, 0.0).width == 6272
    assert prescribe_architecture(3, 10**5, 0.0).width == 4116


POINT_ENTRIES = pytest.mark.parametrize("entry", [
    forward_batch,
    values_and_input_gradients,
    lambda net, x: weighted_parameter_gradient(net, x, np.ones(len(x))),
], ids=["forward_batch", "values_and_input_gradients", "weighted_parameter_gradient"])


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@POINT_ENTRIES
def test_non_finite_point_fails_naming_x(entry, bad):
    # a NaN or inf coordinate would otherwise come back as a silent NaN
    x = np.full((3, 1), 0.5)
    x[1, 0] = bad
    with pytest.raises(ValueError) as info:
        entry(NET, x)
    assert _names_argument(info.value, "x"), str(info.value)


@POINT_ENTRIES
def test_complex_point_fails_naming_x(entry):
    # a cast to float would evaluate the real part, behind numpy's ComplexWarning alone
    with pytest.raises(ValueError) as info:
        entry(NET, np.array([[0.5], [0.25 + 3j]]))
    assert _names_argument(info.value, "x"), str(info.value)


# ------------------------------------------------ fuzzed bad values


def _count(low, huge=False):
    """Bad counts: floats (NaN, inf and integral ones too), bools and ints
    below low.  With huge, also valid ints up to 1e12: only for entries that
    allocate nothing by count."""
    bad = st.one_of(st.floats(), st.booleans(), st.integers(max_value=low - 1))
    return st.one_of(bad, st.integers(low, 10**12)) if huge else bad


def _real(strict=False):
    """Bad reals: NaN, +-inf, bools and values below 0 (0 too when strict).
    A bool is not a real, as it is not an integer."""
    return st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
                     st.floats(max_value=0.0, exclude_max=not strict))


def _finite(out) -> bool:
    """Whether every number in out (through dicts, tuples, lists and arrays) is finite."""
    if isinstance(out, dict):
        return all(map(_finite, out.values()))
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    if isinstance(out, np.ndarray):
        return bool(np.all(np.isfinite(out)))
    if isinstance(out, (int, float)):
        return math.isfinite(out)
    return True


def _huge_or_bad_B(strict=False):
    """Bad B values, and finite ones so large that a bound may overflow."""
    return st.one_of(_real(strict), st.floats(min_value=1e300, max_value=sys.float_info.max))


def _fit(**kw):
    return fit_spline_coefficients(lambda q: q[:, 0], **kw).coefficients


def _counts(**lows):
    return {name: _count(low) for name, low in lows.items()}


_HUGE = _count(1, huge=True)
_ESTIMATOR_ARGS = {"n_quad": 16, "seed": 0}

# label: (call, valid keywords, {argument: bad values}); one argument is fuzzed at a time
ENTRIES = {
    "all_bounds": (_bounds, {}, {"depth": _HUGE, "width": _HUGE, "d": _HUGE, "n": _HUGE,
                                 "B": _huge_or_bad_B(), "c3": _real(True), "nu": _real(),
                                 "pdim_constant": _real(True)}),
    "all_bounds_args": (functools.partial(all_bounds, BoundInputs(**BOUND_ARGS)), {},
                        {"C_Bc3": _real(True), "eps": _real(True)}),
    "pdim_bound": (pdim_bound, {"depth": 2, "width": 3},
                   {"depth": _HUGE, "width": _HUGE, "pdim_constant": _real(True)}),
    "log_covering_bound": (log_covering_bound, {"eps": 0.5, "n": 1000, "B": 1.0, "pdim": 10},
                           {"eps": _real(True), "n": _HUGE, "B": _huge_or_bad_B(True),
                            "pdim": _real()}),
    "dudley_rademacher_bound": (dudley_rademacher_bound, {"n": 1000, "B": 1.0, "pdim": 10},
                                {"n": _HUGE, "B": _huge_or_bad_B(True), "pdim": _real()}),
    "predicted_rates": (predicted_rates, {"d": 1, "nu": 0.0}, {"d": _HUGE, "nu": _real()}),
    "prescribe_architecture": (lambda **kw: prescribe_architecture(**kw).layer_dims,
                               {"d": 1, "n": 256, "nu": 0.0},
                               {"d": _HUGE, "n": _HUGE, "nu": _real()}),
    "derived_seed": (derived_seed, {"seed": 0, "k": 1},
                     {"seed": _count(0, huge=True), "k": _count(0, huge=True)}),
    "rng_stream": (lambda **kw: rng_stream(**kw).random(), {"seed": 0, "tag": 0},
                   {"seed": _count(0, huge=True), "tag": _count(0, huge=True)}),
    "make_cosine_problem": (make_cosine_problem, {}, _counts(d=1)),
    "make_quadratic_problem": (make_quadratic_problem, {}, _counts(d=1)),
    "sample_domain": (sample_domain, {"n": 4, "d": 1, "seed": 0}, _counts(n=1, d=1, seed=0)),
    "sample_boundary": (sample_boundary, {"m": 4, "d": 1, "seed": 0}, _counts(m=1, d=1, seed=0)),
    "make_sample_set": (make_sample_set, {"n_domain": 4, "n_boundary": 4, "d": 1, "seed": 0},
                        _counts(n_domain=1, n_boundary=1, d=1, seed=0)),
    "h1_error": (functools.partial(h1_error, NET, COSINE), _ESTIMATOR_ARGS,
                 _counts(n_quad=2, seed=0)),
    "energy_excess": (functools.partial(energy_excess, NET, COSINE), _ESTIMATOR_ARGS,
                      _counts(n_quad=2, seed=0)),
    "statistical_gap_estimate": (functools.partial(statistical_gap_estimate, NET, COSINE),
                                 {"n": 4, "n_quad": 8, "seed": 0},
                                 _counts(n=1, n_quad=2, seed=0)),
    "init_network": (lambda **kw: init_network(TINY, **kw).flatten_parameters(),
                     {"init_scale": 1.0, "seed": 0}, {"init_scale": _real(), "seed": _count(0)}),
    "full_index_range": (lambda level: full_index_range(level), {}, _counts(level=1)),
    "fit_spline_coefficients": (_fit, {"level": 1, "dim": 1}, _counts(level=1, dim=1)),
    "Architecture": (lambda hidden: Architecture((1, hidden, 1), (RELU2, IDENTITY)), {},
                     _counts(hidden=1)),
    "TrainConfig": (TrainConfig, {}, {**_counts(iterations=0, batch_domain=1, batch_boundary=1,
                                                eval_every=1, seed=0),
                                      "learning_rate": _real(), "adam_eps": _real(True),
                                      "init_scale": _real()}),
    "TrainRunConfig": (TrainRunConfig, {"problem": "cosine", "d": 1, "n": 64},
                       {**_counts(d=1, n=1, n_quad=2, seed=0), "nu": _real()}),
    "StudyConfig": (StudyConfig, {}, {**_counts(d=1, n_quad=2, repetitions=1, seed=0),
                                      "nu": _real()}),
    "DecompositionConfig": (DecompositionConfig, {},
                            {**_counts(d=1, n=1, n_quad=2, spline_level=1, restarts=1, seed=0),
                             "nu": _real()}),
}
# arguments whose messages use another name
_MESSAGE_NAME = {"level": "spline level", "hidden": "layer dim"}

CASES = [pytest.param(call, valid, arg, bad, id=f"{label}-{arg}")
         for label, (call, valid, args) in ENTRIES.items() for arg, bad in args.items()]


@pytest.mark.parametrize("call, valid, arg, bad", CASES)
@settings(max_examples=12)
@given(data=st.data())
def test_public_entry_fails_naming_a_bad_argument_or_returns_finite(call, valid, arg, bad,
                                                                    data):
    value = data.draw(bad, label=arg)
    try:
        out = call(**{**valid, arg: value})
    except ValueError as err:
        assert _names_argument(err, _MESSAGE_NAME.get(arg, arg)), str(err)
    else:
        assert _finite(out), (arg, value, out)
