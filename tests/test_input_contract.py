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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzlab.bounds import (
    BoundInputs,
    all_bounds,
    dudley_rademacher_bound,
    log_covering_bound,
    pdim_bound,
    predicted_rates,
)
from ritzlab.gadgets import fit_spline_coefficients, full_index_range, prescribe_architecture
from ritzlab.harness import DecompositionConfig, StudyConfig, TrainRunConfig
from ritzlab.networks import IDENTITY, RELU2, Architecture
from ritzlab.problems import make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import (
    derived_seed,
    energy_excess,
    population_loss_estimate,
    statistical_gap_estimate,
)
from ritzlab.sampling import h1_error, make_sample_set, rng_stream, sample_boundary, sample_domain
from ritzlab.training import TrainConfig, init_network

from conftest import random_relu2_net

NET = random_relu2_net(1, (3,), seed=0)
COSINE = make_cosine_problem(1)
TINY = Architecture((1, 3, 1), (RELU2, IDENTITY))
BOUND_ARGS = dict(depth=2, width=3, d=1, n=100_000, B=1.0, c3=1.0)


def _bounds(**kw):
    return all_bounds(BoundInputs(**{**BOUND_ARGS, **kw}))


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
    (lambda: statistical_gap_estimate(NET, COSINE, 4, 2, 0, reference_n=0), "reference_n"),
    (lambda: derived_seed(0, 1.5), "k"),
], ids=["rates-nan-nu", "pdim-float-depth", "inputs-float-depth", "inputs-bool-depth",
        "inputs-float-n", "cosine-float-d", "quadratic-bool-d", "boundary-float-m",
        "domain-bool-n", "gap-zero-reference-n", "seed-float-k"])
def test_bad_input_fails_naming_the_argument(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert _names_argument(info.value, name), str(info.value)


# ------------------------------------------------ fuzzed bad values


def _count(low, huge=False):
    """Bad counts: floats (NaN, inf and integral ones too), bools and ints
    below low.  With huge, also valid ints up to 1e12: only for entries that
    allocate nothing by count."""
    bad = st.one_of(st.floats(), st.booleans(), st.integers(max_value=low - 1))
    return st.one_of(bad, st.integers(low, 10**12)) if huge else bad


def _real(strict=False):
    """Bad reals: NaN, +-inf and values below 0 (0 too when strict).  A bool
    is a real, so it may be accepted."""
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


def _fit(**kw):
    return fit_spline_coefficients(lambda q: q[:, 0], **kw).coefficients


def _counts(**lows):
    return {name: _count(low) for name, low in lows.items()}


_HUGE = _count(1, huge=True)
_ESTIMATOR_ARGS = {"n_quad": 16, "seed": 0}

# label: (call, valid keywords, {argument: bad values}); one argument is fuzzed at a time
ENTRIES = {
    "all_bounds": (_bounds, {}, {"depth": _HUGE, "width": _HUGE, "d": _HUGE, "n": _HUGE,
                                 "B": _real(), "c3": _real(True), "nu": _real(),
                                 "pdim_constant": _real(True)}),
    "all_bounds_args": (functools.partial(all_bounds, BoundInputs(**BOUND_ARGS)), {},
                        {"C_Bc3": _real(True), "eps": _real(True)}),
    "pdim_bound": (pdim_bound, {"depth": 2, "width": 3},
                   {"depth": _HUGE, "width": _HUGE, "pdim_constant": _real(True)}),
    "log_covering_bound": (log_covering_bound, {"eps": 0.5, "n": 1000, "B": 1.0, "pdim": 10},
                           {"eps": _real(True), "n": _HUGE, "B": _real(True), "pdim": _real()}),
    "dudley_rademacher_bound": (dudley_rademacher_bound, {"n": 1000, "B": 1.0, "pdim": 10},
                                {"n": _HUGE, "B": _real(True), "pdim": _real()}),
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
    "population_loss_estimate": (functools.partial(population_loss_estimate, NET, COSINE),
                                 _ESTIMATOR_ARGS, _counts(n_quad=2, seed=0)),
    "statistical_gap_estimate": (functools.partial(statistical_gap_estimate, NET, COSINE),
                                 {"n": 4, "reps": 2, "seed": 0, "reference_n": 8},
                                 _counts(n=1, reps=2, seed=0, reference_n=1)),
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
                       _counts(n=1, n_quad=2)),
    "StudyConfig": (StudyConfig, {}, _counts(n_quad=2, repetitions=1)),
    "DecompositionConfig": (DecompositionConfig, {},
                            _counts(n=1, n_quad=2, spline_level=1, gap_reps=2, restarts=1)),
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
