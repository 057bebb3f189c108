from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from ritzlab.gadgets import _BINOM3, SplineCombination, multivariate_bspline_value
from ritzlab.harness import _random_relu2_net
from ritzlab.networks import (
    IDENTITY,
    RELU2,
    Architecture,
    DimensionMismatchError,
    Network,
    _as_batch,
    forward_batch,
    values_and_input_gradients,
    weighted_parameter_gradient,
)


# Every property test draws a fixed example sequence and has no deadline, so
# Tier-1 runs are deterministic; tests set only max_examples themselves.
settings.register_profile("ritzlab", derandomize=True, deadline=None)
settings.load_profile("ritzlab")


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, 0]))


def random_relu2_net(d, hidden_dims, seed, scale=0.8):
    """Random pure-ReLU^2 net with linear output, modest weights."""
    return _random_relu2_net(d, hidden_dims, rng_for(seed), scale)


def sum_of_squares_net(d):
    """Exact net computing sum_i x_i^2 via sigma2(x_i) + sigma2(-x_i)."""
    w1 = np.zeros((2 * d, d))
    for i in range(d):
        w1[2 * i, i] = 1.0
        w1[2 * i + 1, i] = -1.0
    w2 = np.ones((1, 2 * d))
    arch = Architecture((d, 2 * d, 1), (RELU2, IDENTITY))
    return Network(arch, [w1, w2], [np.zeros(2 * d), np.zeros(1)])


def points_away_from_kinks(net, rng, n, box=(-1.5, 1.5), min_preact=1e-8):
    """Sample points whose pre-activations all clear the kinks.

    Finite-difference oracles are only valid away from activation breakpoints;
    resample any point with a pre-activation magnitude below min_preact.
    """
    d = net.architecture.input_dim
    out = []
    while len(out) < n:
        x = rng.uniform(box[0], box[1], size=d)
        f = x
        ok = True
        for w, b in zip(net.weights, net.biases):
            z = w @ f + b
            if np.min(np.abs(z)) < min_preact:
                ok = False
                break
            f = np.maximum(z, 0.0) ** 2
        if ok:
            out.append(x)
    return np.array(out)


# ------------------------------------------------ closed-form test oracles


class EvalResult(NamedTuple):
    """Value and exact input gradient of a scalar network at one point."""

    value: float
    input_gradient: np.ndarray


def forward(net: Network, x) -> float:
    """Scalar network value at a single point."""
    if net.architecture.output_dim != 1:
        raise DimensionMismatchError("forward() expects a scalar-output network")
    return float(forward_batch(net, x)[0])


def forward_with_input_gradient(net: Network, x) -> EvalResult:
    """Value and exact gradient of the piecewise-polynomial net at one point."""
    vals, grads = values_and_input_gradients(net, x)
    return EvalResult(value=float(vals[0]), input_gradient=grads[0].copy())


def parameter_sensitivities(net: Network, x):
    """Exact derivatives of u(x) and of each input-gradient component w.r.t. phi.

    Returns (du_dphi, dgrad_dphi) with shapes (P,) and (d, P), flattened in
    the documented parameter order.
    """
    xb = _as_batch(net, x)
    d = net.architecture.input_dim
    du = weighted_parameter_gradient(net, xb, np.ones(1))
    dgrad = np.empty((d, net.n_parameters))
    for i in range(d):
        e = np.zeros((1, d))
        e[0, i] = 1.0
        dgrad[i] = weighted_parameter_gradient(net, xb, np.zeros(1), e)
    return du, dgrad


def bspline_derivative(level: int, i: int, x) -> np.ndarray:
    """Closed-form derivative of the order-3 cardinal B-spline."""
    h = 2.0 ** (-level)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j, c in enumerate(_BINOM3):
        out += c * 2.0 * np.maximum(x - (i + j) * h, 0.0)
    return 2.0 ** (2 * level - 1) * out


def evaluate_spline_combination(comb: SplineCombination, x) -> np.ndarray:
    """Closed-form evaluation of a spline combination (the network-free route)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros(x.shape[0])
    for idx, c in comb.coefficients.items():
        out += c * multivariate_bspline_value(idx, x)
    return out


@pytest.fixture
def rng():
    return rng_for(20240811)
