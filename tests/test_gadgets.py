import itertools
import math

import numpy as np
import pytest

from ritzlab.gadgets import (
    InvalidSplineIndexError,
    SplineCombination,
    SplineIndex,
    UnsupportedActivationError,
    bspline_derivative,
    bspline_value,
    build_gradient_norm_network,
    build_multivariate_bspline,
    build_product_gadget,
    build_spline_combination,
    build_square_gadget,
    build_univariate_bspline,
    evaluate_spline_combination,
    fit_spline_coefficients,
    full_index_range,
    multivariate_bspline_value,
    prescribe_architecture,
)
from ritzlab.networks import RELU2, forward, forward_batch, values_and_input_gradients

from conftest import random_relu2_net, rng_for


# ----------------------------------------------------- square / product


def test_square_gadget_points():
    net = build_square_gadget()
    assert forward(net, [-2.0]) == 4.0
    assert forward(net, [0.0]) == 0.0
    assert net.architecture.depth == 2
    assert net.architecture.width == 2


def test_square_gadget_dense_probes():
    net = build_square_gadget()
    x = rng_for(101).uniform(-10, 10, size=(10_000, 1))
    vals = forward_batch(net, x)
    assert np.all(np.abs(vals - x[:, 0] ** 2) <= 1e-12 * (1.0 + x[:, 0] ** 2))


def test_product_gadget_points():
    net = build_product_gadget()
    assert forward(net, [3.0, -2.0]) == pytest.approx(-6.0, abs=1e-14)
    assert forward(net, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)
    assert net.architecture.depth == 2
    assert net.architecture.width == 4


def test_product_gadget_dense_probes():
    net = build_product_gadget()
    xy = rng_for(102).uniform(-5, 5, size=(10_000, 2))
    vals = forward_batch(net, xy)
    exact = xy[:, 0] * xy[:, 1]
    assert np.all(np.abs(vals - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


# -------------------------------------------------------- univariate splines


def test_univariate_bspline_closed_form_points():
    net = build_univariate_bspline(1, 0)
    # closed form at l=1, i=0: 2 * (0.75^2 - 3 * 0.25^2) = 0.75
    assert forward(net, [0.75]) == pytest.approx(0.75, abs=1e-14)
    assert forward(net, [0.5]) == pytest.approx(0.5, abs=1e-14)
    assert forward(net, [0.0]) == 0.0
    assert forward(net, [1.5]) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_univariate_bspline_matches_closed_form(level):
    x = rng_for(103 + level).uniform(-0.5, 1.5, size=2000)
    for i in full_index_range(level):
        net = build_univariate_bspline(level, i)
        assert net.architecture.depth == 2
        assert net.architecture.width == 4
        vals = forward_batch(net, x.reshape(-1, 1))
        assert np.max(np.abs(vals - bspline_value(level, i, x))) <= 1e-12


def test_univariate_bspline_index_range():
    with pytest.raises(InvalidSplineIndexError):
        build_univariate_bspline(1, 2)  # top index at level 1 is 2^1 - 1 = 1
    with pytest.raises(InvalidSplineIndexError):
        build_univariate_bspline(1, -3)
    with pytest.raises(InvalidSplineIndexError):
        SplineIndex(0, (0,))


@pytest.mark.parametrize("make", [
    lambda: SplineIndex(2, (1.7, True)),  # int() would make this index (1, 1)
    lambda: SplineIndex(2, (1, True)),
    lambda: SplineIndex(2.5, (0,)),  # would build knots at multiples of 2^-2.5
    lambda: SplineIndex(True, (0,)),
    lambda: full_index_range(2.5),
], ids=["float-and-bool-index", "bool-index", "float-level", "bool-level", "range-float-level"])
def test_spline_level_and_index_must_be_integers(make):
    with pytest.raises(InvalidSplineIndexError, match="is not an integer"):
        make()


def test_bspline_nonnegative_and_supported():
    x = np.linspace(-1, 2, 1501)
    for level in (1, 2, 3):
        h = 2.0 ** (-level)
        for i in full_index_range(level):
            v = bspline_value(level, i, x)
            assert np.all(v >= -1e-12)
            outside = (x <= i * h) | (x >= (i + 3) * h)
            # cancellation above the support leaves O(2^{2l} eps) round-off
            assert np.max(np.abs(v[outside])) <= 1e-12


@pytest.mark.parametrize("level", [1, 2])
def test_univariate_bspline_network_gradient_matches_closed_form(level):
    # interior points only; the derivative has kinks at the knots
    x = rng_for(110 + level).uniform(0.01, 0.99, size=500)
    for i in full_index_range(level):
        net = build_univariate_bspline(level, i)
        _, grads = values_and_input_gradients(net, x.reshape(-1, 1))
        want = bspline_derivative(level, i, x)
        assert np.max(np.abs(grads[:, 0] - want)) <= 1e-11


@pytest.mark.parametrize("level", [1, 2, 3])
def test_partition_of_unity(level):
    xs = np.linspace(0.0, 1.0, 1000)
    total = np.zeros_like(xs)
    for i in full_index_range(level):
        net = build_univariate_bspline(level, i)
        total += forward_batch(net, xs.reshape(-1, 1))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


# ----------------------------------------------------- multivariate splines


def test_multivariate_bspline_point():
    idx = SplineIndex(1, (0, 0))
    net = build_multivariate_bspline(idx)
    assert forward(net, [0.75, 0.75]) == pytest.approx(0.5625, abs=1e-13)


def test_multivariate_bspline_outside_support_is_zero():
    idx = SplineIndex(2, (0, 1, 0))
    net = build_multivariate_bspline(idx)
    # second coordinate below the support (0.25, 1.0) of N_{2,1}
    assert forward(net, [0.4, 0.1, 0.4]) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("d,level", [(2, 1), (2, 3), (3, 2)])
def test_multivariate_bspline_matches_product_oracle(d, level):
    rng = rng_for(200 + 10 * d + level)
    nets = 0
    for _ in range(5):
        idx = SplineIndex(level, tuple(rng.integers(-2, 2**level, size=d)))
        net = build_multivariate_bspline(idx)
        assert net.architecture.depth <= math.ceil(math.log2(d)) + 2
        assert net.architecture.width <= 4 * d
        x = rng.uniform(-0.2, 1.2, size=(1000, d))
        vals = forward_batch(net, x)
        oracle = multivariate_bspline_value(idx, x)
        assert np.max(np.abs(vals - oracle)) <= 1e-10
        nets += 1
    assert nets == 5


# -------------------------------------------------------- combinations


def test_combination_singleton_matches_single_net():
    idx = SplineIndex(2, (1, 0))
    comb = SplineCombination(2, 2, {idx: 1.0})
    cnet = build_spline_combination(comb)
    snet = build_multivariate_bspline(idx)
    x = rng_for(301).uniform(0, 1, size=(100, 2))
    assert np.max(np.abs(forward_batch(cnet, x) - forward_batch(snet, x))) <= 1e-12


def test_combination_two_terms_linear():
    ia, ib = SplineIndex(2, (0,)), SplineIndex(2, (2,))
    comb = SplineCombination(2, 1, {ia: 2.0, ib: -1.0})
    cnet = build_spline_combination(comb)
    x = rng_for(302).uniform(0, 1, size=(200, 1))
    expected = 2.0 * bspline_value(2, 0, x[:, 0]) - bspline_value(2, 2, x[:, 0])
    assert np.max(np.abs(forward_batch(cnet, x) - expected)) <= 1e-12


def test_combination_zero_coefficients_is_zero():
    comb = SplineCombination(1, 1, {SplineIndex(1, (i,)): 0.0 for i in full_index_range(1)})
    cnet = build_spline_combination(comb)
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    assert np.max(np.abs(forward_batch(cnet, x))) == 0.0


def test_combination_rejects_mixed_levels():
    with pytest.raises(InvalidSplineIndexError):
        SplineCombination(2, 1, {SplineIndex(3, (0,)): 1.0})
    with pytest.raises(ValueError):
        build_spline_combination(SplineCombination(2, 1, {}))


def _unit_tags(arch, k):
    spec = arch.activations[k]
    return (spec,) * arch.layer_dims[k + 1] if isinstance(spec, str) else spec


@pytest.mark.parametrize("d, level", [(1, 3), (2, 2), (3, 1)])
def test_combination_layout_is_stacked_term_nets(d, level):
    # term j's block of every layer is byte-equal to its own product-tree net
    idxs = [SplineIndex(level, i) for i in itertools.product(full_index_range(level), repeat=d)]
    coeffs = rng_for(303).normal(size=len(idxs))
    coeffs[:3] = (-1.5, 0.0, -0.0)
    cnet = build_spline_combination(
        SplineCombination(level, d, {idx: float(c) for idx, c in zip(idxs, coeffs)}))
    subs = [build_multivariate_bspline(idx) for idx in idxs]  # idxs are sorted
    depth = subs[0].architecture.depth
    assert cnet.architecture.depth == depth
    for k in range(depth - 1):
        rows, cols = subs[0].weights[k].shape
        for j, sub in enumerate(subs):
            r = slice(j * rows, (j + 1) * rows)
            c = slice(None) if k == 0 else slice(j * cols, (j + 1) * cols)
            assert cnet.weights[k][r, c].tobytes() == sub.weights[k].tobytes()
            assert cnet.biases[k][r].tobytes() == sub.biases[k].tobytes()
            assert _unit_tags(cnet.architecture, k)[r] == _unit_tags(sub.architecture, k)
            if k > 0:
                off = np.delete(cnet.weights[k][r], c, axis=1)
                assert np.all(off == 0.0) and not np.signbit(off).any()
    cols = subs[0].weights[-1].shape[1]
    for j, (sub, coef) in enumerate(zip(subs, coeffs)):
        block = cnet.weights[-1][:, j * cols : (j + 1) * cols]
        assert block.tobytes() == (coef * sub.weights[-1]).tobytes()


def test_partition_of_unity_via_combination():
    comb = SplineCombination(3, 1, {SplineIndex(3, (i,)): 1.0 for i in full_index_range(3)})
    cnet = build_spline_combination(comb)
    xs = np.linspace(0, 1, 1000).reshape(-1, 1)
    assert np.max(np.abs(forward_batch(cnet, xs) - 1.0)) <= 1e-12


# ------------------------------------------------------------ fitting


def test_fit_recovers_basis_function():
    idx = SplineIndex(2, (1,))
    comb = fit_spline_coefficients(lambda p: bspline_value(2, 1, p[:, 0]), 2, 1)
    x = rng_for(303).uniform(0, 1, size=(500, 1))
    fit_vals = evaluate_spline_combination(comb, x)
    assert np.max(np.abs(fit_vals - bspline_value(2, 1, x[:, 0]))) <= 1e-8
    assert comb.coefficients[idx] == pytest.approx(1.0, abs=1e-8)


def test_fit_reproduces_constant_one():
    comb = fit_spline_coefficients(lambda p: np.ones(p.shape[0]), 3, 1)
    x = rng_for(304).uniform(0, 1, size=(500, 1))
    # brute-force oracle: all coefficients 1 reproduces 1 by partition of unity
    assert np.max(np.abs(evaluate_spline_combination(comb, x) - 1.0)) <= 1e-8


def test_fit_2d_target_in_span():
    idx = SplineIndex(1, (0, -1))
    comb = fit_spline_coefficients(lambda p: multivariate_bspline_value(idx, p), 1, 2)
    x = rng_for(305).uniform(0, 1, size=(300, 2))
    err = evaluate_spline_combination(comb, x) - multivariate_bspline_value(idx, x)
    assert np.max(np.abs(err)) <= 1e-8


def test_fit_network_agrees_with_closed_form():
    comb = fit_spline_coefficients(lambda p: np.cos(np.pi * p[:, 0]), 3, 1)
    net = build_spline_combination(comb)
    x = rng_for(306).uniform(0, 1, size=(400, 1))
    assert np.max(np.abs(forward_batch(net, x) - evaluate_spline_combination(comb, x))) <= 1e-10


# ------------------------------------------------- gradient-norm network


def test_gradient_norm_single_neuron():
    net = random_relu2_net(1, (1,), seed=0)
    # overwrite with the hand case u = sigma2(x)
    from ritzlab.networks import Architecture, Network, IDENTITY

    net = Network(
        Architecture((1, 1, 1), (RELU2, IDENTITY)),
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.zeros(1), np.zeros(1)],
    )
    gnet = build_gradient_norm_network(net)
    assert forward(gnet, [0.5]) == pytest.approx(1.0, abs=1e-14)
    assert forward(gnet, [-1.0]) == 0.0


def test_gradient_norm_of_square_gadget():
    gnet = build_gradient_norm_network(build_square_gadget())
    assert forward(gnet, [1.5]) == pytest.approx(9.0, abs=1e-13)
    assert forward(gnet, [-2.0]) == pytest.approx(16.0, abs=1e-13)


@pytest.mark.parametrize(
    "d,hidden,seed",
    [
        (1, (4,), 1),
        (2, (5, 4), 2),
        (2, (6, 5, 4), 3),
        (3, (4, 4, 4, 4), 4),
    ],
)
def test_gradient_norm_matches_analytic_gradient(d, hidden, seed):
    net = random_relu2_net(d, hidden, seed=seed)
    gnet = build_gradient_norm_network(net)
    depth, width = net.architecture.depth, net.architecture.width
    assert gnet.architecture.depth <= depth + 3
    assert gnet.architecture.width <= d * (depth + 2) * width
    x = rng_for(500 + seed).uniform(-1.5, 1.5, size=(1000, d))
    _, grads = values_and_input_gradients(net, x)
    want = np.sum(grads**2, axis=1)
    got = forward_batch(gnet, x)
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-9


def test_gradient_norm_depth_one_affine():
    from ritzlab.networks import Architecture, IDENTITY, Network

    net = Network(
        Architecture((3, 1), (IDENTITY,)),
        [np.array([[1.0, -2.0, 0.5]])],
        [np.array([0.3])],
    )
    gnet = build_gradient_norm_network(net)
    x = rng_for(501).uniform(-1, 1, size=(10, 3))
    assert np.allclose(forward_batch(gnet, x), 1.0 + 4.0 + 0.25)


def test_gradient_norm_rejects_mixed_input():
    gnet_src = build_gradient_norm_network(build_square_gadget())  # mixed relu/relu2
    with pytest.raises(UnsupportedActivationError):
        build_gradient_norm_network(gnet_src)


# ------------------------------------------------- prescribed architecture


def test_prescribe_architecture_examples():
    a = prescribe_architecture(2, 1024, 0.0)
    assert a.depth == 4
    assert a.width == 32
    assert a.layer_dims == (2, 32, 32, 32, 1)
    assert a.is_relu2_hidden()

    b = prescribe_architecture(2, 65536, 0.0)
    assert b.width == 8 * (16 - 4) ** 2 == 1152

    c = prescribe_architecture(1, 1, 5.0)
    assert c.width == 4
    assert c.depth == 3
