import itertools
import math

import numpy as np
import pytest

from ritzlab.gadgets import (
    InvalidSplineIndexError,
    SplineCombination,
    SplineIndex,
    UnsupportedActivationError,
    bspline_value,
    build_gradient_norm_network,
    build_multivariate_bspline,
    build_product_gadget,
    build_spline_combination,
    build_square_gadget,
    build_univariate_bspline,
    fit_spline_coefficients,
    full_index_range,
    multivariate_bspline_value,
    prescribe_architecture,
)
from ritzlab.networks import RELU2, forward_batch, values_and_input_gradients

from conftest import (
    bspline_derivative,
    evaluate_spline_combination,
    forward,
    kronecker_spline_fit,
    random_relu2_net,
    rng_for,
    traced_peak,
)


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


def test_empty_spline_index_is_rejected_before_either_builder():
    # an empty index would reach _product_trees and fail there with a bare IndexError
    with pytest.raises(InvalidSplineIndexError, match=r"spline index \(\) is empty"):
        build_multivariate_bspline(SplineIndex(2, ()))
    with pytest.raises(InvalidSplineIndexError, match=r"spline index \[\] is empty"):
        build_spline_combination(SplineCombination(2, 0, {SplineIndex(2, []): 1.0}))


@pytest.mark.parametrize("level, i, match", [
    (2.5, 0, "spline level"),
    (True, 0, "spline level"),
    (0, 0, "level must be >= 1"),
    (2, 0.5, "spline index"),
    (2, True, "spline index"),
])
def test_bspline_value_rejects_non_dyadic_level_or_index(level, i, match):
    with pytest.raises(InvalidSplineIndexError, match=match):
        bspline_value(level, i, [0.1, 0.2])


def test_bspline_value_accepts_numpy_ints():
    x = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(bspline_value(np.int64(2), np.int32(1), x), bspline_value(2, 1, x))


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


def _random_terms(d, level, seed):
    """One seeded random coefficient per tensor-product index at (d, level)."""
    idxs = [SplineIndex(level, i) for i in itertools.product(full_index_range(level), repeat=d)]
    return {idx: float(c) for idx, c in zip(idxs, rng_for(seed).normal(size=len(idxs)))}


@pytest.mark.parametrize("d, level, dims", [(1, 3, (1, 13, 1)), (2, 2, (2, 18, 24, 1)),
                                            (3, 2, (3, 27, 150, 24, 1))])
def test_combination_builds_each_hidden_unit_once(d, level, dims):
    cnet = build_spline_combination(SplineCombination(level, d, _random_terms(d, level, 303)))
    arch = cnet.architecture
    assert arch.layer_dims == dims
    for k in range(arch.depth - 1):
        # + 0.0 identifies -0.0 with 0.0, as a unit's output does
        units = {(tuple(w + 0.0), b + 0.0, tag)
                 for w, b, tag in zip(cnet.weights[k], cnet.biases[k], _unit_tags(arch, k))}
        assert len(units) == dims[k + 1], k


def test_sparse_combination_builds_only_the_knots_its_terms_use():
    level, h = 3, 2.0**-3
    terms = {SplineIndex(level, (0, 5)): 1.0, SplineIndex(level, (3, 5)): -2.0}
    cnet = build_spline_combination(SplineCombination(level, 2, terms))
    # knot shifts i..i+3 per axis: 0..6 on axis 0, 5..8 on axis 1; one root
    # product, as both terms share the right factor N_{3,5}(y)
    assert cnet.architecture.layer_dims == (2, 11, 4, 1)
    knots = {(int(np.argmax(w)), float(-b / h)) for w, b in zip(cnet.weights[0], cnet.biases[0])}
    assert knots == {(0, k) for k in range(7)} | {(1, k) for k in range(5, 9)}
    x = rng_for(306).uniform(0, 1, size=(200, 2))
    want = sum(c * multivariate_bspline_value(idx, x) for idx, c in terms.items())
    assert np.max(np.abs(forward_batch(cnet, x) - want)) <= 1e-12


@pytest.mark.parametrize("indices", [[(0, 5), (3, 5)], [(0, 2), (0, 5), (0, 7)],
                                     [(0, 1, 2), (0, 1, 4), (3, 1, 2), (3, 6, 6)]],
                         ids=["right-shared", "left-shared", "d3-tie"])
def test_root_product_is_factored_on_the_side_with_fewer_keys(indices):
    level, d = 3, len(indices[0])
    split = 2 ** (math.ceil(math.log2(d)) - 1)  # factors in the root's left subtree
    coefs = rng_for(307).normal(size=len(indices))
    terms = {SplineIndex(level, i): float(c) for i, c in zip(indices, coefs)}
    cnet = build_spline_combination(SplineCombination(level, d, terms))
    keys = [{i[:split] for i in indices}, {i[split:] for i in indices}]
    assert cnet.architecture.layer_dims[-2] == 4 * min(map(len, keys))
    x = rng_for(308).uniform(0, 1, size=(500, d))
    want = sum(c * multivariate_bspline_value(idx, x) for idx, c in terms.items())
    assert np.max(np.abs(forward_batch(cnet, x) - want)) <= 1e-13 * np.max(np.abs(want))


def test_one_term_root_keeps_the_left_right_gadget_order():
    # the plain (x factor, y factor) product gadget, as in a single B-spline's tree
    level = 2
    cnet = build_spline_combination(SplineCombination(level, 2, {SplineIndex(level, (1, 0)): 1.0}))
    f = 2.0 ** (2 * level - 1) * np.array([1.0, -3.0, 3.0, -1.0])
    x_row, y_row = np.concatenate([f, np.zeros(4)]), np.concatenate([np.zeros(4), f])
    want = np.stack([x_row + y_row, -(x_row + y_row), x_row - y_row, y_row - x_row])
    assert cnet.architecture.layer_dims == (2, 8, 4, 1)
    assert np.array_equal(cnet.weights[1], want)
    assert np.array_equal(cnet.weights[2], [[0.25, 0.25, -0.25, -0.25]])


@pytest.fixture(scope="module", params=[(1, 3), (2, 2), (3, 1), (3, 2), (4, 1)],
                ids=lambda dl: f"d{dl[0]}-level{dl[1]}")
def combination_and_term_sum(request):
    """(combination net, 1000 points, the sum of its term nets' u and grad u there)."""
    d, level = request.param
    terms = _random_terms(d, level, 304 + d)
    x = rng_for(305).uniform(0, 1, size=(1000, d))
    want_u, want_du = np.zeros(1000), np.zeros((1000, d))
    for idx, c in terms.items():
        u, du = values_and_input_gradients(build_multivariate_bspline(idx), x)
        want_u += c * u
        want_du += c * du
    return build_spline_combination(SplineCombination(level, d, terms)), x, want_u, want_du


@pytest.mark.parametrize("n", [1, 255, 257, 1000])
def test_combination_matches_the_sum_of_its_term_nets(combination_and_term_sum, n):
    cnet, x, want_u, want_du = combination_and_term_sum
    u_scale, du_scale = np.max(np.abs(want_u)), np.max(np.abs(want_du))
    u, du = values_and_input_gradients(cnet, x[:n])
    assert np.max(np.abs(u - want_u[:n])) <= 1e-13 * u_scale
    assert np.max(np.abs(du - want_du[:n])) <= 1e-13 * du_scale
    assert np.max(np.abs(forward_batch(cnet, x[:n]) - want_u[:n])) <= 1e-13 * u_scale


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


def _asymmetric_target(q):
    """A smooth target that changes under every permutation of the axes, so a
    solve along the wrong axis shows."""
    return np.sin(q @ (1.0 + np.arange(q.shape[1]))) + q[:, 0] * q[:, -1] ** 2


def _fit_vector(level, dim):
    comb = fit_spline_coefficients(_asymmetric_target, level, dim)
    return np.array([comb.coefficients[SplineIndex(level, i)]
                     for i in itertools.product(full_index_range(level), repeat=dim)])


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_fit_is_the_dense_kronecker_solve_bitwise_at_d1(level):
    assert np.array_equal(_fit_vector(level, 1),
                          kronecker_spline_fit(_asymmetric_target, level, 1))


@pytest.mark.parametrize("dim, level", [(2, 2), (2, 3), (3, 2)])
def test_fit_agrees_with_the_dense_kronecker_solve(dim, level):
    got, want = _fit_vector(level, dim), kronecker_spline_fit(_asymmetric_target, level, dim)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fit_at_d3_level4_solves_axis_by_axis_in_little_memory():
    # the dense Kronecker design here would be 65^3 x 18^3 doubles, 12.8 GB
    comb, peak = traced_peak(lambda: fit_spline_coefficients(_asymmetric_target, 4, 3))
    assert len(comb.coefficients) == 18**3 and peak <= 64 * 2**20
    x = rng_for(307).uniform(0, 1, size=(200, 3))
    assert np.max(np.abs(evaluate_spline_combination(comb, x) - _asymmetric_target(x))) <= 1e-3


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
