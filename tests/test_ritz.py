import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzlab.gadgets import fit_spline_coefficients
from ritzlab.networks import (
    IDENTITY,
    RELU2,
    Architecture,
    DimensionMismatchError,
    Network,
    forward_batch,
    values_and_input_gradients,
    weighted_parameter_gradient,
)
from ritzlab.problems import Problem, make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import (
    empirical_loss,
    energy_excess,
    loss_and_parameter_gradient,
    population_loss_estimate,
    statistical_gap_estimate,
)
from ritzlab.sampling import (
    MCEstimate,
    SampleSet,
    h1_error,
    make_sample_set,
    mc_mean,
    sample_boundary,
    sample_domain,
)
from ritzlab.training import TrainConfig, TrainingDivergedError, train

from conftest import (
    forward,
    forward_with_input_gradient,
    random_relu2_net,
    rng_for,
    sum_of_squares_net,
)


def zero_net(d):
    net = random_relu2_net(d, (3,), seed=0)
    return net.with_parameters(np.zeros(net.n_parameters))


def constant_net(d, c):
    arch = Architecture((d, 1, 1), (RELU2, IDENTITY))
    return Network(arch, [np.zeros((1, d)), np.zeros((1, 1))],
                   [np.zeros(1), np.array([c])])


def reference_loss(net, p, samples):
    """Direct re-summation oracle, written independently of the package path."""
    n = samples.n_domain
    tg = tm = tf = 0.0
    for x in samples.domain_points:
        r = forward_with_input_gradient(net, x)
        tg += 0.5 * float(np.sum(r.input_gradient**2))
        tm += 0.5 * float(p.w(x[None, :])[0]) * r.value**2
        tf += r.value * float(p.f(x[None, :])[0])
    tg, tm, tf = tg / n, tm / n, tf / n
    tb = 0.0
    for y, face in zip(samples.boundary_points, samples.boundary_faces):
        tb += forward(net, y) * float(p.g(y[None, :], face[None, :])[0])
    tb *= 2.0 * p.d / samples.n_boundary
    return tg + tm - tf - tb


def test_empty_sample_set_rejected():
    p = make_cosine_problem(2)
    empty = SampleSet(np.empty((0, 2)), np.empty((0, 2)),
                      np.empty((0, 2), dtype=int))
    with pytest.raises(ValueError):
        empirical_loss(zero_net(2), p, empty)


def test_zero_net_has_zero_loss():
    p = make_cosine_problem(2)
    s = make_sample_set(200, 100, 2, seed=1)
    rep = empirical_loss(zero_net(2), p, s)
    assert rep.total == 0.0
    assert rep.grad_term == rep.mass_term == rep.forcing_term == rep.boundary_term == 0.0


def test_constant_net_loss_hand_computation():
    p = make_cosine_problem(2)
    s = make_sample_set(500, 200, 2, seed=2)
    rep = empirical_loss(constant_net(2, 1.0), p, s)
    f_bar = float(np.mean(p.f(s.domain_points)))
    assert rep.total == pytest.approx(0.5 - f_bar, rel=1e-12)
    assert rep.mass_term == pytest.approx(0.5, rel=1e-12)
    assert rep.grad_term == 0.0


def test_loss_matches_resummation_oracle():
    p = make_quadratic_problem(2)
    s = make_sample_set(60, 40, 2, seed=3)
    net = random_relu2_net(2, (5, 4), seed=4)
    rep = empirical_loss(net, p, s)
    assert rep.total == pytest.approx(reference_loss(net, p, s), rel=1e-10)


def test_loss_additivity_identity():
    p = make_quadratic_problem(2)
    s = make_sample_set(300, 150, 2, seed=5)
    rep = empirical_loss(random_relu2_net(2, (6,), seed=6), p, s)
    lhs = rep.grad_term + rep.mass_term - rep.forcing_term - rep.boundary_term
    assert rep.total == pytest.approx(lhs, rel=1e-12, abs=1e-15)


def test_loss_permutation_invariant_to_rounding():
    p = make_quadratic_problem(2)
    s = make_sample_set(400, 200, 2, seed=7)
    rng = rng_for(8)
    perm_d = rng.permutation(400)
    perm_b = rng.permutation(200)
    s2 = SampleSet(s.domain_points[perm_d], s.boundary_points[perm_b],
                   s.boundary_faces[perm_b])
    net = random_relu2_net(2, (5,), seed=9)
    a, b = empirical_loss(net, p, s), empirical_loss(net, p, s2)
    assert a.total == pytest.approx(b.total, rel=1e-13)


@settings(max_examples=15)
@given(st.sampled_from([1, 2, 3]), st.permutations(range(600)), st.permutations(range(600)))
def test_loss_and_gradient_invariant_under_point_permutations(d, perm_d, perm_b):
    # 600 points per set span three 256-row blocks; g is nonzero on the
    # boundary, so the boundary adjoint runs too
    p = make_quadratic_problem(d)
    s = make_sample_set(600, 600, d, seed=50 + d)
    s2 = SampleSet(s.domain_points[perm_d], s.boundary_points[perm_b],
                   s.boundary_faces[perm_b])
    net = random_relu2_net(d, (12, 12), seed=51)
    (rep, grad), (rep2, grad2) = (loss_and_parameter_gradient(net, p, t) for t in (s, s2))
    for a, b in ((rep, rep2), (empirical_loss(net, p, s), empirical_loss(net, p, s2))):
        assert list(b._asdict().values()) == pytest.approx(
            list(a._asdict().values()), rel=1e-12)
    assert np.max(np.abs(grad2 - grad)) <= 1e-12 * np.max(np.abs(grad))


def test_large_sample_loss_near_analytic_energy():
    p = make_quadratic_problem(2)
    net = sum_of_squares_net(2)
    s = make_sample_set(1_000_000, 1_000_000, 2, seed=10)
    rep = empirical_loss(net, p, s)
    est = population_loss_estimate(net, p, 1_000_000, seed=10)
    assert abs(rep.total - p.analytic_energy) <= 5 * est.std_error


# --------------------------------------------------- population estimates


def test_population_loss_zero_net_is_zero():
    p = make_cosine_problem(3)
    est = population_loss_estimate(zero_net(3), p, 10_000, seed=11)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_population_loss_deterministic():
    p = make_cosine_problem(2)
    net = random_relu2_net(2, (4,), seed=12)
    a = population_loss_estimate(net, p, 20_000, seed=13)
    b = population_loss_estimate(net, p, 20_000, seed=13)
    assert a == b


def boundary_pass_population_loss(net, p, n_quad, seed):
    """Oracle: the population estimate with the boundary term always formed
    as mean(u(Y) g(Y)), u evaluated at every boundary sample Y."""
    x = sample_domain(n_quad, p.d, seed)
    vals, grads = values_and_input_gradients(net, x)
    dom = mc_mean(0.5 * np.sum(grads**2, axis=1) + 0.5 * p.w(x) * vals**2 - vals * p.f(x))
    y, faces = sample_boundary(n_quad, p.d, seed)
    bnd = mc_mean(forward_batch(net, y) * p.g(y, faces), 2.0 * p.d)
    return MCEstimate(dom.value - bnd.value, math.hypot(dom.std_error, bnd.std_error))


@pytest.mark.parametrize("make_problem, boundary_passes",
                         [(make_cosine_problem, 0), (make_quadratic_problem, 1)])
@pytest.mark.parametrize("d", [1, 2])
def test_population_loss_evaluates_the_boundary_only_when_g_is_nonzero(
        monkeypatch, make_problem, boundary_passes, d):
    p = make_problem(d)
    net = random_relu2_net(d, (5, 4), seed=23 + d)
    calls = []

    def counting_forward_batch(net, x):
        calls.append(len(x))
        return forward_batch(net, x)

    monkeypatch.setattr("ritzlab.ritz.forward_batch", counting_forward_batch)
    est = population_loss_estimate(net, p, 3000, seed=24)
    assert calls == [3000] * boundary_passes
    ref = boundary_pass_population_loss(net, p, 3000, seed=24)
    assert est == ref
    assert [v.hex() for v in est] == [v.hex() for v in ref]


def test_energy_excess_at_exact_solution():
    p = make_quadratic_problem(2)
    rep = energy_excess(sum_of_squares_net(2), p, 100_000, seed=14)
    assert abs(rep.excess) <= 5 * rep.excess_se
    assert rep.h1_sq_of_diff <= 1e-18


def test_energy_excess_sandwich_identity_w_equals_one():
    # with w = 1 the excess equals half the squared H1 norm of the difference
    p = make_cosine_problem(2)
    for seed in (15, 16, 17):
        net = random_relu2_net(2, (5, 4), seed=seed, scale=0.5)
        rep = energy_excess(net, p, 200_000, seed=seed)
        combined = math.hypot(rep.excess_se, 0.5 * rep.h1_sq_of_diff_se)
        assert abs(rep.excess - 0.5 * rep.h1_sq_of_diff) <= 5 * combined


def test_energy_excess_nonnegative_up_to_noise():
    p = make_cosine_problem(1)
    for seed in (18, 19, 20, 21):
        net = random_relu2_net(1, (4,), seed=seed)
        rep = energy_excess(net, p, 50_000, seed=seed)
        assert rep.excess >= -5 * rep.excess_se


def test_energy_excess_requires_analytic_energy():
    p = make_cosine_problem(1)
    stripped = Problem(
        name="no-energy", d=1, w=p.w, f=p.f, g=p.g, u_star=p.u_star,
        grad_u_star=p.grad_u_star, c1=p.c1, c2=p.c2, c3=p.c3, w_sup=p.w_sup,
    )
    with pytest.raises(ValueError):
        energy_excess(zero_net(1), stripped, 1000, seed=22)


# ------------------------------------------------------- loss gradient


def test_loss_gradient_matches_finite_differences():
    p = make_quadratic_problem(2)
    s = make_sample_set(40, 30, 2, seed=23)
    net = random_relu2_net(2, (5, 4), seed=24)
    rep, grad = loss_and_parameter_gradient(net, p, s)
    assert rep.total == pytest.approx(empirical_loss(net, p, s).total, rel=1e-12)

    theta = net.flatten_parameters()
    rng = rng_for(25)
    h = 1e-5
    for c in rng.choice(theta.size, size=30, replace=False):
        tp, tm_ = theta.copy(), theta.copy()
        tp[c] += h
        tm_[c] -= h
        fd = (
            empirical_loss(net.with_parameters(tp), p, s).total
            - empirical_loss(net.with_parameters(tm_), p, s).total
        ) / (2 * h)
        assert abs(grad[c] - fd) / max(1.0, abs(fd)) < 1e-5


def test_loss_gradient_dead_downstream_parameters():
    # zero weights beyond the first layer kill every parameter path upstream
    p = make_quadratic_problem(2)
    s = make_sample_set(50, 30, 2, seed=26)
    net = random_relu2_net(2, (5,), seed=27)
    theta = net.flatten_parameters()
    n_first = 5 * 2 + 5
    theta[n_first:] = 0.0
    dead = net.with_parameters(theta)
    _, grad = loss_and_parameter_gradient(dead, p, s)
    assert np.all(grad[:n_first] == 0.0)


def test_loss_gradient_linear_in_forcing():
    p = make_quadratic_problem(2)
    no_f = Problem(
        name="no-forcing", d=2, w=p.w, f=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        g=p.g, u_star=p.u_star, grad_u_star=p.grad_u_star,
        c1=p.c1, c2=p.c2, c3=p.c3, w_sup=p.w_sup,
    )
    s = make_sample_set(40, 25, 2, seed=28)
    net = random_relu2_net(2, (4, 3), seed=29)
    _, grad_full = loss_and_parameter_gradient(net, p, s)
    _, grad_nof = loss_and_parameter_gradient(net, no_f, s)

    # the difference must be exactly the forcing-term gradient (FD oracle)
    theta = net.flatten_parameters()
    h = 1e-5
    rng = rng_for(30)
    for c in rng.choice(theta.size, size=15, replace=False):
        tp, tm_ = theta.copy(), theta.copy()
        tp[c] += h
        tm_[c] -= h
        forcing = lambda nn: float(np.mean(
            np.asarray(p.f(s.domain_points))
            * np.asarray([forward(nn, x) for x in s.domain_points])
        ))
        fd = (forcing(net.with_parameters(tp)) - forcing(net.with_parameters(tm_))) / (2 * h)
        assert (grad_full - grad_nof)[c] == pytest.approx(-fd, rel=1e-4, abs=1e-9)


def two_pass_loss_and_gradient(net, p, samples):
    """The unfused composition: one value+Jacobian pass for the loss, then a
    separate domain and boundary adjoint, each recomputing its forward pass."""
    x, y = samples.domain_points, samples.boundary_points
    n, m = samples.n_domain, samples.n_boundary
    vals, grads = values_and_input_gradients(net, x)
    tg = float(np.mean(0.5 * np.sum(grads**2, axis=1)))
    tm = float(np.mean(0.5 * p.w(x) * vals**2))
    tf = float(np.mean(vals * p.f(x)))
    g_vals = p.g(y, samples.boundary_faces)
    b_vals = forward_batch(net, y)
    tb = 2.0 * p.d * float(np.mean(b_vals * g_vals))
    grad = weighted_parameter_gradient(net, x, (p.w(x) * vals - p.f(x)) / n, grads / n)
    grad += weighted_parameter_gradient(net, y, -(2.0 * p.d / m) * g_vals)
    return (tg + tm - tf - tb, tg, tm, tf, tb), grad


@pytest.mark.parametrize("make_problem", [make_cosine_problem, make_quadratic_problem])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("chunk_size", [None, 7])
def test_fused_loss_gradient_bitwise_equals_two_pass(monkeypatch, make_problem, d, chunk_size):
    if chunk_size is not None:
        # the default block holds all 50 domain points; force 8 value+Jacobian blocks
        monkeypatch.setattr("ritzlab.networks._CHUNK_ROWS", chunk_size)
    p = make_problem(d)
    s = make_sample_set(50, 30, d, seed=40 + d)
    net = random_relu2_net(d, (6, 5), seed=41)
    rep, grad = loss_and_parameter_gradient(net, p, s)
    terms, grad_ref = two_pass_loss_and_gradient(net, p, s)
    assert (rep.total, rep.grad_term, rep.mass_term, rep.forcing_term,
            rep.boundary_term) == terms
    assert np.array_equal(grad, grad_ref)
    assert rep == empirical_loss(net, p, s)


def test_multi_output_net_rejected_by_both_loss_entries():
    p = make_quadratic_problem(2)
    s = make_sample_set(20, 10, 2, seed=44)
    rng = rng_for(45)
    arch = Architecture((2, 3, 2), (RELU2, IDENTITY))
    net = Network(arch, [rng.standard_normal((3, 2)), rng.standard_normal((2, 3))],
                  [rng.standard_normal(3), rng.standard_normal(2)])
    with pytest.raises(DimensionMismatchError):
        loss_and_parameter_gradient(net, p, s)
    with pytest.raises(DimensionMismatchError):
        empirical_loss(net, p, s)


def test_boundary_term_enters_gradient_when_g_nonzero():
    p = make_quadratic_problem(2)
    s = make_sample_set(40, 30, 2, seed=42)
    assert np.any(p.g(s.boundary_points, s.boundary_faces))
    no_g = Problem(
        name="no-boundary", d=2, w=p.w, f=p.f,
        g=lambda y, faces: np.zeros(np.atleast_2d(y).shape[0]),
        u_star=p.u_star, grad_u_star=p.grad_u_star,
        c1=p.c1, c2=p.c2, c3=p.c3, w_sup=p.w_sup,
    )
    net = random_relu2_net(2, (4, 3), seed=43)
    rep, grad = loss_and_parameter_gradient(net, p, s)
    rep0, grad0 = loss_and_parameter_gradient(net, no_g, s)
    assert rep.boundary_term != 0.0 and rep0.boundary_term == 0.0
    lam_bnd = -(2.0 * p.d / s.n_boundary) * p.g(s.boundary_points, s.boundary_faces)
    boundary_grad = weighted_parameter_gradient(net, s.boundary_points, lam_bnd)
    assert np.max(np.abs(boundary_grad)) > 0.0
    np.testing.assert_allclose(grad - grad0, boundary_grad, rtol=1e-10, atol=1e-14)


def test_non_finite_boundary_value_still_diverges_when_g_is_zero():
    # u = relu2(1e200 (x - 0.99)) is 0 on the domain points and overflows at
    # the boundary point x = 1, where the cosine problem has g = 0
    p = make_cosine_problem(1)
    arch = Architecture((1, 1, 1), (RELU2, IDENTITY))
    blown = Network(arch, [np.array([[1e200]]), np.array([[1.0]])],
                    [np.array([-0.99e200]), np.array([0.0])])
    s = SampleSet(np.full((4, 1), 0.5), np.array([[0.0], [1.0]]),
                  np.array([[0, 0], [0, 1]]))
    assert not np.any(p.g(s.boundary_points, s.boundary_faces))
    cfg = TrainConfig(iterations=2, batch_domain=4, batch_boundary=2, eval_every=1)
    with np.errstate(over="ignore", invalid="ignore"):
        rep, grad = loss_and_parameter_gradient(blown, p, s)
        assert math.isnan(rep.boundary_term) and math.isnan(rep.total)
        assert np.all(np.isfinite(grad))
        with pytest.raises(TrainingDivergedError):
            train(blown, p, s, cfg)


# -------------------------------------------------------- statistical gap


def test_gap_zero_net_is_zero():
    p = make_cosine_problem(2)
    rep = statistical_gap_estimate(zero_net(2), p, 256, reps=3, seed=31,
                                   reference_n=10_000)
    assert rep.mean_abs_gap == 0.0


def test_gap_shrinks_with_n():
    p = make_quadratic_problem(1)
    net = random_relu2_net(1, (4,), seed=32)
    small = statistical_gap_estimate(net, p, 64, reps=20, seed=33, reference_n=200_000)
    large = statistical_gap_estimate(net, p, 4096, reps=20, seed=33, reference_n=200_000)
    assert large.mean_abs_gap < small.mean_abs_gap


def test_gap_triangle_inequality_per_term():
    p = make_quadratic_problem(2)
    net = random_relu2_net(2, (4,), seed=34)
    rep = statistical_gap_estimate(net, p, 128, reps=5, seed=35, reference_n=50_000)
    term_sum = rep.grad_term + rep.mass_term + rep.forcing_term + rep.boundary_term
    assert rep.mean_abs_gap <= term_sum + 1e-12


@pytest.mark.parametrize("n, reps, match", [
    (0, 4, "n must be >= 1"),
    (1.5, 4, "n 1.5 is not an integer"),
    (True, 4, "n True is not an integer"),
    (64, 2.0, "reps 2.0 is not an integer"),
    (64, 1, "reps must be >= 2"),
])
def test_gap_rejects_bad_counts_naming_the_argument(n, reps, match):
    with pytest.raises(ValueError, match=match):
        statistical_gap_estimate(zero_net(1), make_cosine_problem(1), n, reps, seed=0,
                                 reference_n=100)


def test_gap_deterministic():
    p = make_cosine_problem(1)
    net = random_relu2_net(1, (3,), seed=36)
    a = statistical_gap_estimate(net, p, 128, reps=4, seed=37, reference_n=20_000)
    b = statistical_gap_estimate(net, p, 128, reps=4, seed=37, reference_n=20_000)
    assert a == b


def _cosine_target(q):
    return np.cos(np.pi * q[:, 0])


@pytest.mark.parametrize("call, match", [
    (lambda net, p: h1_error(net, p, 10.5, 0), "n_quad 10.5 is not an integer"),
    (lambda net, p: h1_error(net, p, True, 0), "n_quad True is not an integer"),
    (lambda net, p: h1_error(net, p, 1, 0), "n_quad must be >= 2"),
    (lambda net, p: energy_excess(net, p, 10.5, 0), "n_quad 10.5 is not an integer"),
    (lambda net, p: energy_excess(net, p, True, 0), "n_quad True is not an integer"),
    (lambda net, p: energy_excess(net, p, 1, 0), "n_quad must be >= 2"),
    (lambda net, p: population_loss_estimate(net, p, 2.0, 0), "n_quad 2.0 is not an integer"),
    (lambda net, p: fit_spline_coefficients(_cosine_target, 2, 0), "dim must be >= 1"),
    (lambda net, p: fit_spline_coefficients(_cosine_target, 2, 2.0), "dim 2.0 is not"),
    (lambda net, p: fit_spline_coefficients(_cosine_target, 2.0, 1), "level 2.0 is not"),
    (lambda net, p: fit_spline_coefficients(_cosine_target, 0, 1), "level must be >= 1"),
    (lambda net, p: fit_spline_coefficients(lambda q: np.full(len(q), np.nan), 2, 1),
     "target must map"),
    (lambda net, p: fit_spline_coefficients(lambda q: np.ones((len(q), 2)), 2, 1),
     r"target must map .* got shape \(17, 2\)"),
], ids=["h1-float", "h1-bool", "h1-one", "excess-float", "excess-bool", "excess-one",
        "population-float", "fit-dim-zero", "fit-dim-float", "fit-level-float",
        "fit-level-zero", "fit-nan-target", "fit-2-column-target"])
def test_evaluation_entries_reject_bad_inputs_naming_them(call, match):
    with pytest.raises(ValueError, match=match):
        call(zero_net(1), make_cosine_problem(1))
