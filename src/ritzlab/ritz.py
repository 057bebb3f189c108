"""The empirical Ritz loss, its four-term split, and derived estimators.

The loss of a candidate u over samples X_i in the domain and Y_j on the
boundary (with |Omega| = 1, |boundary| = 2d) is

    (1/N) sum_i [ ||grad u(X_i)||^2 / 2 + w(X_i) u(X_i)^2 / 2 - u(X_i) f(X_i) ]
    - (2d/M) sum_j u(Y_j) g(Y_j),

reported with the gradient, mass, forcing and boundary terms separated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .networks import (
    Network,
    _as_int,
    _block_pass,
    _finite_on_unit_cube,
    _pointwise,
    _row_sums,
    forward_batch,
    weighted_parameter_gradient,
)
from .problems import Problem
from .sampling import (
    SampleSet,
    _check_input_dim,
    _sample_shape,
    mc_mean,
    sample_boundary,
    sample_domain,
)


def derived_seed(seed: int, k: int) -> int:
    """Stable arithmetic child seeds for replications and independent draws."""
    return (_as_int(seed, "seed", 0) * 1_000_003 + _as_int(k, "k", 0)) % 2**63


class LossReport(NamedTuple):
    """Total empirical Ritz loss and its four terms.

    total = grad_term + mass_term - forcing_term - boundary_term, exactly
    as computed (the additivity identity is preserved to rounding).
    """

    total: float
    grad_term: float
    mass_term: float
    forcing_term: float
    boundary_term: float


def _domain_pieces(vals, grads, w, f):
    """Per-point gradient, mass and forcing integrands of the Ritz loss."""
    return 0.5 * _row_sums(grads**2), 0.5 * w * vals**2, vals * f


def _loss_report(d: int, domain_means, b_vals, g_vals) -> LossReport:
    """The domain pieces' sample means plus the boundary term, as one report."""
    tg, tm, tf = domain_means
    tb = 2.0 * d * float(np.mean(b_vals * g_vals))
    return LossReport(tg + tm - tf - tb, tg, tm, tf, tb)


def _boundary_values(net: Network, y: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
    """u at the boundary points y, or g_vals when g == 0 there and u is certified
    finite on [0, 1]^d: each u * g is then a signed zero, whose mean is +0.0 like
    that of g * g, so no bit moves; a u that may overflow still yields its NaN."""
    if np.any(g_vals) or not _finite_on_unit_cube(net):
        return forward_batch(net, y)
    return g_vals


def empirical_loss(net: Network, p: Problem, samples: SampleSet) -> LossReport:
    """Empirical Ritz loss on a fixed sample set, terms reported separately; the
    domain pieces run span by span (_pointwise) and are averaged before the boundary."""
    _check_input_dim(net, p, samples)
    x, y = samples.domain_points, samples.boundary_points
    means = [float(np.mean(piece)) for piece in _pointwise(
        net, x, lambda xs, u, du: _domain_pieces(u, du, p.w(xs), p.f(xs)), 3)]
    g_vals = p.g(y)
    return _loss_report(p.d, means, _boundary_values(net, y, g_vals), g_vals)


class EnergyExcessReport(NamedTuple):
    """L(u) - L(u*) next to the matching quadratic form of the difference.

    For the weak solution u*, L(u) - L(u*) = (grad v, grad v)/2 + (v, v)_w / 2
    with v = u - u*; h1_sq_of_diff estimates the bracket (grad v, grad v)
    + (v, v)_w on the domain sample of excess, so excess ~
    h1_sq_of_diff / 2.  sandwich_se is the SE of excess - h1_sq_of_diff / 2
    from their paired per-point difference (common random numbers).
    """

    excess: float
    excess_se: float
    h1_sq_of_diff: float
    h1_sq_of_diff_se: float
    sandwich_se: float
    n_quad: int
    seed: int


def energy_excess(net: Network, p: Problem, n_quad: int, seed: int) -> EnergyExcessReport:
    """mc_mean of the population integrand, of the quadratic form |grad v|^2
    + w v^2 (v = u - u*) and of their paired difference population - form / 2,
    from one span-by-span pass over sample_domain(n_quad, d, seed) (_pointwise);
    then that of u * g on sample_boundary(n_quad, d, seed), drawn once the rows
    are dropped, with u from _boundary_values, so a u that overflows there
    makes it NaN.
    """
    if p.analytic_energy is None:
        raise ValueError(f"problem {p.name!r} has no analytic energy")
    _check_input_dim(net, p)
    n_quad = _sample_shape(n_quad, p.d, "n_quad", 2)[0]

    def integrand(xs, u, du):
        w = p.w(xs)
        tg, tm, tf = _domain_pieces(u, du, w, p.f(xs))
        v, dv = u - p.u_star(xs), du - p.grad_u_star(xs)
        return tg + tm - tf, _row_sums(dv**2) + w * v**2

    pop, form = _pointwise(net, sample_domain(n_quad, p.d, seed), integrand, 2)
    dom, quad_form, paired = mc_mean(pop), mc_mean(form), mc_mean(pop - 0.5 * form)
    del pop, form
    y = sample_boundary(n_quad, p.d, seed)
    g_vals = p.g(y)
    bnd = mc_mean(_boundary_values(net, y, g_vals) * g_vals, 2.0 * p.d)
    return EnergyExcessReport(dom.value - bnd.value - p.analytic_energy,
                              math.hypot(dom.std_error, bnd.std_error), *quad_form,
                              math.hypot(paired.std_error, bnd.std_error), n_quad, seed)


def loss_and_parameter_gradient(net: Network, p: Problem, samples: SampleSet):
    """Empirical loss together with its exact parameter gradient.

    Each block of domain points is pushed through the value+Jacobian
    recursion once; the loss reads u and grad u off that tape, and the
    adjoint replays it seeded with d(loss)/du = (w u - f)/n and
    d(loss)/d(grad u) = grad u / n.  The boundary adjoint runs only when some
    g(Y_j) is nonzero, since it adds nothing otherwise; boundary values come
    from _boundary_values.  The gradient is bitwise a _block_pass replay seeded
    so plus the boundary weighted_parameter_gradient.  empirical_loss reads
    grad u by the reverse sweep, so the two losses agree to rounding.
    """
    _check_input_dim(net, p, samples)
    x, y = samples.domain_points, samples.boundary_points
    n, m = samples.n_domain, samples.n_boundary
    w_vals, f_vals = p.w(x), p.f(x)
    g_vals = p.g(y)

    def domain_seeds(lo, hi, vals, grads):
        return (w_vals[lo:hi] * vals - f_vals[lo:hi]) / n, grads / n

    vals, grads, grad = _block_pass(net, x, input_gradients=True, seeds=domain_seeds)
    if np.any(g_vals):
        grad += weighted_parameter_gradient(net, y, -(2.0 * p.d / m) * g_vals)
    means = [float(np.mean(piece)) for piece in _domain_pieces(vals, grads, w_vals, f_vals)]
    return _loss_report(p.d, means, _boundary_values(net, y, g_vals), g_vals), grad


class StatisticalGapReport(NamedTuple):
    """Mean absolute loss gap E|L_n(u) - L(u)| of a fixed net at N = M = n
    samples, and that of each LossReport term under the same *_term name,
    estimated from n_quad points by the named method."""

    mean_abs_gap: float
    grad_term: float
    mass_term: float
    forcing_term: float
    boundary_term: float
    mean_abs_gap_se: float
    n: int
    n_quad: int
    method: str


def _central_moments(a: np.ndarray) -> tuple:
    """(variance with ddof = 1, third and fourth central moments) of a row."""
    dev = a - np.mean(a)
    sq = dev * dev  # products, not float powers, which are several times slower
    return float(np.sum(sq)) / (a.size - 1), float(np.mean(sq * dev)), float(np.mean(sq * sq))


def statistical_gap_estimate(net: Network, p: Problem, n: int, n_quad: int,
                             seed: int) -> StatisticalGapReport:
    """E|L_n(u) - L(u)| of a FIXED net at N = M = n, overall and per LossReport term.

    L_n - L is a sum of two independent means over n points, of h = |grad u|^2 / 2
    + w u^2 / 2 - f u on sample_domain(n_quad, d, seed) (one _pointwise pass) and of
    b = 2d u g on sample_boundary(n_quad, d, seed), so its mean size is the CLT's
    half-normal mean sqrt(2/pi) sqrt((Var h + Var b) / n) (Owen, ch. 2).  The SE is
    the hypot of the delta-method SE and the leading Edgeworth bias (gamma^2 -
    kappa) / 24 of the gap's skewness and excess kurtosis.
    """
    _check_input_dim(net, p)
    n = _sample_shape(n, p.d, "n")[0]
    n_quad = _sample_shape(n_quad, p.d, "n_quad", 2)[0]
    grad, mass, forcing = _pointwise(net, sample_domain(n_quad, p.d, seed),
                                     lambda xs, u, du: _domain_pieces(u, du, p.w(xs), p.f(xs)), 3)
    y = sample_boundary(n_quad, p.d, seed)
    g_vals = p.g(y)
    bnd = 2.0 * p.d * _boundary_values(net, y, g_vals) * g_vals
    (v_h, m3_h, m4_h), (v_b, m3_b, m4_b) = map(_central_moments, (grad + mass - forcing, bnd))
    v, k3 = v_h + v_b, m3_h - m3_b
    rel_se = 0.0 if v == 0.0 else math.hypot(  # products: a float power raises on overflow
        math.sqrt(max(m4_h - v_h * v_h + m4_b - v_b * v_b, 0.0) / n_quad) / (2.0 * v),
        (k3 * k3 / v - m4_h - m4_b + 3.0 * (v_h * v_h + v_b * v_b)) / (24.0 * n * v * v))
    gap = math.sqrt(2.0 / math.pi * v / n)
    variances = [float(np.var(a, ddof=1)) for a in (grad, mass, forcing)] + [v_b]
    terms = [math.sqrt(2.0 / math.pi * var / n) for var in variances]
    return StatisticalGapReport(gap, *terms, gap * rel_se, n, n_quad, "half-normal mean of "
                                "the CLT gap, variances from one n_quad-point pass")
