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
    forward_batch,
    values_and_input_gradients,
    weighted_parameter_gradient,
)
from .problems import Problem
from .sampling import (
    MCEstimate,
    SampleSet,
    _pointwise,
    make_sample_set,
    mc_mean,
    sample_boundary,
    sample_domain,
)

_REFERENCE_SAMPLES = 1_000_000


def derived_seed(seed: int, k: int) -> int:
    """Stable arithmetic child seeds for replications and reference draws."""
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


def _domain_pieces(vals, grads, w_at, f_at):
    """Per-point gradient, mass and forcing integrands of the Ritz loss.

    w_at() and f_at() return w and f at the points; they are called after
    the gradient piece is formed, so their arrays are not alive alongside it.
    """
    grad_piece = 0.5 * np.sum(grads**2, axis=1)
    return grad_piece, 0.5 * w_at() * vals**2, vals * f_at()


def _loss_report(d: int, domain_pieces, b_vals, g_vals) -> LossReport:
    """Sample means of the domain pieces plus the boundary term, as one report."""
    tg, tm, tf = (float(np.mean(piece)) for piece in domain_pieces)
    tb = 2.0 * d * float(np.mean(b_vals * g_vals))
    return LossReport(tg + tm - tf - tb, tg, tm, tf, tb)


def _boundary_values(net: Network, y: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
    """u at the boundary points y, or g_vals when g == 0 there and u is certified
    finite on [0, 1]^d: each u * g is then a signed zero, whose mean is +0.0 like
    that of g * g, so no bit moves; a u that may overflow still yields its NaN."""
    if np.any(g_vals) or not _finite_on_unit_cube(net):
        return forward_batch(net, y)
    return g_vals


def _check_loss_inputs(net: Network, p: Problem, samples: SampleSet) -> None:
    if samples.d != p.d or net.architecture.input_dim != p.d:
        raise ValueError("sample/net dimensions do not match the problem")
    if samples.n_domain == 0 or samples.n_boundary == 0:
        raise ValueError("sample set must contain domain and boundary points")


def empirical_loss(net: Network, p: Problem, samples: SampleSet) -> LossReport:
    """Empirical Ritz loss on a fixed sample set, terms reported separately."""
    _check_loss_inputs(net, p, samples)
    x, y = samples.domain_points, samples.boundary_points
    pieces = _domain_pieces(*values_and_input_gradients(net, x), lambda: p.w(x), lambda: p.f(x))
    g_vals = p.g(y, samples.boundary_faces)
    return _loss_report(p.d, pieces, _boundary_values(net, y, g_vals), g_vals)


def population_loss_estimate(net: Network, p: Problem, n_quad: int, seed: int) -> MCEstimate:
    """Monte-Carlo estimate of the population Ritz energy on fresh samples.

    The boundary integrand is u * g, with u from _boundary_values, so a u
    that overflows at a boundary sample makes the value NaN.
    """
    n_quad = _as_int(n_quad, "n_quad", 2)

    def integrand(xb, u, du):
        tg, tm, tf = _domain_pieces(u, du, lambda: p.w(xb), lambda: p.f(xb))
        return tg + tm - tf

    dom = mc_mean(_pointwise(net, sample_domain(n_quad, p.d, seed), integrand)[0])
    y, faces = sample_boundary(n_quad, p.d, seed)
    g_vals = p.g(y, faces)
    bnd = mc_mean(_boundary_values(net, y, g_vals) * g_vals, 2.0 * p.d)
    return MCEstimate(dom.value - bnd.value, math.hypot(dom.std_error, bnd.std_error))


class EnergyExcessReport(NamedTuple):
    """L(u) - L(u*) next to the matching quadratic form of the difference.

    For the weak solution u*, L(u) - L(u*) = (grad v, grad v)/2 + (v, v)_w / 2
    with v = u - u*; h1_sq_of_diff estimates the bracket (grad v, grad v)
    + (v, v)_w on an independent sample stream, so excess ~ h1_sq_of_diff / 2.
    """

    excess: float
    excess_se: float
    h1_sq_of_diff: float
    h1_sq_of_diff_se: float
    n_quad: int
    seed: int


def energy_excess(net: Network, p: Problem, n_quad: int, seed: int) -> EnergyExcessReport:
    if p.analytic_energy is None:
        raise ValueError(f"problem {p.name!r} has no analytic energy")
    pop = population_loss_estimate(net, p, n_quad, seed)

    def integrand(xb, u, du):
        v, dv = u - p.u_star(xb), du - p.grad_u_star(xb)
        return np.sum(dv**2, axis=1) + p.w(xb) * v**2

    x = sample_domain(n_quad, p.d, derived_seed(seed, 1))
    quad_form = mc_mean(_pointwise(net, x, integrand)[0])
    return EnergyExcessReport(
        excess=pop.value - p.analytic_energy,
        excess_se=pop.std_error,
        h1_sq_of_diff=quad_form.value,
        h1_sq_of_diff_se=quad_form.std_error,
        n_quad=n_quad,
        seed=seed,
    )


def loss_and_parameter_gradient(net: Network, p: Problem, samples: SampleSet):
    """Empirical loss together with its exact parameter gradient.

    Each block of domain points is pushed through the value+Jacobian
    recursion once; the loss reads u and grad u off that tape, and the
    adjoint replays it seeded with d(loss)/du = (w u - f)/n and
    d(loss)/d(grad u) = grad u / n.  The boundary adjoint runs only when some
    g(Y_j) is nonzero, since it adds nothing otherwise; boundary values come
    from _boundary_values.  Loss and gradient
    are bitwise equal to empirical_loss plus the domain and boundary
    weighted_parameter_gradient passes.
    """
    _check_loss_inputs(net, p, samples)
    x, y = samples.domain_points, samples.boundary_points
    n, m = samples.n_domain, samples.n_boundary
    w_vals, f_vals = p.w(x), p.f(x)
    g_vals = p.g(y, samples.boundary_faces)

    def domain_seeds(lo, hi, vals, grads):
        return (w_vals[lo:hi] * vals - f_vals[lo:hi]) / n, grads / n

    vals, grads, grad = _block_pass(net, x, input_gradients=True, seeds=domain_seeds)
    if np.any(g_vals):
        grad += weighted_parameter_gradient(net, y, -(2.0 * p.d / m) * g_vals)
    pieces = _domain_pieces(vals[:, 0], grads, lambda: w_vals, lambda: f_vals)
    return _loss_report(p.d, pieces, _boundary_values(net, y, g_vals), g_vals), grad


class StatisticalGapReport(NamedTuple):
    """Mean absolute loss gap of a fixed net at sample size n, per term too.

    The *_term fields are the mean absolute gaps of the LossReport fields
    of the same names.
    """

    mean_abs_gap: float
    grad_term: float
    mass_term: float
    forcing_term: float
    boundary_term: float
    mean_abs_gap_se: float
    n: int
    reps: int
    reference_n: int


def statistical_gap_estimate(
    net: Network,
    p: Problem,
    n: int,
    reps: int,
    seed: int,
    reference_n: int = _REFERENCE_SAMPLES,
) -> StatisticalGapReport:
    """|empirical - reference| loss gap for a FIXED network.

    The reference is a reference_n-sample estimate standing in for the
    population loss; reps independent n-sample sets are drawn and the mean
    absolute gap is reported overall and per loss term.  This estimates the
    fixed-net statistical fluctuation, not the supremum over a network class.
    """
    n, reps = _as_int(n, "n", 1), _as_int(reps, "reps", 2)
    reference_n = _as_int(reference_n, "reference_n", 1)
    ref = empirical_loss(net, p, make_sample_set(reference_n, reference_n, p.d,
                                                 derived_seed(seed, 0)))
    gaps = np.zeros((reps, len(ref)))
    for r in range(reps):
        rep = empirical_loss(net, p, make_sample_set(n, n, p.d, derived_seed(seed, r + 1)))
        gaps[r] = np.abs(np.subtract(rep, ref))
    means = gaps.mean(axis=0)
    se = mc_mean(gaps[:, 0]).std_error
    return StatisticalGapReport(*map(float, means), mean_abs_gap_se=se,
                                n=n, reps=reps, reference_n=reference_n)
