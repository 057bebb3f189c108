import functools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from ritzlab.gadgets import (
    _BINOM3,
    _POINTS_PER_INTERVAL,
    SplineCombination,
    bspline_value,
    full_index_range,
    multivariate_bspline_value,
)
from ritzlab.harness import _random_relu2_net
import ritzlab.networks as networks
from ritzlab.networks import (
    IDENTITY,
    RELU,
    RELU2,
    Architecture,
    Network,
    _as_batch,
    _block_pass,
    forward_batch,
    values_and_input_gradients,
    weighted_parameter_gradient,
)
from ritzlab.problems import Problem
from ritzlab.ritz import derived_seed, empirical_loss
from ritzlab.sampling import (MCEstimate, _sqrt_with_se, make_sample_set, mc_mean, rng_stream,
                              sample_boundary, sample_domain)


# Every property test draws a fixed example sequence and has no deadline, so
# Tier-1 runs are deterministic; tests set only max_examples themselves.
settings.register_profile("ritzlab", derandomize=True, deadline=None)
settings.load_profile("ritzlab")


def rng_for(seed):
    return rng_stream(seed, 0)


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


def points_away_from_kinks(net, rng, n, box=(-1.5, 1.5), min_preact=1e-8, max_draws=10_000):
    """Sample n points whose pre-activations all clear the kinks.

    Finite-difference oracles are only valid away from activation breakpoints;
    resample any point with a pre-activation magnitude below min_preact.  Fail,
    naming min_preact, when max_draws draws leave fewer than n points (a unit
    whose pre-activation is a constant near 0 rejects every draw).
    """
    d = net.architecture.input_dim
    out = []
    for _ in range(max_draws):
        if len(out) == n:
            break
        x = rng.uniform(box[0], box[1], size=d)
        f = x
        ok = True
        for (act, _, _), w, b in zip(_unit_tables(net), net.weights, net.biases):
            z = w @ f + b
            if np.min(np.abs(z)) < min_preact:
                ok = False
                break
            f = act(z)
        if ok:
            out.append(x)
    if len(out) < n:
        pytest.fail(f"{len(out)} of {n} points clear the kinks at min_preact={min_preact:g} "
                    f"in {max_draws} draws")
    return np.array(out)


# ------------------------------------------------ closed-form test oracles


class EvalResult(NamedTuple):
    """Value and exact input gradient of a scalar network at one point."""

    value: float
    input_gradient: np.ndarray


def forward(net: Network, x) -> float:
    """Network value at a single point."""
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
        dgrad[i] = replayed_parameter_gradient(net, xb, np.zeros(1), e)
    return du, dgrad


def replayed_parameter_gradient(net: Network, x, v, m) -> np.ndarray:
    """sum_b [ v_b * du(x_b)/dphi + sum_i m_{b,i} * d(D_i u)(x_b)/dphi ]: the
    forward-mode tape replayed with value and gradient weights, as the fused
    loss gradient replays it for its domain term."""
    def seeds(lo, hi, _vals, _grads):
        return v[lo:hi], m[lo:hi]

    return _block_pass(net, _as_batch(net, x), input_gradients=True, seeds=seeds)[2]


def tape_values_and_input_gradients(net: Network, x):
    """(values, grad u) read off the forward-mode Jacobian tape, which the
    library records only for passes that replay it with gradient weights: a
    zero-weight parameter-gradient pass returns them."""
    x = _as_batch(net, x)
    return _block_pass(net, x, input_gradients=True,
                       seeds=lambda lo, hi, _v, _g: (np.zeros(hi - lo), None))[:2]


# ------------------------------------- batch-major recursion oracles
#
# The library stores its tapes unit-major, (N_l, B, d), in reused workspaces.
# Below are the batch-major, (B, N_l, d), recursions on activation tables of
# their own, in fresh arrays and _CHUNK_ROWS-row blocks: the forward-mode
# input Jacobians, the reverse sweep lam <- (lam * f'_l) W_l for grad u, and
# the parameter adjoint.  The library's passes are bitwise equal to them.


def _unit_tables(net):
    """Per layer, (act, act', act'') callables chosen per unit with np.where."""
    tables = []
    for spec, w in zip(net.architecture.activations, net.weights):
        tags = np.array([spec] * w.shape[0] if isinstance(spec, str) else spec)
        relu, relu2 = tags == RELU, tags == RELU2

        def val(z, relu=relu, relu2=relu2):
            zp = np.maximum(z, 0.0)
            return np.where(relu, zp, np.where(relu2, zp * zp, z))

        def d1(z, relu=relu, relu2=relu2):
            return np.where(relu, 1.0 * (z > 0.0), np.where(relu2, 2.0 * np.maximum(z, 0.0), 1.0))

        def d2(z, relu2=relu2):
            return np.where(relu2, 2.0 * (z > 0.0), 0.0)

        tables.append((val, d1, d2))
    return tables


def _batch_major_jacobian_matmul(a, g):
    b, n_in, d = g.shape
    g_mat = g.transpose(1, 0, 2).reshape(n_in, b * d)
    return (a @ g_mat).reshape(a.shape[0], b, d).transpose(1, 0, 2)


def _batch_major_tape(net, x, jacobians):
    """(values f_0..f_L, pre-activations z_1..z_L, Jacobians P_l, G_l or None)."""
    b_sz, d = x.shape
    fs = [x]
    zs = []
    ps = [] if jacobians else None
    gs = [np.broadcast_to(np.eye(d), (b_sz, d, d))] if jacobians else None
    for (val, d1, _), w, bias in zip(_unit_tables(net), net.weights, net.biases):
        z = fs[-1] @ w.T + bias
        zs.append(z)
        fs.append(val(z))
        if jacobians:
            p = _batch_major_jacobian_matmul(w, gs[-1])
            ps.append(p)
            gs.append(d1(z)[:, :, None] * p)
    return fs, zs, ps, gs


def _batch_major_adjoint(net, tape, lam, mat, grad_w, grad_b):
    fs, zs, ps, gs = tape
    tables = _unit_tables(net)
    for k in range(net.architecture.depth - 1, -1, -1):
        _, d1f, d2f = tables[k]
        d1 = d1f(zs[k])
        delta = lam * d1
        if mat is not None:
            delta = delta + d2f(zs[k]) * np.sum(mat * ps[k], axis=2)
            q = d1[:, :, None] * mat
            b_sz, n_q, dd = q.shape
            q_mat = q.transpose(1, 0, 2).reshape(n_q, b_sz * dd)
            g_mat = gs[k].transpose(1, 0, 2).reshape(gs[k].shape[1], b_sz * dd)
            grad_w[k] += q_mat @ g_mat.T
            mat = _batch_major_jacobian_matmul(net.weights[k].T, q)
        grad_w[k] += delta.T @ fs[k]
        grad_b[k] += delta.sum(axis=0)
        lam = delta @ net.weights[k]


def _batch_major_blocks(x):
    chunk = networks._CHUNK_ROWS
    return [(lo, min(lo + chunk, len(x))) for lo in range(0, len(x), chunk)]


def batch_major_jacobian_gradients(net, x):
    """(values, grad u) by the forward-mode input-Jacobian recursion."""
    vals, grads = np.empty(len(x)), np.empty(x.shape)
    for lo, hi in _batch_major_blocks(x):
        fs, _, _, gs = _batch_major_tape(net, x[lo:hi], True)
        vals[lo:hi] = fs[-1][:, 0]
        grads[lo:hi] = gs[-1][:, 0, :]
    return vals, grads


def batch_major_reverse_gradients(net, x):
    """(values, grad u) by one reverse sweep lam <- (lam * f'_l) W_l from lam = 1."""
    vals, grads = np.empty(len(x)), np.empty(x.shape)
    tables = _unit_tables(net)
    for lo, hi in _batch_major_blocks(x):
        fs, zs, _, _ = _batch_major_tape(net, x[lo:hi], False)
        lam = 1.0
        for k in range(net.architecture.depth - 1, -1, -1):
            lam = (lam * tables[k][1](zs[k])) @ net.weights[k]
        vals[lo:hi] = fs[-1][:, 0]
        grads[lo:hi] = lam
    return vals, grads


def batch_major_parameter_gradient(net, x, v, m=None):
    """weighted_parameter_gradient(net, x, v), or with m
    replayed_parameter_gradient(net, x, v, m), by the batch-major adjoint."""
    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for lo, hi in _batch_major_blocks(x):
        tape = _batch_major_tape(net, x[lo:hi], m is not None)
        seed = None if m is None else m[lo:hi, None, :]
        _batch_major_adjoint(net, tape, v[lo:hi, None], seed, grad_w, grad_b)
    return np.concatenate([t for gw, gb in zip(grad_w, grad_b) for t in (gw.ravel(), gb)])


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


def kronecker_spline_fit(target, level: int, dim: int) -> np.ndarray:
    """The full tensor-product spline fit's coefficients, in
    itertools.product(full_index_range(level), repeat=dim) order, by one dense
    least-squares solve with the d-fold Kronecker design on the collocation
    grid of fit_spline_coefficients."""
    axis_pts = np.linspace(0.0, 1.0, _POINTS_PER_INTERVAL * 2**level + 1)
    uni = np.stack([bspline_value(level, i, axis_pts) for i in full_index_range(level)], axis=1)
    design = functools.reduce(np.kron, [uni] * dim)
    grids = np.meshgrid(*([axis_pts] * dim), indexing="ij")
    return np.linalg.lstsq(design, target(np.stack([g.reshape(-1) for g in grids], axis=1)),
                           rcond=None)[0]


def traced_peak(fn):
    """(result, peak traced bytes above the start) of one call of fn."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def whole_array_estimators(net: Network, p: Problem, n_quad: int, seed: int) -> list:
    """The floats of h1_error(net, p, n_quad, seed), then those of
    energy_excess at seed + 1, by whole-array formulas: one
    values_and_input_gradients pass over each domain sample, then each
    per-point integrand over whole arrays."""
    x = sample_domain(n_quad, p.d, seed)
    vals, grads = values_and_input_gradients(net, x)
    m_e, se_e = mc_mean((vals - p.u_star(x)) ** 2)
    m_s, se_s = mc_mean(np.sum((grads - p.grad_u_star(x)) ** 2, axis=1))
    h1 = [*_sqrt_with_se(m_e, se_e), *_sqrt_with_se(m_s, se_s),
          *_sqrt_with_se(m_e + m_s, float(np.hypot(se_e, se_s)))]

    x = sample_domain(n_quad, p.d, seed + 1)
    vals, grads = values_and_input_gradients(net, x)
    energy = 0.5 * np.sum(grads**2, axis=1) + 0.5 * p.w(x) * vals**2 - vals * p.f(x)
    v, dv = vals - p.u_star(x), grads - p.grad_u_star(x)
    quad = np.sum(dv**2, axis=1) + p.w(x) * v**2
    dom, paired = mc_mean(energy), mc_mean(energy - 0.5 * quad)
    y = sample_boundary(n_quad, p.d, seed + 1)
    g = p.g(y)
    bnd = mc_mean(forward_batch(net, y) * g, 2.0 * p.d)
    return [*h1, dom.value - bnd.value - p.analytic_energy,
            math.hypot(dom.std_error, bnd.std_error), *mc_mean(quad),
            math.hypot(paired.std_error, bnd.std_error)]


def replicate_gap(net: Network, p: Problem, n: int, reps: int, seed: int,
                  reference_n: int = 1_000_000) -> MCEstimate:
    """The fixed-net loss gap by replication, the oracle of statistical_gap_estimate:
    mc_mean of |L_n(u) - L_ref(u)| over reps fresh N = M = n sample sets from
    derived_seed(seed, r + 1), where L_ref, the empirical loss on a reference_n-point
    set from derived_seed(seed, 0), stands in for the population loss."""
    ref = empirical_loss(net, p, make_sample_set(reference_n, reference_n, p.d,
                                                 derived_seed(seed, 0))).total
    return mc_mean([abs(empirical_loss(net, p, make_sample_set(n, n, p.d, derived_seed(seed, r)))
                        .total - ref) for r in range(1, reps + 1)])


class ProblemDefinitionError(RuntimeError):
    """Manufactured data failed its own consistency check."""


class ProblemVerification(NamedTuple):
    max_pde_residual: float
    max_flux_residual: float
    n_probe: int


_VERIFY_TOL = 1e-6  # largest residual verify_problem accepts
_FD_STEP = 1e-4  # step of verify_problem's central second differences


def verify_problem(p: Problem, n_probe: int, seed: int) -> ProblemVerification:
    """Check -lap(u*) + w u* - f and grad(u*) . n - g at seeded random probes.

    The Laplacian is formed by central second differences so problems never
    need analytic second derivatives.  Raises ProblemDefinitionError when
    either residual exceeds _VERIFY_TOL.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    rng = rng_for(seed)
    x = rng.uniform(0.0, 1.0, size=(n_probe, p.d))

    lap = np.zeros(n_probe)
    u0 = p.u_star(x)
    for axis in range(p.d):
        step = np.zeros(p.d)
        step[axis] = _FD_STEP
        lap += (p.u_star(x + step) - 2.0 * u0 + p.u_star(x - step)) / _FD_STEP**2
    pde_res = float(np.max(np.abs(-lap + p.w(x) * u0 - p.f(x))))

    n_bnd = max(n_probe, 2 * p.d)
    axes = rng.integers(0, p.d, size=n_bnd)
    sides = rng.integers(0, 2, size=n_bnd)
    pts = rng.uniform(0.0, 1.0, size=(n_bnd, p.d))
    pts[np.arange(n_bnd), axes] = sides.astype(float)
    normal_sign = 2.0 * sides - 1.0
    flux = p.grad_u_star(pts)[np.arange(n_bnd), axes] * normal_sign
    flux_res = float(np.max(np.abs(flux - p.g(pts))))

    if pde_res > _VERIFY_TOL or flux_res > _VERIFY_TOL:
        raise ProblemDefinitionError(
            f"problem {p.name!r} failed verification: "
            f"pde residual {pde_res:.3e}, flux residual {flux_res:.3e} (tol {_VERIFY_TOL:.1e})"
        )
    return ProblemVerification(pde_res, flux_res, n_probe)


@pytest.fixture
def rng():
    return rng_for(20240811)
