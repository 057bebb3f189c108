"""Property test of the network engine on drawn nets and batches.

Each drawn net exercises some of the engine's special paths: the point-major
d = 1 Jacobian stacks of a replayed tape, the one-input outer product, the
layer-1 view P_1 = W_1, 256-row block edges, mixed-activation masks and the
reverse sweep for grad u at every d.  Every pass is checked bitwise against
the batch-major oracles of conftest, and grad u against central differences.
Explicit examples put the row count on each side of the first block edge and
of the first 4096-point span edge at every d, whatever the derandomized draws
reach.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ritzlab.networks import (
    IDENTITY,
    RELU,
    RELU2,
    Architecture,
    Network,
    forward_batch,
    values_and_input_gradients,
    weighted_parameter_gradient,
)
from ritzlab.problems import make_quadratic_problem
from ritzlab.ritz import empirical_loss, loss_and_parameter_gradient
from ritzlab.sampling import make_sample_set

from conftest import (
    batch_major_jacobian_gradients,
    batch_major_parameter_gradient,
    batch_major_reverse_gradients,
    points_away_from_kinks,
    replayed_parameter_gradient,
    rng_for,
)

_TAGS = (RELU, RELU2, IDENTITY)


@st.composite
def _engine_nets(draw):
    """(net, rng): d 1..3, depth 1..4, widths 1..9, per-layer or per-unit
    activations."""
    d = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 9), min_size=0, max_size=3))
    dims = (d, *hidden, 1)
    acts = [draw(st.one_of(st.sampled_from(_TAGS),
                           st.lists(st.sampled_from(_TAGS), min_size=n, max_size=n).map(tuple)))
            for n in hidden]
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    ws = [rng.standard_normal((n_out, n_in)) / np.sqrt(n_in) for n_in, n_out in zip(dims, dims[1:])]
    bs = [0.5 * rng.standard_normal(n) for n in dims[1:]]
    return Network(Architecture(dims, (*acts, IDENTITY)), ws, bs), rng


def _at_block_and_span_edges(test):
    """One example per d = 1, 2, 3 and row count 1, 255, 256, 257, 4095, 4096
    and 4097, on a net with a mixed layer."""
    for d in (1, 2, 3):
        for n_blocks, offset in ((0, 1), (1, -1), (1, 0), (1, 1), (16, -1), (16, 0), (16, 1)):
            rng = rng_for(70 + d)
            dims = (d, 5, 4, 1)
            ws = [rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
                  for n_in, n_out in zip(dims, dims[1:])]
            bs = [0.5 * rng.standard_normal(n) for n in dims[1:]]
            arch = Architecture(dims, (RELU2, (RELU, RELU2, IDENTITY, RELU2), IDENTITY))
            test = example((Network(arch, ws, bs), rng), n_blocks, offset)(test)
    return test


@settings(max_examples=200)
@given(_engine_nets(), st.integers(0, 2), st.integers(-2, 2))
@_at_block_and_span_edges
def test_engine_passes_match_oracles_and_differences(case, n_blocks, offset):
    net, rng = case
    d = net.architecture.input_dim
    n = max(1, 256 * n_blocks + offset)  # block edges on either side of 256 rows
    x = rng.uniform(0.0, 1.0, size=(n, d))
    v, m = rng.standard_normal(n), rng.standard_normal((n, d))
    p, samples = make_quadratic_problem(d), make_sample_set(n, 8, d, n)
    vals, grads = values_and_input_gradients(net, x)
    got = [forward_batch(net, x), vals, grads, weighted_parameter_gradient(net, x, v),
           replayed_parameter_gradient(net, x, v, m),
           loss_and_parameter_gradient(net, p, samples)[1], list(empirical_loss(net, p, samples))]

    vals, grads = batch_major_reverse_gradients(net, x)
    xs, y = samples.domain_points, samples.boundary_points
    s_vals, s_grads = batch_major_jacobian_gradients(net, xs)  # the fused pass's tape
    loss_grad = batch_major_parameter_gradient(net, xs, (p.w(xs) * s_vals - p.f(xs)) / n,
                                               s_grads / n)
    loss_grad += batch_major_parameter_gradient(
        net, y, -(2.0 * d / len(y)) * p.g(y))
    # the span loss reads grad u as the passes do
    o_vals, o_grads = batch_major_reverse_gradients(net, xs)
    tg, tm, tf = (float(np.mean(piece)) for piece in (
        0.5 * np.sum(o_grads**2, axis=1), 0.5 * p.w(xs) * o_vals**2, o_vals * p.f(xs)))
    tb = 2.0 * d * float(np.mean(batch_major_reverse_gradients(net, y)[0] * p.g(y)))
    want = [vals, vals, grads, batch_major_parameter_gradient(net, x, v),
            batch_major_parameter_gradient(net, x, v, m), loss_grad,
            [tg + tm - tf - tb, tg, tm, tf, tb]]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)

    pts = points_away_from_kinks(net, rng, 3, box=(0.0, 1.0), min_preact=1e-3, max_draws=300)
    u, du = values_and_input_gradients(net, pts)
    h = 1e-6
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fd = (forward_batch(net, pts + e) - forward_batch(net, pts - e)) / (2 * h)
        scale = np.maximum(1.0, np.abs(u) + np.abs(du).sum(axis=1))
        assert np.all(np.abs(du[:, i] - fd) <= 1e-6 * scale)
