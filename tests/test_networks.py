import gc
import itertools
import signal
import sys
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ritzlab.networks as networks
from ritzlab.networks import (
    IDENTITY,
    RELU,
    RELU2,
    Architecture,
    DimensionMismatchError,
    Network,
    NetworkFormatError,
    forward_batch,
    load_network,
    save_network,
    values_and_input_gradients,
    weighted_parameter_gradient,
)

from ritzlab.gadgets import (
    SplineCombination,
    SplineIndex,
    build_gradient_norm_network,
    build_spline_combination,
    fit_spline_coefficients,
    full_index_range,
    prescribe_architecture,
)
from ritzlab.problems import make_cosine_problem
from ritzlab.ritz import empirical_loss, loss_and_parameter_gradient
from ritzlab.sampling import h1_error, make_sample_set, sample_domain
from ritzlab.training import init_network

from conftest import (
    batch_major_jacobian_gradients,
    batch_major_parameter_gradient,
    batch_major_reverse_gradients,
    forward,
    forward_with_input_gradient,
    parameter_sensitivities,
    points_away_from_kinks,
    random_relu2_net,
    rng_for,
    tape_values_and_input_gradients,
)


def single_relu2_neuron(a=1.0, b=0.0):
    arch = Architecture((1, 1, 1), (RELU2, IDENTITY))
    return Network(arch, [np.array([[a]]), np.array([[1.0]])], [np.array([b]), np.array([0.0])])


def reference_forward(net, x):
    """Independent straightforward re-implementation of the layered recursion."""
    f = list(map(float, np.atleast_1d(x)))
    for k in range(net.architecture.depth):
        w, b = net.weights[k], net.biases[k]
        spec = net.architecture.activations[k]
        tags = [spec] * w.shape[0] if isinstance(spec, str) else list(spec)
        nxt = []
        for q in range(w.shape[0]):
            z = b[q]
            for j in range(w.shape[1]):
                z += w[q, j] * f[j]
            if tags[q] == "relu":
                nxt.append(max(z, 0.0))
            elif tags[q] == "relu2":
                nxt.append(max(z, 0.0) ** 2)
            else:
                nxt.append(z)
        f = nxt
    return f[0]


# ---------------------------------------------------------------- forward


def test_forward_single_relu2_neuron():
    net = single_relu2_neuron()
    assert forward(net, [0.5]) == pytest.approx(0.25, abs=1e-15)
    assert forward(net, [-1.0]) == 0.0


def test_forward_identity_net():
    arch = Architecture((1, 1), (IDENTITY,))
    net = Network(arch, [np.eye(1)], [np.zeros(1)])
    assert forward(net, [0.3]) == pytest.approx(0.3, abs=1e-16)


def test_forward_matches_independent_reimplementation():
    rng = rng_for(7)
    net = random_relu2_net(3, (5, 4), seed=11)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=3)
        assert forward(net, x) == pytest.approx(reference_forward(net, x), abs=1e-14, rel=1e-14)


def test_forward_mixed_layer_matches_reimplementation():
    rng = rng_for(8)
    arch = Architecture((2, 4, 1), ((RELU, RELU2, IDENTITY, RELU2), IDENTITY))
    ws = [rng.standard_normal((4, 2)), rng.standard_normal((1, 4))]
    bs = [rng.standard_normal(4), rng.standard_normal(1)]
    net = Network(arch, ws, bs)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        assert forward(net, x) == pytest.approx(reference_forward(net, x), abs=1e-14, rel=1e-14)


def test_forward_dimension_mismatch():
    net = random_relu2_net(3, (4,), seed=0)
    with pytest.raises(DimensionMismatchError):
        forward(net, [0.1, 0.2])


def test_forward_batch_agrees_with_forward():
    # batched BLAS reductions may differ from single-point ones by an ulp
    net = random_relu2_net(2, (6, 3), seed=5)
    x = rng_for(1).uniform(-1, 1, size=(20, 2))
    vals = forward_batch(net, x)
    for i in range(20):
        assert vals[i] == pytest.approx(forward(net, x[i]), rel=1e-14)


def test_eval_result_value_identical_to_forward():
    net = random_relu2_net(2, (6, 3), seed=5)
    x = rng_for(2).uniform(-1, 1, size=(20, 2))
    for xi in x:
        assert forward_with_input_gradient(net, xi).value == forward(net, xi)


# ------------------------------------------------- input gradients


def test_input_gradient_square_gadget_hand_value():
    # sigma2(x) + sigma2(-x) = x^2, d/dx = 2x
    arch = Architecture((1, 2, 1), (RELU2, IDENTITY))
    net = Network(arch, [np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
                  [np.zeros(2), np.zeros(1)])
    res = forward_with_input_gradient(net, [1.5])
    assert res.value == pytest.approx(2.25, abs=1e-15)
    assert res.input_gradient[0] == pytest.approx(3.0, abs=1e-13)


def test_input_gradient_inactive_neuron():
    res = forward_with_input_gradient(single_relu2_neuron(), [-1.0])
    assert res.value == 0.0
    assert res.input_gradient[0] == 0.0


def test_input_gradient_matches_finite_differences():
    rng = rng_for(99)
    net = random_relu2_net(3, (6, 5, 4), seed=21)
    pts = points_away_from_kinks(net, rng, 100)
    h = 1e-5
    for x in pts:
        res = forward_with_input_gradient(net, x)
        assert res.value == forward(net, x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (forward(net, x + e) - forward(net, x - e)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(res.input_gradient[i] - fd) / scale < 1e-6


def test_value_equals_forward_exactly():
    net = random_relu2_net(2, (8, 8), seed=3)
    x = rng_for(4).uniform(-2, 2, size=(200, 2))
    vals = forward_batch(net, x)
    vg_vals, _ = values_and_input_gradients(net, x)
    assert np.array_equal(vals, vg_vals)


def test_positive_homogeneity_of_relu2_neuron():
    # scaling first-layer weights and bias by c > 0 scales output by c^2
    base = single_relu2_neuron(a=1.3, b=0.2)
    x = [0.7]
    for c in (0.5, 2.0, 7.0):
        scaled = Network(
            base.architecture,
            [c * base.weights[0], base.weights[1]],
            [c * base.biases[0], base.biases[1]],
        )
        assert forward(scaled, x) == pytest.approx(c**2 * forward(base, x), rel=1e-13)


# ------------------------------------------- parameter sensitivities


def test_parameter_sensitivities_hand_case():
    # u = sigma2(a*x + b), a=1, b=0, x=0.5: du/da = 2*0.5*0.5, du/db = 2*0.5
    # parameter order: [a, b, output weight, output bias]
    net = single_relu2_neuron()
    du, dgrad = parameter_sensitivities(net, [0.5])
    assert du[0] == pytest.approx(0.5, abs=1e-14)
    assert du[1] == pytest.approx(1.0, abs=1e-14)
    # output weight multiplies sigma2(0.5)=0.25; output bias has derivative 1
    assert du[2] == pytest.approx(0.25, abs=1e-14)
    assert du[3] == pytest.approx(1.0, abs=1e-14)
    assert dgrad.shape == (1, 4)


@pytest.mark.parametrize("seed,hidden", [(31, (5, 4)), (32, (7,)), (33, (4, 4, 3))])
def test_parameter_sensitivities_match_finite_differences(seed, hidden):
    rng = rng_for(seed)
    net = random_relu2_net(2, hidden, seed=seed)
    x = points_away_from_kinks(net, rng, 3)
    theta = net.flatten_parameters()
    h = 1e-5
    for xi in x:
        du, dgrad = parameter_sensitivities(net, xi)
        coords = rng.choice(theta.size, size=min(40, theta.size), replace=False)
        for c in coords:
            tp, tm = theta.copy(), theta.copy()
            tp[c] += h
            tm[c] -= h
            np_, nm = net.with_parameters(tp), net.with_parameters(tm)
            fd_val = (forward(np_, xi) - forward(nm, xi)) / (2 * h)
            assert abs(du[c] - fd_val) / max(1.0, abs(fd_val)) < 1e-6
            gp = forward_with_input_gradient(np_, xi).input_gradient
            gm = forward_with_input_gradient(nm, xi).input_gradient
            fd_grad = (gp - gm) / (2 * h)
            for i in range(2):
                assert abs(dgrad[i, c] - fd_grad[i]) / max(1.0, abs(fd_grad[i])) < 1e-5


def test_weighted_parameter_gradient_combines_seeds():
    net = random_relu2_net(2, (5, 3), seed=41)
    rng = rng_for(42)
    x = points_away_from_kinks(net, rng, 4)
    v = rng.standard_normal(4)
    m = rng.standard_normal((4, 2))
    combined = weighted_parameter_gradient(net, x, v, m)
    manual = np.zeros(net.n_parameters)
    for b in range(4):
        du, dgrad = parameter_sensitivities(net, x[b])
        manual += v[b] * du + m[b] @ dgrad
    assert np.allclose(combined, manual, rtol=1e-12, atol=1e-12)


def test_weighted_parameter_gradient_chunking_invariant(monkeypatch):
    net = random_relu2_net(2, (6, 4), seed=43)
    rng = rng_for(44)
    x = rng.uniform(-1, 1, size=(37, 2))
    v = rng.standard_normal(37)
    m = rng.standard_normal((37, 2))
    full = weighted_parameter_gradient(net, x, v, m)
    monkeypatch.setattr(networks, "_CHUNK_ROWS", 5)
    small = weighted_parameter_gradient(net, x, v, m)
    assert np.allclose(full, small, rtol=1e-13, atol=1e-13)


# ------------------------------- bitwise pin to the batch-major recursions


def _pin_net(kind, d):
    if kind == "relu2":
        return random_relu2_net(d, (48, 48), seed=70 + d, scale=0.3)
    rng = rng_for(80 + d)
    mixed = (RELU, RELU2) * 3 + (IDENTITY,)
    arch = Architecture((d, 7, 6, 1), (mixed, RELU2, IDENTITY))
    ws = [rng.standard_normal((7, d)), rng.standard_normal((6, 7)), rng.standard_normal((1, 6))]
    bs = [rng.standard_normal(7), rng.standard_normal(6), rng.standard_normal(1)]
    return Network(arch, ws, bs)


@pytest.mark.parametrize("kind", ["relu2", "mixed"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_unit_major_tape_bitwise_equals_batch_major(monkeypatch, kind, d):
    net = _pin_net(kind, d)
    rng = rng_for(90 + d)
    x = rng.uniform(0.0, 1.0, size=(300, d))
    v = rng.standard_normal(300)
    m = rng.standard_normal((300, d))
    jac_vals, jac_grads = batch_major_jacobian_gradients(net, x)
    tape_vals, tape_grads = tape_values_and_input_gradients(net, x)
    assert np.array_equal(tape_vals, jac_vals)
    assert np.array_equal(tape_grads, jac_grads)
    # grad u is read off the Jacobian tape at d = 1, else by the reverse sweep
    vals, grads = values_and_input_gradients(net, x)
    oracle = batch_major_jacobian_gradients if d == 1 else batch_major_reverse_gradients
    want_vals, want_grads = oracle(net, x)
    assert np.array_equal(vals, want_vals) and np.array_equal(vals, jac_vals)
    assert np.array_equal(grads, want_grads)
    assert np.max(np.abs(grads - tape_grads)) <= 1e-13 * np.max(np.abs(tape_grads))
    assert np.array_equal(weighted_parameter_gradient(net, x, v),
                          batch_major_parameter_gradient(net, x, v))
    du, dgrad = parameter_sensitivities(net, x[0])
    assert np.array_equal(du, batch_major_parameter_gradient(net, x[:1], np.ones(1)))
    for i in range(d):
        e = np.zeros((1, d))
        e[0, i] = 1.0
        assert np.array_equal(dgrad[i], batch_major_parameter_gradient(net, x[:1], np.zeros(1), e))
    monkeypatch.setattr(networks, "_CHUNK_ROWS", 7)
    assert np.array_equal(weighted_parameter_gradient(net, x, v, m),
                          batch_major_parameter_gradient(net, x, v, m))
    assert np.array_equal(values_and_input_gradients(net, x)[1], oracle(net, x)[1])


@pytest.mark.parametrize("dims,acts", [
    ((2, 9, 6, 1), (RELU2, (RELU, RELU2, IDENTITY) * 2, IDENTITY)),
    ((3, 8, 4), (RELU2, IDENTITY)),
])
def test_forward_batch_chunk_invariant(monkeypatch, dims, acts):
    rng = rng_for(95)
    ws = [rng.standard_normal((dims[k + 1], dims[k])) for k in range(len(dims) - 1)]
    bs = [rng.standard_normal(dims[k + 1]) for k in range(len(dims) - 1)]
    net = Network(Architecture(dims, acts), ws, bs)
    x = rng.uniform(-1, 1, size=(37, dims[0]))
    whole = forward_batch(net, x)
    monkeypatch.setattr(networks, "_CHUNK_ROWS", 7)
    chunked = forward_batch(net, x)
    assert chunked.shape == whole.shape == ((37,) if dims[-1] == 1 else (37, dims[-1]))
    assert np.array_equal(chunked, whole)


def _block_edge_nets():
    wide = init_network(prescribe_architecture(2, 4096, 0.0), 1.0, 96)
    # (2, 6, 6, 24, 4, 1) with a mixed first layer.  No layer maps 40 or more
    # units onto 2-5: OpenBLAS picks the kernel of such a product by its size,
    # so its rows round differently at 256 and at 1000 rows, blocked or not.
    gadget = build_gradient_norm_network(random_relu2_net(2, (3, 3), seed=97))
    assert not isinstance(gadget.architecture.activations[0], str)
    return {"wide": wide, "mixed gadget": gadget}


@pytest.mark.parametrize("label", ["wide", "mixed gadget"])
def test_blocked_passes_bitwise_equal_one_block(monkeypatch, label):
    # 1000 points: three full 256-row blocks and one partial block
    net = _block_edge_nets()[label]
    x = rng_for(98).uniform(0.0, 1.0, size=(1000, 2))
    blocked = (forward_batch(net, x), *values_and_input_gradients(net, x))
    monkeypatch.setattr(networks, "_CHUNK_ROWS", 4096)
    single = (forward_batch(net, x), *values_and_input_gradients(net, x))
    for got, want in zip(blocked, single):
        assert np.array_equal(got, want)


def test_threads_never_share_a_workspace():
    # four nets of one shape, so every thread asks for the same workspace key,
    # and a spline-combination net with block-diagonal layers
    nets = [random_relu2_net(2, (64, 64), seed=60 + i) for i in range(4)]
    nets.append(_random_combination(2, 1))
    x = rng_for(99).uniform(0.0, 1.0, size=(600, 2))
    want = [values_and_input_gradients(net, x) for net in nets]
    wrong = []

    def work(i):
        for _ in range(10):
            got = values_and_input_gradients(nets[i], x)
            if not all(np.array_equal(g, w) for g, w in zip(got, want[i])):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(nets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_no_product_takes_the_identity_jacobian(monkeypatch, d):
    # P_1 = W_1 G_0 is W_1 itself, so no pass multiplies by the identity stack
    # G_0.  The one product that reads it is the adjoint's W_1 gradient
    # q_1 G_0^T, whose rounding every W_1 gradient carries.
    net = random_relu2_net(d, (16, 8), seed=66 + d)
    p, samples = make_cosine_problem(d), make_sample_set(300, 8, d, 5)
    calls = []
    matmul = np.matmul

    def recording_matmul(*args, **kwargs):
        calls.append((*args, kwargs.get("out")))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    values_and_input_gradients(net, samples.domain_points)
    value_pass = len(calls)
    loss_and_parameter_gradient(net, p, samples)
    eye = networks._workspace(net.architecture.layer_dims, networks._CHUNK_ROWS, True).gs[0]
    reads_eye = [i for i, call in enumerate(calls)
                 if any(a is not None and np.shares_memory(a, eye) for a in call)]
    assert reads_eye and all(i >= value_pass for i in reads_eye)
    for i in reads_eye:
        _, eye_t, out = calls[i]
        assert np.shares_memory(eye_t, eye) and out.shape == net.weights[0].shape


@pytest.mark.parametrize("d", [1, 2])
def test_no_layer_product_has_inner_size_one(monkeypatch, d):
    # a product over one unit is one product per element, so neither the
    # 1-unit hidden layer nor the output layer multiplies by a GEMM of inner
    # size 1, forward or reverse
    arch = Architecture((d, 5, 1, 4, 1), (RELU2, RELU2, RELU2, IDENTITY))
    rng = rng_for(70 + d)
    net = Network(arch, [rng.standard_normal((n_out, n_in)) for n_in, n_out in
                         zip(arch.layer_dims, arch.layer_dims[1:])],
                  [rng.uniform(0.2, 0.5, n) for n in arch.layer_dims[1:]])
    p, samples = make_cosine_problem(d), make_sample_set(300, 8, d, 5)
    x = samples.domain_points
    inner = []
    matmul = np.matmul

    def recording_matmul(a, b, *args, **kwargs):
        inner.append(np.shape(a)[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    loss_and_parameter_gradient(net, p, samples)
    weighted_parameter_gradient(net, x, rng.standard_normal(len(x)),
                                rng.standard_normal(x.shape))
    values_and_input_gradients(net, x)
    assert inner and 1 not in inner


def _alarm(signum, frame):
    raise TimeoutError("points_away_from_kinks did not return")


def test_points_away_from_kinks_fails_when_no_point_clears_the_kinks():
    # both first-layer ReLU units are off on [0, 1], so the second layer's
    # pre-activation is its bias 1e-4 at every point and no draw clears 1e-3
    arch = Architecture((1, 2, 1, 1), (RELU, RELU2, IDENTITY))
    net = Network(arch, [np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1))],
                  [np.full(2, -5.0), np.full(1, 1e-4), np.zeros(1)])
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(30)
    try:
        with pytest.raises(pytest.fail.Exception, match="min_preact=0.001"):
            points_away_from_kinks(net, rng_for(0), 3, box=(0.0, 1.0), min_preact=1e-3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_training_step_and_checkpoint_share_one_workspace(monkeypatch):
    # the checkpoint's reverse sweep runs in the training step's workspace,
    # leaving its Jacobian stacks untouched, rather than in one of its own
    monkeypatch.setattr(networks._workspaces, "lru", {}, raising=False)
    net = init_network(prescribe_architecture(2, 4096, 0.0), 1.0, 1)
    p, samples = make_cosine_problem(2), make_sample_set(512, 64, 2, 7)
    loss_and_parameter_gradient(net, p, samples)
    empirical_loss(net, p, samples)
    assert list(networks._workspaces.lru) == [(net.architecture.layer_dims, 256, True)]


def _stack_buffers(ws):
    return [a for name in ("ps", "gs", "q", "mat") for a in getattr(ws, name) if a is not None]


@pytest.mark.parametrize("d", [2, 3])
def test_h1_error_multiplies_no_jacobian_stack(monkeypatch, d):
    # at d >= 2 grad u comes from the reverse sweep, so only a pass that
    # replays its tape with gradient weights (the fused loss gradient here)
    # reads or writes a Jacobian stack
    monkeypatch.setattr(networks, "_usable_cores", lambda: 1)  # every block on this thread
    net = random_relu2_net(d, (16, 8), seed=68 + d)
    p, samples = make_cosine_problem(d), make_sample_set(600, 8, d, 9)
    calls = []
    for name in ("matmul", "multiply"):
        def recording(*args, _ufunc=getattr(np, name), **kwargs):
            calls.append((*args, kwargs.get("out")))
            return _ufunc(*args, **kwargs)
        monkeypatch.setattr(np, name, recording)
    h1_error(net, p, 600, 10)
    estimator_calls = len(calls)
    loss_and_parameter_gradient(net, p, samples)
    stacks = _stack_buffers(networks._workspace(net.architecture.layer_dims, 256, True))
    reads_stack = [i for i, call in enumerate(calls)
                   if any(isinstance(a, np.ndarray) and np.shares_memory(a, s)
                          for a in call for s in stacks)]
    assert estimator_calls and reads_stack and min(reads_stack) >= estimator_calls


def test_passes_keep_no_reference_to_the_net():
    # the tape holds P_1 as a view of W_1 only while a pass runs
    theta = random_relu2_net(2, (8, 8), seed=67).flatten_parameters()
    net = random_relu2_net(2, (8, 8), seed=0).with_parameters(theta)
    held = weakref.ref(theta)
    p, samples = make_cosine_problem(2), make_sample_set(300, 8, 2, 6)
    values_and_input_gradients(net, samples.domain_points)
    loss_and_parameter_gradient(net, p, samples)
    del net, theta
    gc.collect()
    assert held() is None


def _traced_peak(fn):
    """(result, peak traced bytes above the start) of one call of fn."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_values_and_input_gradients_reuses_its_workspace():
    p = make_cosine_problem(2)
    net = build_spline_combination(fit_spline_coefficients(p.u_star, 2, 2))
    x = sample_domain(100_000, 2, 3)
    values_and_input_gradients(net, x)  # warm-up: allocates the workspace
    (vals, grads), peak = _traced_peak(lambda: values_and_input_gradients(net, x))
    assert peak <= vals.nbytes + grads.nbytes + 4 * 2**20


def test_training_step_allocates_no_block_sized_array():
    p = make_cosine_problem(2)
    net = init_network(prescribe_architecture(2, 4096, 0.0), 1.0, 0)
    assert net.architecture.layer_dims == (2, 128, 128, 128, 1)
    samples = make_sample_set(256, 256, 2, 4)
    loss_and_parameter_gradient(net, p, samples)  # warm-up
    (_, grad), peak = _traced_peak(lambda: loss_and_parameter_gradient(net, p, samples))
    # the fresh gradient is the one large allocation; a 256 x 128 block
    # alive next to it would push the peak past this bound
    assert peak < grad.nbytes + networks._CHUNK_ROWS * 128 * 8


@st.composite
def _layers(draw):
    """A random architecture, mixed layers included, and its per-layer arrays."""
    d = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 9), min_size=0, max_size=2))
    dims = (d, *hidden, 1)
    acts = []
    for n_units in hidden:
        acts.append(draw(st.one_of(
            st.sampled_from([RELU, RELU2, IDENTITY]),
            st.lists(st.sampled_from([RELU, RELU2, IDENTITY]), min_size=n_units,
                     max_size=n_units).map(tuple),
        )))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    ws = [rng.standard_normal((dims[k + 1], dims[k])) for k in range(len(dims) - 1)]
    bs = [rng.standard_normal(dims[k + 1]) for k in range(len(dims) - 1)]
    return Architecture(dims, (*acts, IDENTITY)), ws, bs, rng


@st.composite
def _nets_and_batches(draw):
    arch, ws, bs, rng = draw(_layers())
    net = Network(arch, ws, bs)
    n = draw(st.integers(1, 40))
    return net, rng.uniform(-1, 1, size=(n, arch.input_dim)), draw(st.integers(1, n))


def _assert_close_scaled(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))


@settings(max_examples=60)
@given(_nets_and_batches())
def test_chunked_paths_match_unchunked(case):
    net, x, chunk = case
    rng = rng_for(x.shape[0])
    v = rng.standard_normal(x.shape[0])
    m = rng.standard_normal(x.shape)
    # the default block (256 rows) holds the whole batch of <= 40 points
    full_vals, full_grads = values_and_input_gradients(net, x)
    full = [weighted_parameter_gradient(net, x, v, mm) for mm in (None, m)]
    with patch.object(networks, "_CHUNK_ROWS", chunk):
        vals, grads = values_and_input_gradients(net, x)
        chunked = [weighted_parameter_gradient(net, x, v, mm) for mm in (None, m)]
    _assert_close_scaled(vals, full_vals)
    _assert_close_scaled(grads, full_grads)
    for got, want in zip(chunked, full):
        _assert_close_scaled(got, want)


@st.composite
def _nets_near_overflow(draw):
    """A random net, or one whose layer 2 is declared as K diagonal copies of
    a block, with each layer's weights and biases scaled by up to 1e150."""
    arch, ws, bs, rng = draw(_layers())
    blocks = None
    n_copies = draw(st.integers(1, 3))
    if n_copies > 1:
        d, a, b = arch.input_dim, n_copies * draw(st.integers(1, 4)), draw(st.integers(1, 4))
        arch = Architecture((d, a, n_copies * b, 1),
                            (RELU2, draw(st.sampled_from([RELU, RELU2, IDENTITY])), IDENTITY))
        block = rng.standard_normal((b, a // n_copies))
        ws = [rng.standard_normal((a, d)), np.kron(np.eye(n_copies), block),
              rng.standard_normal((1, n_copies * b))]
        bs = [rng.standard_normal(n) for n in arch.layer_dims[1:]]
        blocks = {1: n_copies}
    scales = [10.0 ** draw(st.integers(0, 150)) for _ in ws]
    net = Network(arch, [w * c for w, c in zip(ws, scales)],
                  [v * c for v, c in zip(bs, scales)], _blocks=blocks)
    return net, rng


@settings(max_examples=200)
@given(_nets_near_overflow())
def test_unit_cube_certificate_is_sound(case):
    net, rng = case
    if not networks._finite_on_unit_cube(net):
        return
    d = net.architecture.input_dim
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    faces = rng.integers(0, 2 * d, size=64)
    boundary = rng.uniform(0.0, 1.0, size=(64, d))
    boundary[np.arange(64), faces // 2] = faces % 2
    # an overflow inside the pass would also raise, as a RuntimeWarning
    assert np.all(np.isfinite(forward_batch(net, np.vstack([corners, boundary]))))


def test_unit_cube_certificate_on_known_nets():
    p = make_cosine_problem(2)
    assert networks._finite_on_unit_cube(random_relu2_net(3, (5, 4), seed=58))
    assert networks._finite_on_unit_cube(
        build_spline_combination(fit_spline_coefficients(p.u_star, 2, 2)))
    # the overflowing net of the divergence test in test_ritz.py
    blown = single_relu2_neuron(1e200, -0.99e200)
    assert not networks._finite_on_unit_cube(blown)
    # every layer's bound is max(beta, beta^2): u = 1e152 at x = 1 is not certified
    assert not networks._finite_on_unit_cube(single_relu2_neuron(1e76))
    assert networks._finite_on_unit_cube(single_relu2_neuron(1e74))
    # layer 2 is two copies of the block [[0, 1]], and only the first copy sees
    # the large unit of layer 1: u = 1e200 * (1e100)^2 overflows
    arch = Architecture((1, 4, 2, 1), (IDENTITY, RELU2, IDENTITY))
    blocked = Network(arch, [np.zeros((4, 1)), np.kron(np.eye(2), [[0.0, 1.0]]),
                             np.array([[1e200, 0.0]])],
                      [np.array([0.0, 1e100, 0.0, 0.0]), np.zeros(2), np.zeros(1)],
                      _blocks={1: 2})
    with np.errstate(over="ignore"):
        assert np.isinf(forward_batch(blocked, np.zeros((1, 1)))[0])
    assert not networks._finite_on_unit_cube(blocked)


# ------------------------------------------------------ serialization


def test_network_roundtrip_bit_exact(tmp_path):
    net = random_relu2_net(3, (5, 4), seed=55)
    path = tmp_path / "net.txt"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.architecture == net.architecture
    assert np.array_equal(loaded.flatten_parameters(), net.flatten_parameters())


def test_mixed_activation_roundtrip(tmp_path):
    rng = rng_for(56)
    arch = Architecture((2, 3, 1), ((RELU, RELU2, IDENTITY), IDENTITY))
    net = Network(arch, [rng.standard_normal((3, 2)), rng.standard_normal((1, 3))],
                  [rng.standard_normal(3), rng.standard_normal(1)])
    path = tmp_path / "mixed.txt"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.architecture.activations == net.architecture.activations
    assert np.array_equal(loaded.flatten_parameters(), net.flatten_parameters())
    x = rng.uniform(-1, 1, size=(10, 2))
    assert np.array_equal(forward_batch(loaded, x), forward_batch(net, x))


def test_truncated_network_file_raises_format_error(tmp_path):
    path = tmp_path / "net.txt"
    save_network(random_relu2_net(2, (3,), seed=57), path)
    lines = path.read_text().splitlines()
    for keep in (1, 2, 3, 4, len(lines) - 1):
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(NetworkFormatError):
            load_network(path)
    # malformed parameter count, a non-numeric and a non-finite parameter
    i_par = next(k for k, ln in enumerate(lines) if ln.startswith("parameters "))
    for k, bad in ((i_par, "parameters x"), (i_par + 1, "x"), (i_par + 1, "nan")):
        path.write_text("\n".join(lines[:k] + [bad] + lines[k + 1:]) + "\n")
        with pytest.raises(NetworkFormatError):
            load_network(path)


# ------------------------------------------------------ construction rules


def test_network_immutable_and_validated():
    net = random_relu2_net(2, (3,), seed=60)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        Network(net.architecture, [np.full((3, 2), np.nan), net.weights[1]],
                [np.zeros(3), np.zeros(1)])


def test_architecture_rules():
    with pytest.raises(ValueError):
        Architecture((2, 3, 1), (RELU2, RELU2))  # output must be identity
    with pytest.raises(ValueError):
        Architecture((2, 0, 1), (RELU2, IDENTITY))
    with pytest.raises(DimensionMismatchError):
        Architecture((2, 3, 1), ((RELU, RELU2), IDENTITY))  # wrong per-unit length
    arch = Architecture((2, 3, 3, 1), (RELU2, RELU2, IDENTITY))
    assert arch.depth == 3
    assert arch.width == 3
    assert arch.n_parameters == (3 * 2 + 3) + (3 * 3 + 3) + (1 * 3 + 1)


@settings(max_examples=40)
@given(_layers())
def test_flat_parameters_round_trip_and_stay_private(case):
    arch, ws, bs, _ = case
    net = Network(arch, ws, bs)
    theta = net.flatten_parameters()
    back = net.with_parameters(net.flatten_parameters())
    with tempfile.TemporaryDirectory() as tmp:
        save_network(net, Path(tmp) / "net.txt")
        loaded = load_network(Path(tmp) / "net.txt")
    for other in (back, loaded):
        assert other.architecture == arch
        assert other.flatten_parameters().tobytes() == theta.tobytes()
    # writing into the caller's arrays leaves the net unchanged
    given = [a.copy() for a in (*ws, *bs)]
    net.flatten_parameters()[:] = 0.0
    for a in (*ws, *bs):
        a += 1.0
    assert net.flatten_parameters().tobytes() == theta.tobytes()
    assert all(np.array_equal(a, a0) for a, a0 in zip((*net.weights, *net.biases), given))
    for a in (*net.weights, *net.biases, *back.weights, *back.biases):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


@pytest.mark.parametrize("bad", [2.7, True, "3"])
def test_architecture_rejects_non_integer_dims(bad):
    with pytest.raises(ValueError, match="layer dim"):
        Architecture((1, bad, 1), (RELU2, IDENTITY))
    dims = Architecture((np.int64(1), np.int32(2), 1), (RELU2, IDENTITY)).layer_dims
    assert dims == (1, 2, 1) and all(type(n) is int for n in dims)


def test_architecture_checks_spec_count_before_specs():
    with pytest.raises(DimensionMismatchError):
        Architecture((1, 3, 1), (RELU2, IDENTITY, IDENTITY))


def test_parameter_order_is_layer_major_row_major_then_bias():
    w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    b1 = np.array([5.0, 6.0])
    w2 = np.array([[7.0, 8.0]])
    b2 = np.array([9.0])
    net = Network(Architecture((2, 2, 1), (RELU2, IDENTITY)), [w1, w2], [b1, b2])
    assert np.array_equal(net.flatten_parameters(),
                          np.array([1, 2, 3, 4, 5, 6, 7, 8, 9], dtype=float))
    back = net.with_parameters(net.flatten_parameters())
    assert np.array_equal(back.weights[0], w1)
    assert np.array_equal(back.biases[1], b2)


# --------------------------------------------- block-diagonal spline layers


def _random_combination(d, level):
    """A spline-combination net with one seeded random coefficient per term."""
    rng = rng_for(500 + 10 * d + level)
    idxs = itertools.product(full_index_range(level), repeat=d)
    return build_spline_combination(SplineCombination(
        level, d, {SplineIndex(level, i): float(rng.normal()) for i in idxs}))


def _max_rel_gap(a, b, scale):
    return float(np.max(np.abs(a - b))) / scale


@pytest.fixture(scope="module", params=[(2, 1), (2, 2), (3, 1), (3, 2)],
                ids=lambda dl: f"d{dl[0]}-level{dl[1]}")
def spline_pair(request):
    """(block net, the same theta as a plain net, value scale, gradient scale).

    The scales are the plain net's largest |u| and |grad u| on 1000 points, so
    a gap is relative to the function's size, not to a value near a zero.
    """
    d, _ = request.param
    net = _random_combination(*request.param)
    plain = Network(net.architecture, net.weights, net.biases)
    vals, grads = values_and_input_gradients(plain, sample_domain(1000, d, 60))
    return net, plain, float(np.max(np.abs(vals))), float(np.max(np.abs(grads)))


@pytest.mark.parametrize("n", [1, 255, 257, 1000])
def test_block_spline_net_agrees_with_plain_net(spline_pair, n):
    net, plain, v_scale, g_scale = spline_pair
    depth, d = net.architecture.depth, net.architecture.input_dim
    assert [b is not None for b in net._blocks] == [0 < k < depth - 1 for k in range(depth)]
    assert not any(b is not None for b in plain._blocks)
    x = sample_domain(n, d, 61)
    vals, grads = values_and_input_gradients(net, x)
    ref_vals, ref_grads = values_and_input_gradients(plain, x)
    assert _max_rel_gap(vals, ref_vals, v_scale) <= 1e-14
    assert _max_rel_gap(grads, ref_grads, g_scale) <= 1e-14
    assert _max_rel_gap(forward_batch(net, x), forward_batch(plain, x), v_scale) <= 1e-14
    rng = rng_for(62 + n)
    v, m = rng.standard_normal(n), rng.standard_normal((n, d))
    for gradient_weights in (None, m):
        ref = weighted_parameter_gradient(plain, x, v, gradient_weights)
        got = weighted_parameter_gradient(net, x, v, gradient_weights)
        assert _max_rel_gap(got, ref, float(np.max(np.abs(ref)))) <= 1e-14


def test_saved_and_rebuilt_spline_nets_are_plain(tmp_path):
    net = _random_combination(2, 2)
    save_network(net, tmp_path / "spline.txt")
    loaded = load_network(tmp_path / "spline.txt")
    rebuilt = net.with_parameters(net.flatten_parameters())
    plain = Network(net.architecture, net.weights, net.biases)
    x = sample_domain(257, 2, 63)
    ref_vals, ref_grads = values_and_input_gradients(plain, x)
    vals, grads = values_and_input_gradients(net, x)
    for other in (loaded, rebuilt):
        assert not any(b is not None for b in other._blocks)
        assert np.array_equal(other.flatten_parameters(), net.flatten_parameters())
        other_vals, other_grads = values_and_input_gradients(other, x)
        assert np.array_equal(other_vals, ref_vals) and np.array_equal(other_grads, ref_grads)
        assert _max_rel_gap(other_vals, vals, float(np.max(np.abs(vals)))) <= 1e-14
        assert _max_rel_gap(other_grads, grads, float(np.max(np.abs(grads)))) <= 1e-14


def test_false_block_declaration_raises():
    net = _random_combination(2, 1)  # layer 2 is 16 copies of one 4 x 8 block
    arch, ws, bs = net.architecture, [np.array(w) for w in net.weights], net.biases
    assert Network(arch, ws, bs, _blocks={1: 16})._blocks[1].shape == (4, 8)
    off_block = [w.copy() for w in ws]
    off_block[1][0, -1] = 1.0
    unequal = [w.copy() for w in ws]
    unequal[1][-1, -1] += 1.0
    for weights, blocks in ((off_block, {1: 16}), (unequal, {1: 16}), (ws, {1: 15}),
                            (ws, {0: 16})):
        with pytest.raises(ValueError, match="diagonal copies of a block"):
            Network(arch, weights, bs, _blocks=blocks)
    d1 = _random_combination(1, 3)
    assert d1.architecture.depth == 2 and d1._blocks == [None, None]


def test_block_layers_never_multiply_the_dense_matrices(monkeypatch):
    net = _random_combination(3, 2)
    assert net.architecture.layer_dims == (3, 2592, 1080, 864, 1)
    dense = {(1080, 2592), (2592, 1080), (864, 1080), (1080, 864)}
    shapes = []
    matmul = np.matmul

    def recording_matmul(*args, **kwargs):
        shapes.extend(np.shape(a)[-2:] for a in (*args, kwargs.get("out")) if a is not None)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    x = sample_domain(256, 3, 64)
    forward_batch(net, x)
    values_and_input_gradients(net, x)
    assert shapes and not dense & set(shapes)
