import numpy as np
import pytest

from ritzlab.networks import (
    IDENTITY,
    RELU,
    RELU2,
    Architecture,
    DimensionMismatchError,
    Network,
    NetworkFormatError,
    forward,
    forward_batch,
    forward_with_input_gradient,
    load_network,
    parameter_sensitivities,
    save_network,
    values_and_input_gradients,
    weighted_parameter_gradient,
)

from conftest import points_away_from_kinks, random_relu2_net, rng_for


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


def test_weighted_parameter_gradient_chunking_invariant():
    net = random_relu2_net(2, (6, 4), seed=43)
    rng = rng_for(44)
    x = rng.uniform(-1, 1, size=(37, 2))
    v = rng.standard_normal(37)
    m = rng.standard_normal((37, 2))
    full = weighted_parameter_gradient(net, x, v, m, chunk_size=1000)
    small = weighted_parameter_gradient(net, x, v, m, chunk_size=5)
    assert np.allclose(full, small, rtol=1e-13, atol=1e-13)


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
