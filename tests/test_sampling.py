import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ritzlab.cli as cli
from ritzlab import networks, sampling
from ritzlab.gadgets import (
    build_spline_combination,
    fit_spline_coefficients,
    prescribe_architecture,
)
from ritzlab.harness import StudyConfig, run_convergence_study
from ritzlab.networks import IDENTITY, RELU2, Architecture, Network, values_and_input_gradients
from ritzlab.problems import make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import energy_excess, statistical_gap_estimate
from ritzlab.sampling import (
    SampleSet,
    _sqrt_with_se,
    h1_error,
    make_sample_set,
    mc_mean,
    rng_stream,
    sample_boundary,
    sample_domain,
)

from ritzlab.training import TrainConfig, init_network, train

from conftest import random_relu2_net, rng_for, sum_of_squares_net, whole_array_estimators
from test_networks import _pin_net


def zero_net(d):
    net = random_relu2_net(d, (3,), seed=0)
    return net.with_parameters(np.zeros(net.n_parameters))


def test_domain_mean_concentrates():
    x = sample_domain(100_000, 3, seed=11)
    # 5 sigma band: sigma = (1/sqrt(12)) / sqrt(n) ~ 9.1e-4
    assert np.all(np.abs(x.mean(axis=0) - 0.5) <= 0.005)


def test_domain_deterministic_and_interior():
    a = sample_domain(500, 2, seed=12)
    b = sample_domain(500, 2, seed=12)
    assert np.array_equal(a, b)
    assert np.all((a > 0.0) & (a < 1.0))
    one = sample_domain(1, 4, seed=13)
    assert one.shape == (1, 4)


def test_boundary_face_frequencies():
    pts = sample_boundary(100_000, 2, seed=14)
    for axis in range(2):
        for side in (0.0, 1.0):
            frac = np.mean(pts[:, axis] == side)  # the points on face (axis, side)
            assert abs(frac - 0.25) <= 0.01


def test_boundary_points_on_faces():
    pts = sample_boundary(5000, 3, seed=15)
    on_face = np.isin(pts, (0.0, 1.0))
    assert np.all(on_face.sum(axis=1) == 1)
    assert np.all(on_face | ((pts > 0.0) & (pts < 1.0)))


def test_boundary_d1_is_two_endpoints():
    pts = sample_boundary(20_000, 1, seed=16)
    vals = pts[:, 0]
    assert set(np.unique(vals)) == {0.0, 1.0}
    assert abs(np.mean(vals) - 0.5) <= 0.02  # 5 sigma ~ 0.018


def test_sample_set_validation():
    s = make_sample_set(100, 50, 2, seed=17)
    assert s.n_domain == 100 and s.n_boundary == 50 and s.d == 2
    bad_pts = s.boundary_points.copy()
    bad_pts[0, np.isin(bad_pts[0], (0.0, 1.0))] = 0.5  # off its face
    with pytest.raises(ValueError):
        SampleSet(s.domain_points, bad_pts)


@pytest.mark.parametrize("point", [
    (0.5, 0.5),     # on no face
    (0.0, 1.0),     # a corner: on two faces
    (1.0, 1.0),
    (0.5, 2.0),     # coordinate outside [0, 1]
    (5.0, 1.0),
    (np.nan, 1.0),
])
def test_sample_set_rejects_bad_boundary_points(point):
    with pytest.raises(ValueError):
        SampleSet(np.full((3, 2), 0.5), np.array([point]))


def _spoil(name, edit):
    """Rows 0..3 of a checked set as SampleSet arguments, with one array edited."""
    s = make_sample_set(8, 8, 2, seed=18)
    args = {k: getattr(s, k)[:4].copy() for k in ("domain_points", "boundary_points")}
    args[name] = edit(args[name])
    return args


def _set(a, index, value):
    a[index] = value
    return a


@pytest.mark.parametrize("name,edit,match", [
    ("domain_points", lambda a: a[:, :1], r"\(n, d\) arrays"),
    ("boundary_points", lambda a: a[0], r"\(n, d\) arrays"),
    ("domain_points", lambda a: _set(a, (0, 1), 1.0), "strictly interior"),
    ("boundary_points", lambda a: _set(a, 0, -0.5), r"\[0, 1\]\^d"),
    ("boundary_points", lambda a: _set(a, 0, 0.5), "exactly one coordinate"),
    ("boundary_points", lambda a: _set(a, 0, (0.0, 1.0)), "exactly one coordinate"),
])
def test_public_constructor_rejects_each_bad_geometry(name, edit, match):
    with pytest.raises(ValueError, match=match):
        SampleSet(**_spoil(name, edit))
    SampleSet(**_spoil(name, lambda a: a))  # the unedited rows are accepted


def test_sample_set_rejects_non_finite_domain_points():
    with pytest.raises(ValueError, match="interior"):
        SampleSet(np.array([[0.5, np.nan]]), np.array([[0.5, 0.0]]))


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_every_seeded_entry_rejects_a_negative_or_non_integer_seed(seed):
    p = make_cosine_problem(1)
    net = random_relu2_net(1, (3,), seed=0)
    samples = make_sample_set(16, 16, 1, seed=0)
    tcfg = TrainConfig(iterations=1, batch_domain=16, batch_boundary=16)
    entries = [
        lambda: init_network(net.architecture, 1.0, seed),
        lambda: make_sample_set(16, 16, 1, seed),
        lambda: h1_error(net, p, 100, seed),
        lambda: energy_excess(net, p, 100, seed),
        lambda: train(net, p, samples, replace(tcfg, seed=seed)),
        lambda: run_convergence_study(StudyConfig(n_values=(16,), repetitions=1, n_quad=100,
                                                  train=tcfg, seed=seed)),
    ]
    if seed == -1:  # argparse's type=int refuses 1.5 and True itself
        entries.append(lambda: cli.main(["construct-verify", "--seed", "-1"]))
    for entry in entries:
        with pytest.raises(ValueError, match="seed"):
            entry()


def test_rng_stream_keys_wrap_modulo_2_64_without_colliding():
    # numpy casts a list key through float64 past 2**63 - 1, with a RuntimeWarning:
    # each of these pairs then shared one stream, (0, -1) and (0, -2) seed 0's domain stream
    pairs = [((0, -1), (0, -2)), ((0, -1), (0, 0)), ((2**63 + 5, 0), (2**63 + 6, 0)),
             ((2**64 - 1, 0), (2**64 - 2, 0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in pairs:
            assert rng_stream(*a).random() != rng_stream(*b).random(), (a, b)
        assert rng_stream(0, -1).random() == rng_stream(0, 2**64 - 1).random()
        assert rng_stream(2**64 + 3, 1).random() == rng_stream(3, 1).random()
        for seed, tag in [(0, 0), (5, 3), (2**63 - 1, 7), (123, 2**40)]:
            listed = np.random.Generator(np.random.Philox(key=[seed, tag]))
            assert rng_stream(seed, tag).random(4).tolist() == listed.random(4).tolist()


def test_mc_mean_constants_exact():
    x = sample_domain(100, 2, seed=18)
    est = mc_mean(np.ones(x.shape[0]), 1.0)
    assert est.value == 1.0
    assert est.std_error == 0.0
    pts = sample_boundary(100, 2, seed=18)
    est_b = mc_mean(np.ones(pts.shape[0]), 4.0)
    assert est_b.value == 4.0


def test_mc_mean_linear_integrand():
    x = sample_domain(100_000, 2, seed=19)
    est = mc_mean(x[:, 0], 1.0)
    assert abs(est.value - 0.5) <= 5 * est.std_error


def test_mc_mean_scales_the_spread_before_dividing():
    # (volume * std) / sqrt(n), left to right: the boundary SE of the Ritz
    # energy has always been computed in this order, and the other order
    # moves the last bit for some draws
    rng = rng_for(21)
    other_order = 0
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(2, 50)))
        std = float(np.std(v, ddof=1))
        se = mc_mean(v, 6.0).std_error
        assert se == 6.0 * std / math.sqrt(v.size)
        other_order += se != 6.0 * (std / math.sqrt(v.size))
    assert other_order > 0


def test_mc_mean_needs_two_points():
    with pytest.raises(ValueError):
        mc_mean(np.ones(1), 1.0)


def test_h1_error_needs_two_quadrature_points():
    with pytest.raises(ValueError):
        h1_error(zero_net(2), make_cosine_problem(2), 1, seed=20)


def test_h1_error_zero_net_cosine():
    p = make_cosine_problem(2)
    rep = h1_error(zero_net(2), p, 100_000, seed=21)
    target = np.sqrt(p.analytic_h1_norm_sq)
    assert abs(rep.h1_err - target) <= 4 * rep.h1_err_se
    assert rep.l2_err == pytest.approx(1.0, abs=4 * rep.l2_err_se)


def test_h1_error_exact_representation_is_zero():
    p = make_quadratic_problem(3)
    rep = h1_error(sum_of_squares_net(3), p, 20_000, seed=22)
    assert rep.l2_err <= 1e-10
    assert rep.h1_semi_err <= 1e-10
    assert rep.h1_err <= 1e-10


def test_h1_error_reported_se_scales_with_n():
    p = make_cosine_problem(1)
    net = random_relu2_net(1, (4,), seed=23)
    r1 = h1_error(net, p, 20_000, seed=24)
    r2 = h1_error(net, p, 40_000, seed=24)
    assert r2.h1_err_se == pytest.approx(r1.h1_err_se / np.sqrt(2), rel=0.1)


def test_h1_error_repeated_run_variance_scales():
    # realized estimator spread shrinks ~sqrt(2) when n_quad doubles
    p = make_cosine_problem(1)
    net = random_relu2_net(1, (4,), seed=25)
    small = np.array([h1_error(net, p, 500, seed=1000 + k).h1_err for k in range(200)])
    large = np.array([h1_error(net, p, 1000, seed=3000 + k).h1_err for k in range(200)])
    ratio = np.var(small) / np.var(large)
    assert 1.2 <= ratio <= 3.2


# 99.9% band of sqrt(chi2_39 / 39): the spread of a 40-seed standard deviation
# around the true one.
_SD_RATIO_BAND = (0.646, 1.384)


def _estimate(rep, name):
    """The named field; "sandwich" is excess - h1_sq_of_diff / 2, with SE sandwich_se."""
    return rep.excess - 0.5 * rep.h1_sq_of_diff if name == "sandwich" else getattr(rep, name)


@pytest.mark.parametrize("label", ["zero", "random", "trained"])
def test_reported_standard_errors_match_realized_spread(label):
    p = make_cosine_problem(1)
    net = random_relu2_net(1, (12, 12), seed=5)
    if label == "zero":
        net = net.with_parameters(np.zeros(net.n_parameters))
    elif label == "trained":
        net0 = init_network(prescribe_architecture(1, 256, 0.0), 1.0, 0)
        net, _ = train(net0, p, make_sample_set(256, 256, 1, 1),
                       TrainConfig(iterations=600, eval_every=100))
    estimators = [lambda s: h1_error(net, p, 4000, s), lambda s: energy_excess(net, p, 4000, s)]
    # h1_err_se is left out: hypot(l2 SE, seminorm SE) ignores their covariance
    fields = [(0, "l2_err"), (0, "h1_semi_err"), (1, "excess"), (1, "h1_sq_of_diff"),
              (1, "sandwich")]
    if label == "zero":
        fields.remove((1, "excess"))  # exactly 0 with SE 0 on the zero net, as is the gap
    else:
        estimators.append(
            lambda s: statistical_gap_estimate(net, p, 64, 4000, s))
        fields.append((2, "mean_abs_gap"))
    reports = [[estimate(s) for estimate in estimators] for s in range(40)]
    for which, name in fields:
        values = np.array([_estimate(r[which], name) for r in reports])
        ses = np.array([getattr(r[which], name + "_se") for r in reports])
        ratio = np.std(values, ddof=1) / np.median(ses)
        assert _SD_RATIO_BAND[0] <= ratio <= _SD_RATIO_BAND[1], (name, ratio)


# ------------------------------------------ streamed estimator passes


def _streamed_case(label):
    """(net, problem) of each streamed-estimator check."""
    if label.startswith("spline"):  # the decomposition's level-2 spline nets
        d = int(label[-1])
        p = make_cosine_problem(d)
        net = build_spline_combination(fit_spline_coefficients(p.u_star, 2, d))
        assert net.architecture.layer_dims == {2: (2, 18, 24, 1),
                                               3: (3, 27, 150, 24, 1)}[d]
        return net, p
    if label == "mixed pin":
        return _pin_net("mixed", 2), make_quadratic_problem(2)
    d = int(label[-1])
    problem = make_quadratic_problem(d) if d == 2 else make_cosine_problem(d)
    return random_relu2_net(d, (24, 16), seed=40 + d), problem


@pytest.mark.parametrize("n_quad", [2, 255, 256, 257, 1000, 3001, 4097])
@pytest.mark.parametrize("label", ["relu2 d1", "relu2 d2", "relu2 d3", "mixed pin", "spline d2",
                                   "spline d3"])
def test_streamed_estimators_bitwise_equal_whole_arrays(label, n_quad):
    net, p = _streamed_case(label)
    want = [float(v).hex() for v in whole_array_estimators(net, p, n_quad, 11)]
    err = h1_error(net, p, n_quad, 11)
    exc = energy_excess(net, p, n_quad, 12)
    got = [*err[:6], *exc[:5]]
    assert [float(v).hex() for v in got] == want


def _overflow_past_first_block(n_quad, seed):
    """A d = 1 net that is finite on the first block's points of
    sample_domain(n_quad, 1, seed) and overflows (then gives inf - inf) at
    some later point: two ReLU^2 units s (x - t), output their difference."""
    x = sample_domain(n_quad, 1, seed)[:, 0]
    t = x[:networks._CHUNK_ROWS].max()
    assert x.max() > t
    s = 1e200
    arch = Architecture((1, 2, 1), (RELU2, IDENTITY))
    return Network(arch, [np.full((2, 1), s), np.array([[1.0, -1.0]])],
                   [np.full(2, -s * t), np.zeros(1)])


def test_streamed_passes_run_under_the_callers_errstate():
    # four 256-row blocks: the first has no overflow, a later one has
    p = make_cosine_problem(1)
    net = _overflow_past_first_block(1000, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            rep = h1_error(net, p, 1000, 0)
    assert math.isnan(rep.h1_err)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        h1_error(net, p, 1000, 0)


def test_an_error_in_a_streamed_block_reaches_the_caller():
    class BlockError(RuntimeError):
        pass

    spans = []

    def u_star(x):
        spans.append(x.shape[0])
        if len(spans) == 2:  # the second of three spans
            raise BlockError("second span")
        return base.u_star(x)

    base = make_cosine_problem(2)
    threads = threading.active_count()
    with pytest.raises(BlockError):
        h1_error(random_relu2_net(2, (8,), seed=3), replace(base, u_star=u_star), 9000, 0)
    assert spans == [networks._SPAN_ROWS] * 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("d", [2, 3])
def test_affine_net_gradient_is_its_weight_row(d):
    # with no hidden layer the reverse sweep starts and ends at W_1 itself
    rng = rng_for(60 + d)
    w, b = rng.normal(size=(1, d)), rng.normal(size=1)
    net = Network(Architecture((d, 1), (IDENTITY,)), [w], [b])
    x = sample_domain(4097, d, 5)
    _, grads = values_and_input_gradients(net, x)
    assert grads.shape == x.shape
    assert np.array_equal(grads, np.repeat(w, len(x), axis=0))
    p = make_cosine_problem(d)
    rep = h1_error(net, p, 4097, 5)
    semi = _sqrt_with_se(*mc_mean(np.sum((w - p.grad_u_star(x)) ** 2, axis=1)))
    assert [rep.h1_semi_err, rep.h1_semi_err_se] == list(semi)


def test_streamed_passes_start_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a streamed pass started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    p = make_cosine_problem(2)
    rep = h1_error(random_relu2_net(2, (8,), seed=4), p, 1000, 0)
    assert math.isfinite(rep.h1_err)
