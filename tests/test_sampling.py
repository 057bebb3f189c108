import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ritzlab.cli as cli
from ritzlab import networks
from ritzlab.gadgets import (
    build_spline_combination,
    fit_spline_coefficients,
    prescribe_architecture,
)
from ritzlab.harness import StudyConfig, run_convergence_study
from ritzlab.networks import IDENTITY, RELU2, Architecture, Network
from ritzlab.problems import make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import energy_excess, population_loss_estimate, statistical_gap_estimate
from ritzlab.sampling import (
    SampleSet,
    h1_error,
    make_sample_set,
    mc_mean,
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
    pts, faces = sample_boundary(100_000, 2, seed=14)
    for axis in range(2):
        for side in range(2):
            frac = np.mean((faces[:, 0] == axis) & (faces[:, 1] == side))
            assert abs(frac - 0.25) <= 0.01


def test_boundary_points_on_faces():
    pts, faces = sample_boundary(5000, 3, seed=15)
    on_face = np.isin(pts, (0.0, 1.0))
    assert np.all(on_face.sum(axis=1) == 1)
    assert np.all(pts[np.arange(5000), faces[:, 0]] == faces[:, 1])


def test_boundary_d1_is_two_endpoints():
    pts, faces = sample_boundary(20_000, 1, seed=16)
    vals = pts[:, 0]
    assert set(np.unique(vals)) == {0.0, 1.0}
    assert abs(np.mean(vals) - 0.5) <= 0.02  # 5 sigma ~ 0.018


def test_sample_set_validation():
    s = make_sample_set(100, 50, 2, seed=17)
    assert s.n_domain == 100 and s.n_boundary == 50 and s.d == 2
    bad_pts = s.boundary_points.copy()
    bad_pts[0, s.boundary_faces[0, 0]] = 0.5
    with pytest.raises(ValueError):
        SampleSet(s.domain_points, bad_pts, s.boundary_faces)


@pytest.mark.parametrize("point,faces", [
    ((0.5, 0.0), [[5, 0]]),      # axis out of range
    ((0.5, 0.0), [[-1, 0]]),
    ((0.5, 0.0), [[1.0, 0.0]]),  # float tags
    ((0.5, 2.0), [[1, 2]]),      # side not in {0, 1}
    ((5.0, 1.0), [[1, 1]]),      # coordinate outside [0, 1]
    ((np.nan, 1.0), [[1, 1]]),
])
def test_sample_set_rejects_bad_boundary_tags_and_points(point, faces):
    with pytest.raises(ValueError):
        SampleSet(np.full((3, 2), 0.5), np.array([point]), np.array(faces))


def _spoil(name, edit):
    """Rows 0..3 of a checked set as SampleSet arguments, with one array edited."""
    s = make_sample_set(8, 8, 2, seed=18)
    args = {k: getattr(s, k)[:4].copy() for k in ("domain_points", "boundary_points",
                                                   "boundary_faces")}
    args[name] = edit(args[name])
    return args


def _set(a, index, value):
    a[index] = value
    return a


@pytest.mark.parametrize("name,edit,match", [
    ("domain_points", lambda a: a[:, :1], r"\(n, d\) arrays"),
    ("boundary_points", lambda a: a[0], r"\(n, d\) arrays"),
    ("boundary_faces", lambda a: a[:3], r"\(m, 2\)"),
    ("boundary_faces", lambda a: a.astype(float), r"\(m, 2\)"),
    ("boundary_faces", lambda a: _set(a, (0, 0), 2), "face tags"),
    ("domain_points", lambda a: _set(a, (0, 1), 1.0), "strictly interior"),
    ("boundary_points", lambda a: _set(a, 0, -0.5), r"\[0, 1\]\^d"),
    ("boundary_faces", lambda a: _set(a, (slice(None), 1), 1 - a[:, 1]), "tagged faces"),
])
def test_public_constructor_rejects_each_bad_geometry(name, edit, match):
    with pytest.raises(ValueError, match=match):
        SampleSet(**_spoil(name, edit))
    SampleSet(**_spoil(name, lambda a: a))  # the unedited rows are accepted


def test_sample_set_rejects_non_finite_domain_points():
    with pytest.raises(ValueError, match="interior"):
        SampleSet(np.array([[0.5, np.nan]]), np.array([[0.5, 0.0]]), np.array([[1, 0]]))


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


def test_mc_mean_constants_exact():
    x = sample_domain(100, 2, seed=18)
    est = mc_mean(np.ones(x.shape[0]), 1.0)
    assert est.value == 1.0
    assert est.std_error == 0.0
    pts, _ = sample_boundary(100, 2, seed=18)
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
    fields = [(0, "l2_err"), (0, "h1_semi_err"), (1, "excess"), (1, "h1_sq_of_diff")]
    if label == "zero":
        fields.remove((1, "excess"))  # exactly 0 with SE 0 on the zero net, as is the gap
    else:
        estimators.append(
            lambda s: statistical_gap_estimate(net, p, 64, 20, s, reference_n=50_000))
        fields.append((2, "mean_abs_gap"))
    reports = [[estimate(s) for estimate in estimators] for s in range(40)]
    for which, name in fields:
        values = np.array([getattr(r[which], name) for r in reports])
        ses = np.array([getattr(r[which], name + "_se") for r in reports])
        ratio = np.std(values, ddof=1) / np.median(ses)
        assert _SD_RATIO_BAND[0] <= ratio <= _SD_RATIO_BAND[1], (name, ratio)


# ------------------------------------------ streamed estimator passes


def _streamed_case(label):
    """(net, problem) of each streamed-estimator check."""
    if label == "spline d2":  # its hidden layers are declared as diagonal blocks
        p = make_cosine_problem(2)
        net = build_spline_combination(fit_spline_coefficients(p.u_star, 2, 2))
        assert any(block is not None for block in net._blocks)
        return net, p
    if label == "mixed pin":
        return _pin_net("mixed", 2), make_quadratic_problem(2)
    d = int(label[-1])
    problem = make_quadratic_problem(d) if d == 2 else make_cosine_problem(d)
    return random_relu2_net(d, (24, 16), seed=40 + d), problem


@pytest.mark.parametrize("n_quad", [2, 255, 256, 257, 1000, 3001])
@pytest.mark.parametrize("label", ["relu2 d1", "relu2 d2", "relu2 d3", "mixed pin", "spline d2"])
def test_streamed_estimators_bitwise_equal_whole_arrays_at_any_worker_count(
        monkeypatch, label, n_quad):
    net, p = _streamed_case(label)
    want = [float(v).hex() for v in whole_array_estimators(net, p, n_quad, 11)]
    for cores in (1, 2, 5):
        monkeypatch.setattr(networks, "_usable_cores", lambda: cores)
        err = h1_error(net, p, n_quad, 11)
        pop = population_loss_estimate(net, p, n_quad, 12)
        exc = energy_excess(net, p, n_quad, 12)
        got = [*err[:6], *pop, *exc[:4]]
        assert [float(v).hex() for v in got] == want, cores


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


def test_streamed_passes_run_under_the_callers_errstate(monkeypatch):
    # four 256-row blocks on four threads: the caller's share has no overflow
    monkeypatch.setattr(networks, "_usable_cores", lambda: 4)
    p = make_cosine_problem(1)
    net = _overflow_past_first_block(1000, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            rep = h1_error(net, p, 1000, 0)
    assert math.isnan(rep.h1_err)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        h1_error(net, p, 1000, 0)


def test_an_error_in_a_streamed_block_reaches_the_caller(monkeypatch):
    class BlockError(RuntimeError):
        pass

    def u_star(x):
        if x.shape[0] < networks._CHUNK_ROWS:  # the last of four blocks
            raise BlockError("short block")
        return base.u_star(x)

    monkeypatch.setattr(networks, "_usable_cores", lambda: 4)
    base = make_cosine_problem(2)
    threads = threading.active_count()
    with pytest.raises(BlockError):
        h1_error(random_relu2_net(2, (8,), seed=3), replace(base, u_star=u_star), 1000, 0)
    assert threading.active_count() == threads
