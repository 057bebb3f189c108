import math
from dataclasses import replace

import numpy as np
import pytest

from ritzlab.gadgets import prescribe_architecture
from ritzlab.harness import DecompositionConfig, run_error_decomposition
from ritzlab.networks import Architecture, IDENTITY, RELU2
from ritzlab.problems import make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import derived_seed, loss_and_parameter_gradient
from ritzlab.sampling import SampleSet, make_sample_set, rng_stream
from ritzlab.training import (
    _TAG_BATCH,
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    init_network,
    train,
)

from conftest import forward


def small_setup(seed=1, n=128, d=1):
    p = make_cosine_problem(d)
    samples = make_sample_set(n, n, d, seed=seed)
    arch = Architecture((d, 8, 1), (RELU2, IDENTITY))
    net = init_network(arch, 1.0, seed)
    return p, samples, net


# ------------------------------------------------------------- init


TINY_ARCH = Architecture((1, 4, 1), (RELU2, IDENTITY))


@pytest.mark.parametrize("entry,args,name", [
    (make_sample_set, (2.5, 4, 1, 0), "n_domain"),
    (make_sample_set, (4, True, 1, 0), "n_boundary"),
    (make_sample_set, (4, 4, 0, 0), "d"),
    (prescribe_architecture, (1, 256, math.nan), "nu"),
    (prescribe_architecture, (1, 256, math.inf), "nu"),
    (prescribe_architecture, (1, 256, -1.0), "nu"),
    (prescribe_architecture, (1.5, 256, 0.0), "d"),
    (prescribe_architecture, (1, 2.5, 0.0), "n"),
    (init_network, (TINY_ARCH, math.nan, 0), "init_scale"),
    (init_network, (TINY_ARCH, math.inf, 0), "init_scale"),
    (init_network, (TINY_ARCH, -1.0, 0), "init_scale"),
])
def test_public_entries_name_their_bad_argument(entry, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        entry(*args)


def test_init_deterministic():
    arch = Architecture((2, 16, 1), (RELU2, IDENTITY))
    a = init_network(arch, 1.0, seed=7)
    b = init_network(arch, 1.0, seed=7)
    assert np.array_equal(a.flatten_parameters(), b.flatten_parameters())


def test_init_scale_zero_gives_zero_net():
    arch = Architecture((2, 8, 1), (RELU2, IDENTITY))
    net = init_network(arch, 0.0, seed=8)
    assert np.all(net.flatten_parameters() == 0.0)
    assert forward(net, [0.3, 0.4]) == 0.0


def test_init_uniform_spread():
    arch = Architecture((512, 512, 1), (RELU2, IDENTITY))
    net = init_network(arch, 1.0, seed=9)
    w = net.weights[0]
    s = math.sqrt(6.0 / (512 + 512))
    assert np.max(np.abs(w)) <= s
    # uniform[-s, s] has std s/sqrt(3); 512^2 draws pin it within 5%
    assert abs(np.std(w) * math.sqrt(3.0) - s) / s < 0.05
    assert np.all(net.biases[0] == 0.0)


# ------------------------------------------------------------- adam


def test_adam_matches_hand_computed_steps():
    # scalar quadratic loss L = theta^2 / 2, gradient = theta, lr = 0.1
    adam = AdamState(1, betas=(0.9, 0.999), eps=1e-8)
    theta = np.array([1.0])
    theta = adam.step(theta, np.array([1.0]), 0.1)
    # m=0.1, v=0.001, m_hat=1, v_hat=1 -> theta = 1 - 0.1/(1 + 1e-8)
    assert theta[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), rel=1e-12)
    g2 = theta[0]
    theta = adam.step(theta, np.array([g2]), 0.1)
    m = 0.9 * 0.1 + 0.1 * g2
    v = 0.999 * 0.001 + 0.001 * g2**2
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    want = (1.0 - 0.1 / (1.0 + 1e-8)) - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert theta[0] == pytest.approx(want, rel=1e-12)


def test_adam_updates_moments_in_place_bitwise():
    rng = np.random.default_rng(5)
    n = 257
    adam = AdamState(n, betas=(0.9, 0.999), eps=1e-8)
    m_buf, v_buf = adam.m, adam.v
    theta = ref_theta = rng.standard_normal(n)
    m = v = np.zeros(n)
    for t in range(1, 31):
        grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 3, n)
        before = theta.copy()
        new = adam.step(theta, grad, 1e-3)
        assert np.array_equal(theta, before) and new is not theta
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad**2
        m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
        ref_theta = ref_theta - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        theta = new
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
    assert adam.m is m_buf and adam.v is v_buf


# ------------------------------------------------------------ train


def test_zero_iterations_returns_initial_net():
    p, samples, net = small_setup()
    out, hist = train(net, p, samples, TrainConfig(iterations=0, seed=2,
                                                   batch_domain=64, batch_boundary=64))
    assert np.array_equal(out.flatten_parameters(), net.flatten_parameters())
    assert hist.best_iteration == 0


def test_zero_learning_rate_keeps_parameters():
    p, samples, net = small_setup()
    cfg = TrainConfig(iterations=20, learning_rate=0.0, batch_domain=64,
                      batch_boundary=64, eval_every=10, seed=3)
    out, _ = train(net, p, samples, cfg)
    assert np.array_equal(out.flatten_parameters(), net.flatten_parameters())


def test_single_sgd_step_is_plain_gradient_step():
    p, samples, net = small_setup(n=64)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.05, iterations=1,
                      batch_domain=64, batch_boundary=64, eval_every=1, seed=4)
    out, _ = train(net, p, samples, cfg)
    # full batch (all 64 points), so the step uses the full-set gradient
    _, grad = loss_and_parameter_gradient(net, p, samples)
    want = net.flatten_parameters() - 0.05 * grad
    got = out.flatten_parameters()
    if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        # best-iterate selection may return the initial point if the step
        # increased the full-set loss; then the trained net equals the start
        assert np.array_equal(got, net.flatten_parameters())
    h = 1e-5
    theta = net.flatten_parameters()
    for c in (0, theta.size // 2, theta.size - 1):
        tp, tm = theta.copy(), theta.copy()
        tp[c] += h
        tm[c] -= h
        from ritzlab.ritz import empirical_loss

        fd = (
            empirical_loss(net.with_parameters(tp), p, samples).total
            - empirical_loss(net.with_parameters(tm), p, samples).total
        ) / (2 * h)
        assert grad[c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_training_deterministic():
    p, samples, net = small_setup(n=128)
    cfg = TrainConfig(iterations=60, batch_domain=32, batch_boundary=32,
                      eval_every=20, seed=5)
    a, ha = train(net, p, samples, cfg)
    b, hb = train(net, p, samples, cfg)
    assert np.array_equal(a.flatten_parameters(), b.flatten_parameters())
    assert [c.loss for c in ha.checkpoints] == [c.loss for c in hb.checkpoints]


def test_training_reduces_full_set_loss():
    p = make_cosine_problem(1)
    samples = make_sample_set(1024, 1024, 1, seed=6)
    arch = prescribe_architecture(1, 1024, 0.0)
    net = init_network(arch, 1.0, seed=6)
    cfg = TrainConfig(iterations=600, seed=6, eval_every=100)
    out, hist = train(net, p, samples, cfg)
    assert hist.best_loss < hist.checkpoints[0].loss
    assert hist.best_iteration == min(
        (c.iteration for c in hist.checkpoints if c.loss == hist.best_loss)
    )


def test_train_batches_equal_checked_sample_sets_on_the_same_rows(monkeypatch):
    p, samples, net = small_setup(n=64, d=2)
    cfg = TrainConfig(iterations=5, batch_domain=32, batch_boundary=16, seed=7)
    batches = []

    def recording(net, p, batch):
        batches.append(batch)
        return loss_and_parameter_gradient(net, p, batch)

    monkeypatch.setattr("ritzlab.training.loss_and_parameter_gradient", recording)
    train(net, p, samples, cfg)
    rng = rng_stream(cfg.seed, _TAG_BATCH)  # the stream train draws its rows from
    assert len(batches) == cfg.iterations
    for batch in batches:
        idx_d = rng.choice(samples.n_domain, size=cfg.batch_domain, replace=False)
        idx_b = rng.choice(samples.n_boundary, size=cfg.batch_boundary, replace=False)
        checked = SampleSet(samples.domain_points[idx_d], samples.boundary_points[idx_b])
        for name in ("domain_points", "boundary_points"):
            got, want = getattr(batch, name), getattr(checked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_batch_larger_than_fixed_set_rejected():
    p, samples, net = small_setup(n=64)
    with pytest.raises(ValueError, match="^batch_domain 65 exceeds n_domain 64$"):
        train(net, p, samples, TrainConfig(batch_domain=65, batch_boundary=64))
    with pytest.raises(ValueError, match="^batch_boundary 300 exceeds n_boundary 64$"):
        train(net, p, samples, TrainConfig(batch_domain=64, batch_boundary=300))


def test_config_rejects_zero_eval_every():
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(eval_every=0)


@pytest.mark.parametrize("field", ["batch_domain", "batch_boundary"])
def test_config_rejects_empty_batches(field):
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(**{field: 0})


@pytest.mark.parametrize("key,value", [
    ("iterations", 2.5),
    ("batch_domain", True),
    ("batch_boundary", 16.0),
    ("eval_every", 2.0),
    ("seed", None),
])
def test_config_rejects_non_int_counts(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


def test_config_rejects_negative_iterations():
    with pytest.raises(ValueError, match="iterations"):
        TrainConfig(iterations=-3)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_config_rejects_non_finite_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("key,value", [
    ("adam_betas", (1.0, 0.999)),
    ("adam_betas", (0.9,)),
    ("adam_betas", (0.9, math.nan)),
    ("adam_betas", (-0.1, 0.999)),
    ("adam_eps", 0.0),
    ("adam_eps", math.inf),
    ("adam_eps", math.nan),
    ("init_scale", math.nan),
    ("init_scale", math.inf),
    ("init_scale", -1.0),
])
def test_config_rejects_bad_adam_and_init_settings(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


def test_non_finite_update_aborts_at_that_iteration():
    # a finite gradient (entries up to ~5e3) times lr = 1e308 overflows
    # theta on the last step, which a checkpoint would have let pass
    p, samples, net = small_setup(n=64)
    net = init_network(net.architecture, 10.0, seed=1)
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e308, iterations=1,
                      batch_domain=64, batch_boundary=64, seed=8)
    with pytest.raises(TrainingDivergedError, match="after iteration 1"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(net, p, samples, cfg)


def test_divergence_aborts_with_diagnostic():
    p, samples, net = small_setup(n=64)
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e12, iterations=200,
                      batch_domain=64, batch_boundary=64, eval_every=200, seed=8)
    with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore", invalid="ignore"):
        train(net, p, samples, cfg)
    assert "iteration" in str(err.value)


@pytest.mark.parametrize("lr, init_scale, cause, layer, last", [
    (1e12, 1.0, "non-finite loss/gradient at iteration 12",
     "no layer has non-finite values on the minibatch", 8),
    (1e150, 1.0, "non-finite loss/gradient at iteration 2",
     "first non-finite values on the minibatch: layer 2", 0),
    (1e200, 1.0, "non-finite loss/gradient at iteration 2",
     "first non-finite values on the minibatch: layer 1", 0),
    (1e308, 10.0, "non-finite parameters after iteration 1",
     "first non-finite parameters: layer 1", 0),
])
def test_divergence_names_the_last_checkpoint(lr, init_scale, cause, layer, last):
    # the message names the first non-finite layer and ends with the last
    # checkpoint's iteration and full-set loss, which a run stopped at that
    # iteration reports as its final loss
    p, samples, net = small_setup(n=64)
    net = init_network(net.architecture, init_scale, seed=1)
    cfg = TrainConfig(optimizer="sgd", learning_rate=lr, iterations=200, batch_domain=64,
                      batch_boundary=64, eval_every=4, seed=8)
    with np.errstate(over="ignore", invalid="ignore"):
        _, hist = train(net, p, samples, replace(cfg, iterations=last))
        with pytest.raises(TrainingDivergedError) as err:
            train(net, p, samples, cfg)
    loss = hist.checkpoints[-1].loss
    assert hist.checkpoints[-1].iteration == last and math.isfinite(loss)
    assert str(err.value).startswith(cause + ": ")
    assert f", {layer}; " in str(err.value)
    assert str(err.value).endswith(f"; last checkpoint: iteration {last}, full-set loss {loss!r}")


def test_adam_aborts_when_the_squared_gradient_overflows():
    # step 2's gradient is finite (max |g| ~ 1e187) but its squares overflow
    # Adam's second moment: every later update would be 0 and train would
    # return the step-0 net; no overflow warning escapes the check
    p, samples = make_cosine_problem(2), make_sample_set(32, 32, 2, 0)
    net = init_network(prescribe_architecture(2, 64, 0.0), 1.0, 0)
    assert net.architecture.layer_dims == (2, 8, 8, 8, 1)
    cfg = TrainConfig(optimizer="adam", learning_rate=1e6, iterations=60, batch_domain=32,
                      batch_boundary=32, eval_every=20)
    loss = train(net, p, samples, replace(cfg, iterations=0))[1].checkpoints[-1].loss
    with pytest.raises(TrainingDivergedError) as err:
        train(net, p, samples, cfg)
    assert str(err.value).startswith("non-finite loss/gradient at iteration 2: ")
    assert str(err.value).endswith(f"; last checkpoint: iteration 0, full-set loss {loss!r}")


def test_history_summary_has_no_wall_time():
    p, samples, net = small_setup(n=64)
    _, hist = train(net, p, samples, TrainConfig(iterations=10, batch_domain=32,
                                                 batch_boundary=32, eval_every=5, seed=9))
    assert not hasattr(hist, "wall_seconds")
    assert "wall_seconds" not in hist.summary()


# ------------------------------------------------- optimization error


def _quick_decomposition(restarts, seed):
    return DecompositionConfig(
        problem="quadratic", d=1, n=64, spline_level=2, restarts=restarts,
        n_quad=2000, seed=seed,
        train=TrainConfig(iterations=30, batch_domain=32, batch_boundary=32, eval_every=10))


def test_opt_error_reproduced_run_is_zero():
    # retraining from the cell's seed on the cell's samples reproduces its
    # best loss bitwise, so a lone restart leaves e_opt at exactly zero
    cfg = _quick_decomposition(restarts=1, seed=11)
    report = run_error_decomposition(cfg)
    assert report["e_opt_proxy"] == 0.0

    p = make_quadratic_problem(1)
    cell_seed = derived_seed(cfg.seed, 0)
    samples = make_sample_set(64, 64, 1, derived_seed(cell_seed, 1))
    net0 = init_network(prescribe_architecture(1, 64, cfg.nu), cfg.train.init_scale, cell_seed)
    _, hist = train(net0, p, samples, replace(cfg.train, seed=cell_seed))
    assert hist.best_loss == report["train_summary"]["best_loss"]


def test_opt_error_nonnegative():
    report = run_error_decomposition(_quick_decomposition(restarts=3, seed=13))
    assert report["e_opt_proxy"] >= 0.0
