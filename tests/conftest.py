import numpy as np
import pytest
from hypothesis import settings

from ritzlab.harness import _random_relu2_net
from ritzlab.networks import IDENTITY, RELU2, Architecture, Network


# Every property test draws a fixed example sequence and has no deadline, so
# Tier-1 runs are deterministic; tests set only max_examples themselves.
settings.register_profile("ritzlab", derandomize=True, deadline=None)
settings.load_profile("ritzlab")


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, 0]))


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


def points_away_from_kinks(net, rng, n, box=(-1.5, 1.5), min_preact=1e-8):
    """Sample points whose pre-activations all clear the kinks.

    Finite-difference oracles are only valid away from activation breakpoints;
    resample any point with a pre-activation magnitude below min_preact.
    """
    d = net.architecture.input_dim
    out = []
    while len(out) < n:
        x = rng.uniform(box[0], box[1], size=d)
        f = x
        ok = True
        for w, b in zip(net.weights, net.biases):
            z = w @ f + b
            if np.min(np.abs(z)) < min_preact:
                ok = False
                break
            f = np.maximum(z, 0.0) ** 2
        if ok:
            out.append(x)
    return np.array(out)


@pytest.fixture
def rng():
    return rng_for(20240811)
