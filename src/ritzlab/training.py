"""First-order minimization of the empirical Ritz loss.

SGD and Adam on the flat parameter vector, with per-step minibatches drawn
either from the fixed training sample set (the empirical-risk setting) or
fresh each step.  The returned network is the best iterate by full-set loss,
selected among periodic checkpoints.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .networks import Architecture, Network, _as_int, _as_real
from .problems import Problem
from .ritz import derived_seed, empirical_loss, loss_and_parameter_gradient
from .sampling import SampleSet, make_sample_set, rng_stream

_TAG_INIT = 100
_TAG_BATCH = 101


class TrainingDivergedError(RuntimeError):
    """Loss or gradient became non-finite during optimization."""


class ConfigError(ValueError):
    """A config is not a mapping, has an unknown key, lacks a required key, or
    holds a value of the wrong type."""


def _fits(value, hint) -> bool:
    """Whether a value fits a config field's type annotation.

    A bool is not an int, and an int is accepted for a float.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        return len(value) == len(items) and all(map(_fits, value, items))
    if origin is types.UnionType:
        return any(_fits(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


# The annotations are strings (postponed evaluation); resolve them once per class.
_field_hints = functools.cache(typing.get_type_hints)


def _check_field_types(cfg) -> None:
    """Check every field of a config dataclass against its annotation.

    A list in a tuple-typed field becomes a tuple first; a value that does not
    fit (see _fits) raises ConfigError naming the field, so a config built in
    Python or from YAML fails at construction, not with a TypeError mid-run.
    """
    hints = _field_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        value, hint = getattr(cfg, f.name), hints[f.name]
        if isinstance(value, list) and typing.get_origin(hint) is tuple:
            value = tuple(value)
            object.__setattr__(cfg, f.name, value)
        if not _fits(value, hint):
            raise ConfigError(f"{type(cfg).__name__}.{f.name} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    lr_decay: float = 1.0
    iterations: int = 5000
    batch_domain: int = 256
    batch_boundary: int = 256
    resample: str = "fixed_set"
    seed: int = 0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    init_scale: float = 1.0
    eval_every: int = 50

    def __post_init__(self):
        _check_field_types(self)
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.resample not in ("fixed_set", "fresh_each_step"):
            raise ValueError("resample must be 'fixed_set' or 'fresh_each_step'")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if not all(0 <= b < 1 for b in self.adam_betas):
            raise ValueError("adam_betas must be two finite values in [0, 1)")
        for name, low in (("iterations", 0), ("batch_domain", 1), ("batch_boundary", 1),
                          ("eval_every", 1), ("seed", 0)):
            _as_int(getattr(self, name), name, low)
        _as_real(self.learning_rate, "learning_rate")
        _as_real(self.adam_eps, "adam_eps", strict=True)
        _as_real(self.init_scale, "init_scale")


class Checkpoint(typing.NamedTuple):
    iteration: int
    loss: float


@dataclass
class TrainHistory:
    """Full-set loss trace at checkpoints plus the best-iterate bookkeeping."""

    checkpoints: list = field(default_factory=list)
    best_iteration: int = 0
    best_loss: float = math.inf

    def summary(self) -> dict:
        """The deterministic fields that reports carry."""
        return {
            "best_iteration": self.best_iteration,
            "best_loss": self.best_loss,
            "initial_loss": self.checkpoints[0].loss if self.checkpoints else None,
            "final_loss": self.checkpoints[-1].loss if self.checkpoints else None,
            "n_checkpoints": len(self.checkpoints),
        }


def init_network(arch: Architecture, init_scale: float, seed: int) -> Network:
    """Glorot-style uniform weights scaled by init_scale, zero biases."""
    _as_real(init_scale, "init_scale")
    rng = rng_stream(seed, _TAG_INIT)
    dims = arch.layer_dims
    ws, bs = [], []
    for k in range(arch.depth):
        s = init_scale * math.sqrt(6.0 / (dims[k] + dims[k + 1]))
        ws.append(rng.uniform(-s, s, size=(dims[k + 1], dims[k])))
        bs.append(np.zeros(dims[k + 1]))
    return Network(arch, ws, bs)


class AdamState:
    """The standard published Adam recursion on a flat parameter vector.

    m and v are updated in place, through one scratch vector, in the operation
    order of theta - lr * m_hat / (sqrt(v_hat) + eps), so every value is
    bitwise that of the textbook expression.
    """

    def __init__(self, n_params: int, betas=(0.9, 0.999), eps: float = 1e-8):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        self._scratch = np.empty(n_params)

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """The updated parameters, as a fresh array (theta is left as it is)."""
        self.t += 1
        s = self._scratch
        self.m *= self.beta1
        self.m += np.multiply(grad, 1.0 - self.beta1, out=s)
        self.v *= self.beta2
        self.v += np.multiply(np.square(grad, out=s), 1.0 - self.beta2, out=s)
        denom = np.divide(self.v, 1.0 - self.beta2**self.t, out=s)
        denom = np.add(np.sqrt(denom, out=s), self.eps, out=s)
        step = np.divide(self.m, 1.0 - self.beta1**self.t)
        step *= lr
        step /= denom
        return np.subtract(theta, step, out=step)


def _batch_view(samples: SampleSet, idx_d, idx_b) -> SampleSet:
    return SampleSet(
        samples.domain_points[idx_d],
        samples.boundary_points[idx_b],
        samples.boundary_faces[idx_b],
    )


def train(net: Network, p: Problem, samples: SampleSet, cfg: TrainConfig):
    """Run cfg.iterations optimizer steps; returns (best-iterate net, history).

    Aborts with TrainingDivergedError and diagnostics if the loss, the
    gradient or the updated parameters stop being finite.
    """
    if cfg.resample == "fixed_set":
        if cfg.batch_domain > samples.n_domain or cfg.batch_boundary > samples.n_boundary:
            raise ValueError("batch sizes exceed the fixed sample set")

    theta = net.flatten_parameters()
    adam = AdamState(theta.size, cfg.adam_betas, cfg.adam_eps) if cfg.optimizer == "adam" else None
    rng = rng_stream(cfg.seed, _TAG_BATCH)
    lr = cfg.learning_rate
    epoch_steps = max(1, math.ceil(samples.n_domain / cfg.batch_domain))

    history = TrainHistory()

    def checkpoint(iteration, current):
        loss = empirical_loss(current, p, samples).total
        history.checkpoints.append(Checkpoint(iteration, loss))
        if loss < history.best_loss:
            history.best_loss = loss
            history.best_iteration = iteration
            return True
        return False

    current = net
    best_theta = theta.copy()
    checkpoint(0, current)

    for step in range(1, cfg.iterations + 1):
        if cfg.resample == "fixed_set":
            idx_d = rng.choice(samples.n_domain, size=cfg.batch_domain, replace=False)
            idx_b = rng.choice(samples.n_boundary, size=cfg.batch_boundary, replace=False)
            batch = _batch_view(samples, idx_d, idx_b)
        else:
            batch = make_sample_set(
                cfg.batch_domain, cfg.batch_boundary, p.d, derived_seed(cfg.seed, step)
            )
        rep, grad = loss_and_parameter_gradient(current, p, batch)
        if not (math.isfinite(rep.total) and np.isfinite(grad).all()):
            raise TrainingDivergedError(
                f"non-finite loss/gradient at iteration {step}: "
                f"loss={rep.total!r}, |grad|={float(np.linalg.norm(grad)):.3e}, "
                f"|theta|={float(np.linalg.norm(theta)):.3e}"
            )
        if cfg.optimizer == "adam":
            theta = adam.step(theta, grad, lr)
        else:
            theta = theta - lr * grad
        try:
            current = net.with_parameters(theta)
        except ValueError as exc:  # the update made theta non-finite
            raise TrainingDivergedError(
                f"non-finite parameters after iteration {step}: "
                f"|grad|={float(np.linalg.norm(grad)):.3e}, lr={lr!r}"
            ) from exc
        if step % epoch_steps == 0:
            lr *= cfg.lr_decay

        if step % cfg.eval_every == 0 or step == cfg.iterations:
            if checkpoint(step, current):
                best_theta = theta.copy()

    return net.with_parameters(best_theta), history

