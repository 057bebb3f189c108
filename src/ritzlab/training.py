"""First-order minimization of the empirical Ritz loss.

SGD and Adam on the flat parameter vector, with per-step minibatches drawn
from the fixed training sample set (the empirical-risk setting); the best
iterate by full-set loss among periodic checkpoints is returned.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .networks import Architecture, Network, _activate, _as_int, _as_real, _layer_views
from .problems import Problem
from .ritz import empirical_loss, loss_and_parameter_gradient
from .sampling import SampleSet, rng_stream

_TAG_INIT = 100
_TAG_BATCH = 101


class TrainingDivergedError(RuntimeError):
    """Loss or gradient became non-finite during optimization."""


class ConfigError(ValueError):
    """A config is not a mapping, has an unknown key, lacks a required key, or
    holds a value of the wrong type or out of its field's range."""


# Config field types that carry their lower bound, which _fits holds a value
# to: the arguments of _as_int or _as_real after the name.  They are constants,
# since typing caches every Annotated alias it builds for the process.
Count = typing.Annotated[int, 1]
Count0 = typing.Annotated[int, 0]
Count2 = typing.Annotated[int, 2]
Real = typing.Annotated[float, 0.0, False]  # finite, >= 0
PositiveReal = typing.Annotated[float, 0.0, True]  # finite, > 0


def _fits(value, hint, what: str) -> bool:
    """Whether a value fits a config field's type annotation.

    A bool is not an int, and an int is accepted for a float.  A value that
    fits the type of a bounded (Annotated) hint is then held to its bound,
    which raises ConfigError naming `what`.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        fits = _fits(value, args[0], what)
        if fits:
            (_as_int if args[0] is int else _as_real)(value, what, *args[1:], error=ConfigError)
        return fits
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        return len(value) == len(items) and all(_fits(v, h, what) for v, h in zip(value, items))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


# The annotations are strings (postponed evaluation); resolve them once per class.
_field_hints = functools.cache(lambda cls: typing.get_type_hints(cls, include_extras=True))


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
        if not _fits(value, hint, f.name):
            plain = typing.get_type_hints(type(cfg))[f.name]  # the type, bounds left out
            plain = plain.__name__ if isinstance(plain, type) else plain
            raise ConfigError(f"{type(cfg).__name__}.{f.name} must be {plain}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: Real = 1e-3
    lr_decay: float = 1.0
    iterations: Count0 = 5000
    batch_domain: Count = 256
    batch_boundary: Count = 256
    seed: Count0 = 0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: PositiveReal = 1e-8
    init_scale: Real = 1.0
    eval_every: Count = 50

    def __post_init__(self):
        _check_field_types(self)
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError("optimizer must be 'sgd' or 'adam'")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr_decay must be in (0, 1]")
        if not all(0 <= b < 1 for b in self.adam_betas):
            raise ConfigError("adam_betas must be two finite values in [0, 1)")


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


def _first_non_finite_layer(arch: Architecture, theta: np.ndarray, x=None) -> str:
    """Names the first layer whose parameters (x None), or values at points x, are non-finite."""
    what = "parameters" if x is None else "values on the minibatch"
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w, b, spec) in enumerate(zip(*_layer_views(arch, theta), arch.activations), 1):
            if x is not None:
                _activate(spec, x := x @ w.T + b, None)
            if not np.isfinite(np.append(w, b) if x is None else x).all():
                return f"first non-finite {what}: layer {k}"
    return f"no layer has non-finite {what}"


def train(net: Network, p: Problem, samples: SampleSet, cfg: TrainConfig):
    """Run cfg.iterations optimizer steps; returns (best-iterate net, history).

    Aborts with TrainingDivergedError if the loss, the gradient's sum of squares
    or the updated parameters stop being finite; its message names the first
    non-finite layer and ends with the last checkpoint's iteration and loss.
    """
    for kind, batch, n in (("domain", cfg.batch_domain, samples.n_domain),
                           ("boundary", cfg.batch_boundary, samples.n_boundary)):
        if batch > n:
            raise ValueError(f"batch_{kind} {batch} exceeds n_{kind} {n}")

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

    def diverged(what):
        last = history.checkpoints[-1]
        return TrainingDivergedError(f"{what}; last checkpoint: iteration {last.iteration}, "
                                     f"full-set loss {last.loss!r}")

    current = net
    best_theta = theta.copy()
    checkpoint(0, current)

    for step in range(1, cfg.iterations + 1):
        idx_d = rng.choice(samples.n_domain, size=cfg.batch_domain, replace=False)
        idx_b = rng.choice(samples.n_boundary, size=cfg.batch_boundary, replace=False)
        batch = samples._rows(idx_d, idx_b)
        rep, grad = loss_and_parameter_gradient(current, p, batch)
        with np.errstate(over="ignore"):  # a finite sum of squares keeps Adam's v finite
            sq_norm = float(grad @ grad)
        if not (math.isfinite(rep.total) and math.isfinite(sq_norm)):
            raise diverged(
                f"non-finite loss/gradient at iteration {step}: "
                f"loss={rep.total!r}, |grad|={math.sqrt(sq_norm):.3e}, "
                f"|theta|={float(np.linalg.norm(theta)):.3e}, " + _first_non_finite_layer(
                    net.architecture, theta,
                    np.vstack([batch.domain_points, batch.boundary_points]))
            )
        if cfg.optimizer == "adam":
            theta = adam.step(theta, grad, lr)
        else:
            theta = theta - lr * grad
        try:
            current = net.with_parameters(theta)
        except ValueError as exc:  # the update made theta non-finite
            raise diverged(
                f"non-finite parameters after iteration {step}: "
                f"|grad|={float(np.linalg.norm(grad)):.3e}, lr={lr!r}, "
                + _first_non_finite_layer(net.architecture, theta)
            ) from exc
        if step % epoch_steps == 0:
            lr *= cfg.lr_decay

        if step % cfg.eval_every == 0 or step == cfg.iterations:
            if checkpoint(step, current):
                best_theta = theta.copy()

    return net.with_parameters(best_theta), history

