"""Experiment orchestration: validated config files, convergence studies, error
decomposition, construction verification, rate fitting, and machine-readable
reports.

Reports are JSON (schema documented in the README) plus CSV tables, built
only from seeded deterministic quantities so a rerun with the same config is
byte-identical; wall-clock metadata never enters a report.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .bounds import BoundInputs, pdim_bound, predicted_rates, statistical_error_bound
from .gadgets import (
    SplineIndex,
    build_gradient_norm_network,
    build_multivariate_bspline,
    build_product_gadget,
    build_spline_combination,
    build_square_gadget,
    build_univariate_bspline,
    fit_spline_coefficients,
    full_index_range,
    multivariate_bspline_value,
    bspline_value,
    prescribe_architecture,
)
from .networks import (
    IDENTITY,
    RELU2,
    Architecture,
    Network,
    _as_int,
    forward_batch,
    values_and_input_gradients,
)
from .problems import Problem, problem_by_name
from .ritz import (
    derived_seed,
    empirical_loss,
    energy_excess,
    statistical_gap_estimate,
)
from .sampling import RNG_ALGORITHM, h1_error, make_sample_set, rng_stream, sample_domain
from .training import (
    ConfigError,
    TrainConfig,
    _check_field_types,
    init_network,
    train,
)


# ------------------------------------------------------------ config files


def config_from_dict(cls, raw):
    """The config dataclass cls built from a parsed YAML mapping.

    Keys are the fields of cls, and the nested `train` mapping becomes a
    TrainConfig by the same rules; cls.__post_init__ checks each value's type
    and range.
    """
    name = cls.__name__
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} config must be a mapping, got {type(raw).__name__}")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    unknown = sorted(str(key) for key in raw if key not in names)
    if unknown:
        raise ConfigError(f"unknown {name} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing required {name} key(s): {', '.join(missing)}")
    kwargs = dict(raw)
    if "train" in kwargs:
        kwargs["train"] = config_from_dict(TrainConfig, kwargs["train"])
    return cls(**kwargs)


def load_yaml(path):
    """The parsed content of a YAML file (None for an empty file)."""
    with open(path) as fh:
        return yaml.safe_load(fh)


def load_config(cls, path):
    """The config dataclass cls read from a YAML file; see config_from_dict."""
    return config_from_dict(cls, load_yaml(path))


def config_to_dict(cfg) -> dict:
    """A config as plain data for reports: asdict, with tuples written as lists."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    return plain(dataclasses.asdict(cfg))


@dataclass(frozen=True)
class TrainRunConfig:
    """One `ritzlab train` run: N = M = n samples at the prescribed architecture."""

    problem: str
    d: int
    n: int
    nu: float = 0.0
    n_quad: int = 100_000
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        _check_field_types(self)
        _as_int(self.n, "n", 1)
        _as_int(self.n_quad, "n_quad", 2)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a convergence-rate study; N = M = n throughout."""

    problem: str = "cosine"
    d: int = 1
    n_values: tuple[int, ...] = (256, 1024, 4096)
    nu: float = 0.0
    repetitions: int = 3
    n_quad: int = 100_000
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        _check_field_types(self)
        ns = self.n_values
        if not ns:
            raise ValueError("n_values must hold at least one n")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing")
        _as_int(ns[0], "n_values", 1)  # the least of them
        _as_int(self.n_quad, "n_quad", 2)
        _as_int(self.repetitions, "repetitions", 1)


def fit_rate(points):
    """OLS fit of ln(err) against ln(n): returns (slope, intercept, slope_se)."""
    pts = [(float(n), float(e)) for n, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if not all(math.isfinite(n) and math.isfinite(e) for n, e in pts):
        raise ValueError("rate fitting needs finite sample sizes and errors")
    if any(n <= 0 or e <= 0 for n, e in pts):
        raise ValueError("rate fitting needs positive sample sizes and errors")
    if len({n for n, _ in pts}) < 2:
        raise ValueError("rate fitting needs at least 2 distinct sample sizes")
    x = np.log([n for n, _ in pts])
    y = np.log([e for _, e in pts])
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    slope_se = float(np.sqrt(np.sum(resid**2) / (len(pts) - 2) / sxx))  # dof >= 1
    return slope, intercept, slope_se


def _measure_output_bound(net, d: int, seed: int, n_probe: int = 10_000) -> float:
    """Post-hoc sup bound over probe points: max(|u|, ||grad u||^2)."""
    x = sample_domain(n_probe, d, seed)
    vals, grads = values_and_input_gradients(net, x)
    return float(max(np.max(np.abs(vals)), np.max(np.sum(grads**2, axis=1))))


def _cell_config(base: TrainConfig, n: int, cell_seed: int) -> TrainConfig:
    """A study or decomposition cell's trainer config: base reseeded with
    cell_seed, batches clamped to n."""
    return replace(base, seed=cell_seed, batch_domain=min(base.batch_domain, n),
                   batch_boundary=min(base.batch_boundary, n))


def _train_cell(p: Problem, arch: Architecture, n: int, cfg: TrainConfig, n_quad: int,
                seed: int):
    """One training run: the body of `ritzlab train` and of every study and
    decomposition cell.  It trains at arch on N = M = n samples drawn from
    derived_seed(seed, 1), starting from init_network at seed, with minibatches
    from cfg.seed.  Returns (samples, best iterate, history, the best iterate's
    empirical loss report, its H1 error report at derived_seed(seed, 2)).
    """
    samples = make_sample_set(n, n, p.d, derived_seed(seed, 1))
    trained, history = train(init_network(arch, cfg.init_scale, seed), p, samples, cfg)
    err = h1_error(trained, p, n_quad, derived_seed(seed, 2))
    return samples, trained, history, empirical_loss(trained, p, samples), err


def run_convergence_study(cfg: StudyConfig) -> dict:
    """Train at the prescribed architecture for each n and fit the rate.

    Per n: width/depth from the theory prescription, N = M = n samples,
    repetitions independent runs; the log-log slope is fitted to the median
    squared H1 error when at least three n values are present.  The
    theoretical exponents are reported alongside without any equality
    assertion (the theory provides an upper bound with unknown constants).
    """
    p = problem_by_name(cfg.problem, cfg.d)
    cells = []
    bounds_rows = []
    for j, n in enumerate(cfg.n_values):
        arch = prescribe_architecture(cfg.d, n, cfg.nu)
        for rep in range(cfg.repetitions):
            cell_seed = derived_seed(cfg.seed, j * cfg.repetitions + rep)
            _, trained, history, loss, err = _train_cell(
                p, arch, n, _cell_config(cfg.train, n, cell_seed), cfg.n_quad, cell_seed)
            exc = energy_excess(trained, p, cfg.n_quad, derived_seed(cell_seed, 3))
            b_hat = _measure_output_bound(trained, cfg.d, derived_seed(cell_seed, 4))
            cells.append(
                {
                    "n": n,
                    "rep": rep,
                    "architecture": _architecture_block(arch),
                    "h1_err": err.h1_err,
                    "h1_err_se": err.h1_err_se,
                    "l2_err": err.l2_err,
                    "l2_err_se": err.l2_err_se,
                    "excess": exc.excess,
                    "excess_se": exc.excess_se,
                    "loss": loss._asdict(),
                    "train_summary": history.summary(),
                    "measured_B": b_hat,
                }
            )
        b_median = float(np.median([c["measured_B"] for c in cells[-cfg.repetitions:]]))
        pdim = pdim_bound(arch.depth, arch.width)
        sta = statistical_error_bound(
            BoundInputs(
                depth=arch.depth,
                width=arch.width,
                d=cfg.d,
                n=n,
                B=b_median,
                c3=p.c3,
                nu=cfg.nu,
            ),
            C_Bc3=1.0,
        )
        bounds_rows.append(
            {
                "n": n,
                "pdim_bound": pdim,
                "statistical_error_bound": sta,
                "constants": {"pdim_constant": 1.0, "C_Bc3": 1.0},
                "measured_B_median": b_median,
            }
        )

    medians = []
    for n in cfg.n_values:
        errs = [c["h1_err"] for c in cells if c["n"] == n]
        med = float(np.median(errs))
        medians.append({"n": n, "h1_err": med, "h1_err_sq": med**2})

    fit = None
    if len(cfg.n_values) >= 3:
        slope, intercept, slope_se = fit_rate([(m["n"], m["h1_err_sq"]) for m in medians])
        fit = {"slope": slope, "intercept": intercept, "slope_se": slope_se}

    rate_sq, rate = predicted_rates(cfg.d, cfg.nu)
    return {
        "kind": "convergence_study",
        "config": config_to_dict(cfg),
        "rng_algorithm": RNG_ALGORITHM,
        "problem": _problem_block(p),
        "cells": cells,
        "medians": medians,
        "fit": fit,
        "predicted": {
            "h1_sq_rate_exponent": rate_sq,
            "h1_rate_exponent": rate,
            "note": "theoretical upper-bound exponents; observed rate is "
                    "reported without an equality assertion",
        },
        "theory_bounds": bounds_rows,
    }


def _problem_block(p: Problem) -> dict:
    """The Problem's data fields by name; its callables stay out of reports."""
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p)
            if not callable(getattr(p, f.name))}


def _architecture_block(arch: Architecture) -> dict:
    return {"layer_dims": list(arch.layer_dims), "depth": arch.depth, "width": arch.width}


@dataclass(frozen=True)
class DecompositionConfig:
    """One-cell error decomposition: proxies for the approximation,
    statistical, and optimization error terms at a single (n, architecture)."""

    problem: str = "cosine"
    d: int = 1
    n: int = 1024
    nu: float = 0.0
    spline_level: int = 3
    gap_reps: int = 8
    restarts: int = 2
    n_quad: int = 100_000
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        _check_field_types(self)
        for name, low in (("n", 1), ("n_quad", 2), ("spline_level", 1), ("gap_reps", 2),
                          ("restarts", 1)):
            _as_int(getattr(self, name), name, low)


def run_error_decomposition(cfg: DecompositionConfig) -> dict:
    """Report the three error-component proxies at one (n, architecture).

    Approximation: the fitted spline-combination route, scaled by
    (sup w or 1)/2 times its squared H1 error.  Statistical: twice the
    fixed-net mean absolute loss gap (the decomposition's statistical term
    carries a factor 2).  Optimization: best-of-restarts loss difference.
    The decomposition inequality is checked one-sidedly and flagged, never
    asserted, since every term is a proxy.
    """
    p = problem_by_name(cfg.problem, cfg.d)
    if p.analytic_energy is None:
        raise ValueError("error decomposition needs a problem with analytic energy")

    arch = prescribe_architecture(cfg.d, cfg.n, cfg.nu)
    cell_seed = derived_seed(cfg.seed, 0)
    # fit first: an oversized collocation system fails before any training
    comb = fit_spline_coefficients(lambda q: p.u_star(q), cfg.spline_level, cfg.d)
    spline_net = build_spline_combination(comb)
    tcfg = _cell_config(cfg.train, cfg.n, cell_seed)
    samples, trained, history, loss, err = _train_cell(p, arch, cfg.n, tcfg, cfg.n_quad, cell_seed)
    exc = energy_excess(trained, p, cfg.n_quad, derived_seed(cell_seed, 3))

    spline_err = h1_error(spline_net, p, cfg.n_quad, derived_seed(cell_seed, 5))
    spline_exc = energy_excess(spline_net, p, cfg.n_quad, derived_seed(cell_seed, 6))
    w_top = max(p.w_sup, 1.0)
    e_app = 0.5 * w_top * spline_err.h1_err**2
    e_app_se = w_top * spline_err.h1_err * spline_err.h1_err_se

    gap = statistical_gap_estimate(trained, p, cfg.n, cfg.gap_reps, derived_seed(cell_seed, 7))
    e_sta = 2.0 * gap.mean_abs_gap

    # Restart k trains from seed cell_seed + k on the cell's samples; restart 0
    # is the cell itself, so e_opt is the cell's loss minus the best of all.
    best = loss.total
    for k in range(1, cfg.restarts):
        net0 = init_network(arch, tcfg.init_scale, cell_seed + k)
        _, restart_history = train(net0, p, samples, replace(tcfg, seed=cell_seed + k))
        best = min(best, restart_history.best_loss)
    e_opt = loss.total - best

    c_low = min(p.c1, 1.0)
    lhs = 0.5 * c_low * err.h1_err**2
    lhs_se = c_low * err.h1_err * err.h1_err_se
    proxies = e_app + e_sta + e_opt
    slack = 5.0 * math.hypot(lhs_se, e_app_se, 2.0 * gap.mean_abs_gap_se)
    return {
        "kind": "error_decomposition",
        "config": config_to_dict(cfg),
        "rng_algorithm": RNG_ALGORITHM,
        "problem": _problem_block(p),
        "architecture": _architecture_block(arch),
        "h1_err": err.h1_err,
        "h1_err_se": err.h1_err_se,
        "h1_err_sq": err.h1_err**2,
        "excess": exc.excess,
        "excess_se": exc.excess_se,
        "e_app_proxy": e_app,
        "e_app_proxy_se": e_app_se,
        "e_app_spline_level": cfg.spline_level,
        "e_app_spline_excess": spline_exc.excess,
        "e_app_spline_excess_se": spline_exc.excess_se,
        "e_sta_proxy": e_sta,
        "e_sta_gap_per_term": gap._asdict(),
        "e_opt_proxy": e_opt,
        "decomposition_lhs": lhs,
        "decomposition_rhs_proxies": proxies,
        "decomposition_rhs_bound": 2.0 / c_low * proxies,
        "decomposition_check_satisfied": bool(lhs <= proxies + slack),
        "decomposition_check_slack": slack,
        "train_summary": history.summary(),
    }


# ----------------------------------------------- construction verification


def _check(name: str, max_abs_error: float, tolerance: float, probes: int, **extra) -> dict:
    out = {
        "name": name,
        "max_abs_error": float(max_abs_error),
        "tolerance": tolerance,
        "probes": probes,
        "passed": bool(max_abs_error <= tolerance),
    }
    out.update(extra)
    return out


def verify_constructions(seed: int = 0) -> dict:
    """Exactness suite for every weight-level construction; used by the CLI.

    Comparisons run against closed-form oracles (direct evaluation, products
    of univariate closed forms, the package's analytic input gradients).
    """
    rng = rng_stream(seed, 7)
    checks = []

    net = build_square_gadget()
    x = rng.uniform(-10, 10, size=(10_000, 1))
    rel = np.abs(forward_batch(net, x) - x[:, 0] ** 2) / (1.0 + x[:, 0] ** 2)
    checks.append(_check("square_gadget", np.max(rel), 1e-12, x.shape[0],
                         depth=net.architecture.depth, width=net.architecture.width))

    net = build_product_gadget()
    xy = rng.uniform(-5, 5, size=(10_000, 2))
    exact = xy[:, 0] * xy[:, 1]
    rel = np.abs(forward_batch(net, xy) - exact) / np.maximum(1.0, np.abs(exact))
    checks.append(_check("product_gadget", np.max(rel), 1e-12, xy.shape[0],
                         depth=net.architecture.depth, width=net.architecture.width))

    for level in (1, 2, 3):
        worst = 0.0
        xs = rng.uniform(-0.5, 1.5, size=10_000)
        grid = np.linspace(0.0, 1.0, 1000)
        total = np.zeros_like(grid)
        for i in full_index_range(level):
            snet = build_univariate_bspline(level, i)
            worst = max(worst, float(np.max(np.abs(
                forward_batch(snet, xs.reshape(-1, 1)) - bspline_value(level, i, xs)
            ))))
            total += forward_batch(snet, grid.reshape(-1, 1))
        checks.append(_check(f"univariate_bspline_l{level}", worst, 1e-12, xs.size,
                             depth=2, width=4, depth_bound=2, width_bound=4))
        checks.append(_check(f"partition_of_unity_l{level}", np.max(np.abs(total - 1.0)),
                             1e-12, grid.size))

    for d, level in ((2, 2), (3, 2)):
        worst = 0.0
        depth_w = (0, 0)
        for _ in range(5):
            idx = SplineIndex(level, tuple(rng.integers(-2, 2**level, size=d)))
            mnet = build_multivariate_bspline(idx)
            depth_w = (mnet.architecture.depth, mnet.architecture.width)
            pts = rng.uniform(-0.2, 1.2, size=(1000, d))
            worst = max(worst, float(np.max(np.abs(
                forward_batch(mnet, pts) - multivariate_bspline_value(idx, pts)
            ))))
        checks.append(_check(f"multivariate_bspline_d{d}", worst, 1e-10, 5000,
                             depth=depth_w[0], width=depth_w[1],
                             depth_bound=math.ceil(math.log2(d)) + 2, width_bound=4 * d))

    worst = 0.0
    for k in range(8):
        d = int(rng.integers(1, 4))
        depth_hidden = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth_hidden))
        rnet = _random_relu2_net(d, hidden, rng_stream(derived_seed(seed, 50 + k), 11))
        rel, sizes = gradient_norm_check(rnet, rng.uniform(-1.5, 1.5, size=(500, d)))
        worst = max(worst, rel)
    checks.append(_check("gradient_norm_network", worst, 1e-9, 8 * 500, **sizes))

    spline_fit = calibrate_spline_rate(levels=(2, 3, 4, 5), n_quad=50_000,
                                       seed=derived_seed(seed, 90))

    arch = prescribe_architecture(2, 1024, 0.0)
    checks.append(_check("prescribed_architecture_example",
                         abs(arch.width - 32) + abs(arch.depth - 4), 0.0, 1))

    return {
        "kind": "construction_verification",
        "rng_algorithm": RNG_ALGORITHM,
        "seed": seed,
        "checks": checks,
        "spline_fit_rate": spline_fit,
        "all_passed": all(c["passed"] for c in checks),
    }


def gradient_norm_check(net: Network, points: np.ndarray):
    """Compare the gradient-norm net of a pure-ReLU^2 net with sum_i (D_i u)^2.

    Returns the max over the points of |gnet(x) - ||grad u(x)||^2| divided by
    max(1, ||grad u(x)||^2), and the gradient-norm net's depth and width next
    to their bounds D + 3 and d (D + 2) W for an input net of depth D, width W.
    """
    gnet = build_gradient_norm_network(net)
    _, grads = values_and_input_gradients(net, points)
    want = np.sum(grads**2, axis=1)
    rel = np.abs(forward_batch(gnet, points) - want) / np.maximum(1.0, np.abs(want))
    arch = net.architecture
    return float(np.max(rel)), {
        "depth": gnet.architecture.depth,
        "width": gnet.architecture.width,
        "depth_bound": arch.depth + 3,
        "width_bound": arch.input_dim * (arch.depth + 2) * arch.width,
    }


def _random_relu2_net(d, hidden, rng: np.random.Generator, scale=0.8):
    """Pure-ReLU^2 net with linear output; weights then biases, layer by layer,
    are scale times standard normal draws from rng."""
    dims = (d, *hidden, 1)
    acts = tuple([RELU2] * len(hidden) + [IDENTITY])
    ws = [scale * rng.standard_normal((dims[k + 1], dims[k])) for k in range(len(dims) - 1)]
    bs = [scale * rng.standard_normal(dims[k + 1]) for k in range(len(dims) - 1)]
    return Network(Architecture(dims, acts), ws, bs)


def calibrate_spline_rate(levels=(2, 3, 4, 5), n_quad: int = 50_000, seed: int = 0) -> dict:
    """Fit the d=1 cosine target at several dyadic levels and report the
    observed H1-error decay together with the calibrated approximation
    constant C = max_l err_l 2^l / ||u*||_H1 (reported, never hard-coded)."""
    p = problem_by_name("cosine", 1)
    errors = []
    for level in levels:
        comb = fit_spline_coefficients(lambda q: p.u_star(q), level, 1)
        snet = build_spline_combination(comb)
        rep = h1_error(snet, p, n_quad, derived_seed(seed, level))
        errors.append({"level": level, "h1_err": rep.h1_err, "h1_err_se": rep.h1_err_se})
    log2_slope = slope_se = None
    if len(errors) >= 3:
        # base change: the slope of ln err against ln 2^l is the log2 slope
        log2_slope, _, slope_se = fit_rate([(2 ** e["level"], e["h1_err"]) for e in errors])
    h1_norm = math.sqrt(p.analytic_h1_norm_sq)
    calibrated_c = max(e["h1_err"] * 2 ** e["level"] for e in errors) / h1_norm
    return {
        "target": "cosine d=1",
        "errors": errors,
        "log2_slope": log2_slope,
        "log2_slope_se": slope_se,
        "calibrated_C": calibrated_c,
        "note": "theory guarantees err <= C 2^-l ||u||; the observed slope on a "
                "smooth target is reported, not asserted",
    }


# ----------------------------------------------------------- report IO


def write_json_report(report: dict, path) -> None:
    """Deterministic JSON: sorted keys, fixed indentation, trailing newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


_STUDY_CSV_COLUMNS = ("n", "rep", "h1_err", "h1_err_se", "l2_err", "excess", "loss_total")


def write_study_csv(report: dict, path) -> None:
    """Per-cell CSV table with the documented fixed column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_STUDY_CSV_COLUMNS)
        for cell in report["cells"]:
            writer.writerow(
                [
                    cell["n"],
                    cell["rep"],
                    repr(cell["h1_err"]),
                    repr(cell["h1_err_se"]),
                    repr(cell["l2_err"]),
                    repr(cell["excess"]),
                    repr(cell["loss"]["total"]),
                ]
            )


def write_history_csv(history, path) -> None:
    """Training trace: iteration and full-set loss at each checkpoint."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iteration", "loss"))
        for c in history.checkpoints:
            writer.writerow((c.iteration, repr(c.loss)))
