"""Exact weight-level network constructions.

Squaring and multiplication gadgets, cardinal B-splines of order 3 on dyadic
partitions of [0,1], tensor-product splines via binary product trees, linear
spline combinations, least-squares spline fitting, the gradient-norm network
transformer, and the width/depth prescription used by the convergence studies.

All identities here are algebraically exact; the only error in any
construction is floating-point rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .networks import IDENTITY, RELU, RELU2, Architecture, Network, _as_int, _as_real

_BINOM3 = (1.0, -3.0, 3.0, -1.0)  # (-1)^j * C(3, j)
_POINTS_PER_INTERVAL = 4  # collocation points per knot interval and axis in a spline fit


class InvalidSplineIndexError(ValueError):
    """Spline level/index outside the admissible dyadic range."""


class UnsupportedActivationError(ValueError):
    """Input net is not pure ReLU^2 with linear output."""


class SingularFitError(RuntimeError):
    """Spline collocation system was rank deficient."""


@dataclass(frozen=True)
class SplineIndex:
    """Identifies one tensor-product B-spline: level l and index vector i."""

    level: int
    index: tuple

    def __post_init__(self):
        level = _as_int(self.level, "spline level", 1, InvalidSplineIndexError)
        # dtype=object keeps each entry's own type, so a bool or float is caught
        index = tuple(_as_int(i, "spline index", error=InvalidSplineIndexError)
                      for i in np.atleast_1d(np.asarray(self.index, dtype=object)))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "index", index)
        top = 2**level - 1
        for i in index:
            if not -2 <= i <= top:
                raise InvalidSplineIndexError(
                    f"index {i} outside [-2, {top}] at level {level}"
                )

    @property
    def dim(self) -> int:
        return len(self.index)


@dataclass
class SplineCombination:
    """A linear combination sum_j c_j N_{l, i_j} at one level and dimension."""

    level: int
    dim: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        for idx in self.coefficients:
            if idx.level != self.level or idx.dim != self.dim:
                raise InvalidSplineIndexError(
                    f"index {idx} does not match combination level/dim "
                    f"({self.level}, {self.dim})"
                )


def full_index_range(level: int):
    """All univariate indices whose support intersects [0, 1]."""
    return range(-2, 2 ** _as_int(level, "spline level", 1, InvalidSplineIndexError))


def bspline_value(level: int, i: int, x) -> np.ndarray:
    """Closed-form order-3 cardinal B-spline value, vectorized over x."""
    level = _as_int(level, "spline level", 1, InvalidSplineIndexError)
    i = _as_int(i, "spline index", error=InvalidSplineIndexError)
    h = 2.0 ** (-level)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j, c in enumerate(_BINOM3):
        out += c * np.maximum(x - (i + j) * h, 0.0) ** 2
    return 2.0 ** (2 * level - 1) * out


def multivariate_bspline_value(idx: SplineIndex, x) -> np.ndarray:
    """Product of univariate closed forms at points of shape (n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.ones(x.shape[0])
    for axis, i in enumerate(idx.index):
        out *= bspline_value(idx.level, i, x[:, axis])
    return out


# -------------------------------------------------------------- gadgets


def build_square_gadget() -> Network:
    """Width-2 ReLU^2 net computing x^2 = sigma2(x) + sigma2(-x) exactly."""
    arch = Architecture((1, 2, 1), (RELU2, IDENTITY))
    return Network(
        arch,
        [np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
        [np.zeros(2), np.zeros(1)],
    )


def build_product_gadget() -> Network:
    """One-hidden-layer width-4 ReLU^2 net computing xy exactly.

    xy = [sigma2(x+y) + sigma2(-x-y) - sigma2(x-y) - sigma2(y-x)] / 4.
    """
    arch = Architecture((2, 4, 1), (RELU2, IDENTITY))
    w1 = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    w2 = np.array([[0.25, 0.25, -0.25, -0.25]])
    return Network(arch, [w1, w2], [np.zeros(4), np.zeros(1)])


def build_univariate_bspline(level: int, i: int) -> Network:
    """Depth-2, width-4 ReLU^2 net realizing N_{l,i}: the d = 1 tensor product."""
    return build_multivariate_bspline(SplineIndex(level, (i,)))


# ------------------------------------------- staged affine assembly


class _StagedNet:
    """Builds a network stage by stage while values are tracked as linear maps
    (matrix rows) over the most recent stage's outputs."""

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.weights = []
        self.biases = []
        self.acts = []
        self.width = input_dim
        self._pending = None

    def begin_stage(self):
        self._pending = ([], [], [])

    def add_units(self, rows: np.ndarray, biases: np.ndarray, tag: str) -> slice:
        """Queue units for the current stage; returns their output positions."""
        rows = np.atleast_2d(rows)
        urows, ubias, utags = self._pending
        start = sum(r.shape[0] for r in urows)
        urows.append(rows)
        ubias.append(np.atleast_1d(biases).astype(float))
        utags.extend([tag] * rows.shape[0])
        return slice(start, start + rows.shape[0])

    def commit_stage(self):
        urows, ubias, utags = self._pending
        w = np.vstack(urows)
        b = np.concatenate(ubias)
        self.weights.append(w)
        self.biases.append(b)
        self.acts.append(tuple(utags))
        self.width = w.shape[0]
        self._pending = None

    def finish(self, out_row: np.ndarray, out_bias: float) -> Network:
        self.weights.append(np.atleast_2d(out_row))
        self.biases.append(np.atleast_1d(float(out_bias)))
        self.acts.append(IDENTITY)
        dims = (self.input_dim, *(w.shape[0] for w in self.weights))
        return Network(Architecture(dims, tuple(self.acts)), self.weights, self.biases)

    def identity_rows(self, pos: slice) -> np.ndarray:
        """Affine rows selecting a group of the current stage's outputs."""
        return np.eye(pos.stop - pos.start, self.width, pos.start)


def _product_gadget_rows(ra, rb):
    """Pre-activation rows/biases of the 4 sigma2 units multiplying two linear
    values; combine the outputs with (1, 1, -1, -1)/4 to get the product."""
    rows = np.stack([ra + rb, -(ra + rb), ra - rb, rb - ra])
    # the biases (a + b, -(a + b), a - b, b - a) at zero offsets a = b = 0.0
    return rows, np.array([0.0, -0.0, 0.0, 0.0])


_PROD_COMBINE = np.array([0.25, 0.25, -0.25, -0.25])


def _factor_biases(idx: SplineIndex) -> np.ndarray:
    """First-layer biases -(i_a + j) h of the 4 shifted sigma2 units per axis a."""
    h = 2.0 ** (-idx.level)
    return np.array([-(i + j) * h for i in idx.index for j in range(4)])


def build_multivariate_bspline(idx: SplineIndex) -> Network:
    """Tensor-product B-spline as a ReLU^2 net via a binary product tree.

    Depth <= ceil(log2 d) + 2 and width <= 4d, both asserted.
    """
    d = idx.dim
    net = _StagedNet(d)

    # stage 1: the 4 shifted sigma2 units of every univariate factor
    net.begin_stage()
    net.add_units(np.repeat(np.eye(d), 4, axis=0), _factor_biases(idx), RELU2)
    net.commit_stage()

    scale = 2.0 ** (2 * idx.level - 1)
    values = []
    for axis in range(d):
        row = np.zeros(net.width)
        row[4 * axis : 4 * axis + 4] = scale * np.array(_BINOM3)
        values.append(row)

    # product tree; an odd value passes through one identity unit per level
    while len(values) > 1:
        net.begin_stage()
        queued = []  # (unit positions, output combination) per new value
        for k in range(0, len(values) - 1, 2):
            rows, biases = _product_gadget_rows(values[k], values[k + 1])
            queued.append((net.add_units(rows, biases, RELU2), _PROD_COMBINE))
        if len(values) % 2 == 1:
            queued.append((net.add_units(values[-1][None, :], np.array([0.0]), IDENTITY), 1.0))
        net.commit_stage()
        values = []
        for pos, combine in queued:
            row = np.zeros(net.width)
            row[pos] = combine
            values.append(row)

    built = net.finish(values[0], 0.0)
    _assert_bounds(built, math.ceil(math.log2(d)) + 2, 4 * d, "multivariate B-spline")
    return built


def _assert_bounds(net: Network, max_depth: int, max_width: int, what: str) -> None:
    if net.architecture.depth > max_depth:
        raise AssertionError(
            f"{what}: depth {net.architecture.depth} exceeds bound {max_depth}"
        )
    if net.architecture.width > max_width:
        raise AssertionError(
            f"{what}: width {net.architecture.width} exceeds bound {max_width}"
        )


def build_spline_combination(comb: SplineCombination) -> Network:
    """Single net computing sum_j c_j N_{l, i_j} as K parallel subnets.

    Every term is the same product-tree net (build_multivariate_bspline)
    up to its first-layer biases, the knots -(i_a + j) h: no other weight
    or bias depends on the index.  So one template net supplies every
    layer: K stacked copies of its first weight matrix with each term's
    biases, block-diagonal copies of its middle layers, and an output row
    of c_j times its output row per term.  The middle layers are declared
    block-diagonal, so evaluation multiplies each template matrix alone.
    """
    if not comb.coefficients:
        raise ValueError("combination has no coefficients")
    items = sorted(comb.coefficients.items(), key=lambda kv: kv[0].index)
    k_terms = len(items)
    template = build_multivariate_bspline(items[0][0])
    arch = template.architecture

    weights = [np.vstack([template.weights[0]] * k_terms)]  # all read the shared input
    biases = [np.concatenate([_factor_biases(idx) for idx, _ in items])]
    for w, b in zip(template.weights[1:-1], template.biases[1:-1]):
        # assignment into zeros keeps the template's -0.0 entries and +0.0 elsewhere
        blocks = np.zeros((k_terms, w.shape[0], k_terms, w.shape[1]))
        blocks[range(k_terms), :, range(k_terms)] = w
        weights.append(blocks.reshape(k_terms * w.shape[0], k_terms * w.shape[1]))
        biases.append(np.tile(b, k_terms))
    weights.append(np.hstack([c * template.weights[-1] for _, c in items]))
    biases.append(np.array([sum(c * template.biases[-1][0] for _, c in items)]))

    acts = []
    for spec, n_units in zip(arch.activations[:-1], arch.layer_dims[1:]):
        tags = (spec,) * n_units if isinstance(spec, str) else spec
        acts.append(tags * k_terms)
    acts.append(IDENTITY)

    dims = (comb.dim, *(w.shape[0] for w in weights))
    middle = {k: k_terms for k in range(1, len(weights) - 1)}
    built = Network(Architecture(dims, tuple(acts)), weights, biases, _blocks=middle)
    if built.architecture.depth > math.ceil(math.log2(max(comb.dim, 1))) + 3:
        raise AssertionError("spline combination exceeded its depth bound")
    return built


def fit_spline_coefficients(target, level: int, dim: int) -> SplineCombination:
    """Least-squares fit of the full tensor-product basis on a uniform
    collocation grid (_POINTS_PER_INTERVAL points per knot interval per axis).

    target maps an (n, d) array to n finite values.
    """
    level = _as_int(level, "spline level", 1, InvalidSplineIndexError)
    dim = _as_int(dim, "dim", 1)
    n_axis = _POINTS_PER_INTERVAL * 2**level + 1
    n_basis = (2**level + 2) ** dim
    n_grid = n_axis**dim
    if n_basis * n_grid > 5e7:
        raise ValueError(
            f"collocation system too large: {n_grid} points x {n_basis} basis functions"
        )
    axis_pts = np.linspace(0.0, 1.0, n_axis)
    uni = np.stack([bspline_value(level, i, axis_pts) for i in full_index_range(level)],
                   axis=1)  # (n_axis, 2^l + 2)

    design = uni
    for _ in range(dim - 1):
        design = np.kron(design, uni)
    grids = np.meshgrid(*([axis_pts] * dim), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    rhs = np.asarray(target(pts), dtype=float)
    if rhs.shape != (n_grid,) or not np.isfinite(rhs).all():
        raise ValueError(f"target must map ({n_grid}, {dim}) points to {n_grid} finite "
                         f"values, got shape {rhs.shape}")

    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < design.shape[1]:
        raise SingularFitError(
            f"collocation system rank {rank} < {design.shape[1]} basis functions"
        )

    combo = {}
    for c, multi in zip(coef, itertools.product(full_index_range(level), repeat=dim)):
        combo[SplineIndex(level, multi)] = float(c)
    return SplineCombination(level, dim, combo)


# --------------------------------------- gradient-norm transformer


def _require_pure_relu2(net: Network) -> None:
    arch = net.architecture
    if arch.output_dim != 1:
        raise UnsupportedActivationError("need a scalar-output network")
    if not arch.is_relu2_hidden():
        raise UnsupportedActivationError(
            "gradient-norm construction needs pure ReLU^2 hidden layers"
        )


def build_gradient_norm_network(net: Network) -> Network:
    """Mixed ReLU/ReLU^2 net computing ||grad u(x)||_2^2 of a ReLU^2 net exactly.

    Carries the layerwise derivative recursion
        D_i u^(k+1) = 2 sigma1(z^(k+1)) * sum_j a_j D_i u^(k)
    through product gadgets and sums the final components through squaring
    gadgets.  Depth <= D + 3 and width <= d (D + 2) W are asserted, with
    (D, W) the depth/width of the input net.
    """
    _require_pure_relu2(net)
    arch = net.architecture
    d = arch.input_dim
    depth = arch.depth
    w_in, b_in = net.weights, net.biases
    n = arch.layer_dims

    if depth == 1:
        # affine net: the gradient is the constant weight row
        const = float(np.sum(w_in[0][0] ** 2))
        built = Network(
            Architecture((d, 1), (IDENTITY,)),
            [np.zeros((1, d))],
            [np.array([const])],
        )
        _assert_bounds(built, depth + 3, d * (depth + 2) * arch.width, "gradient-norm net")
        return built

    g = _StagedNet(d)

    # stage 1: r1 = sigma1(z1), and f1 = sigma2(z1) when a later layer reads it
    g.begin_stage()
    f_pos = g.add_units(w_in[0], b_in[0], RELU2) if depth >= 3 else None
    r_pos = g.add_units(w_in[0], b_in[0], RELU)
    g.commit_stage()
    r_rows = g.identity_rows(r_pos)
    # D_i f^(1)_q = 2 a^(1)_{qi} r1_q, affine in r1; for depth 2 that is D_i u
    d_rows = 2.0 * w_in[0][:, :, None] * r_rows[:, None, :]  # (n1, d, width)

    if depth >= 3:
        # stage 2: f2 (if needed), r2, and a ReLU pass-through of r1 (r1 >= 0)
        g.begin_stage()
        pre = w_in[1] @ g.identity_rows(f_pos)
        f2_pos = g.add_units(pre, b_in[1], RELU2) if depth >= 4 else None
        r2_pos = g.add_units(pre, b_in[1], RELU)
        r1c_pos = g.add_units(r_rows, np.zeros(n[1]), RELU)
        g.commit_stage()
        f_rows = g.identity_rows(f2_pos) if f2_pos is not None else None
        r_rows = g.identity_rows(r2_pos)
        d_rows = 2.0 * w_in[0][:, :, None] * g.identity_rows(r1c_pos)[:, None, :]

    # stages t = 3 .. depth: product gadgets for layer t-1 derivatives,
    # plus f_t / r_t while the original net still has hidden layers ahead
    for t in range(3, depth + 1):
        a_cur = w_in[t - 2]  # weights of original layer t-1: (n_{t-1}, n_{t-2})
        s_rows = np.einsum("qj,jiw->qiw", a_cur, d_rows)

        g.begin_stage()
        new_f_pos = new_r_pos = None
        if t <= depth - 1:
            pre = w_in[t - 1] @ f_rows
            if t <= depth - 2:
                new_f_pos = g.add_units(pre, b_in[t - 1], RELU2)
            new_r_pos = g.add_units(pre, b_in[t - 1], RELU)
        gadget_pos = []
        for q in range(n[t - 1]):
            for i in range(d):
                rows, biases = _product_gadget_rows(r_rows[q], s_rows[q, i])
                gadget_pos.append(g.add_units(rows, biases, RELU2))
        g.commit_stage()

        f_rows = g.identity_rows(new_f_pos) if new_f_pos is not None else None
        r_rows = g.identity_rows(new_r_pos) if new_r_pos is not None else None
        d_rows = np.zeros((n[t - 1], d, g.width))
        for k, pos in enumerate(gadget_pos):  # queued in (q, i) order
            # D_i f^(t-1)_q = 2 * product = (g1 + g2 - g3 - g4) / 2
            d_rows[k // d, k % d, pos] = 2.0 * _PROD_COMBINE

    du_rows = np.einsum("j,jiw->iw", w_in[depth - 1][0], d_rows)
    # final stage: x^2 = sigma2(x) + sigma2(-x) per component, then sum; the
    # biases are (c, -c) at c = 0.0
    g.begin_stage()
    for i in range(d):
        g.add_units(np.stack([du_rows[i], -du_rows[i]]), np.array([0.0, -0.0]), RELU2)
    g.commit_stage()
    built = g.finish(np.ones(2 * d), 0.0)
    _assert_bounds(built, depth + 3, d * (depth + 2) * arch.width, "gradient-norm net")
    return built


# ------------------------------------------------ prescribed shapes


def prescribe_architecture(d: int, n: int, nu: float) -> Architecture:
    """Depth/width prescription achieving the theoretical rate at n samples.

    Depth ceil(log2 d) + 3; width 4d * ceil(max(1, n^(1/(d+2+nu)) - 4))^d;
    all hidden layers ReLU^2, linear output.
    """
    d, n, nu = _as_int(d, "d", 1), _as_int(n, "n", 1), _as_real(nu, "nu")
    base = max(1.0, n ** (1.0 / (d + 2 + nu)) - 4.0)
    width = 4 * d * math.ceil(base) ** d
    depth = math.ceil(math.log2(d)) + 3
    dims = (d, *([width] * (depth - 1)), 1)
    acts = tuple([RELU2] * (depth - 1) + [IDENTITY])
    return Architecture(dims, acts)
