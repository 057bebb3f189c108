"""Multilayer networks with ReLU / ReLU^2 / identity units and exact derivatives.

One weight-level representation serves both trained nets and exactly
constructed gadget nets.  Because every activation is piecewise polynomial,
input gradients and parameter sensitivities have closed-form layered
recursions; no general-purpose autodiff is involved.

Every pass is one block loop, _block_pass: it records each _CHUNK_ROWS-row
block's tape once, in block order on the calling thread, into a workspace
kept per thread, layer dims and block row count (_Workspace), so a short
last block fills one of its own size.  Input gradients come from one
reverse sweep over a tape of values and derivatives (_adjoint, seeded with
1, so started at the output row W_L), which costs about one value sweep at
any d; only a tape that _adjoint replays with gradient weights fills the
forward-mode input-Jacobian stacks.
Every domain integral runs through one span loop, _pointwise, one _block_pass
per span of whole blocks.  Activations have one in-place implementation
(_activate); mixed layers apply each tag's formula to its units through
per-unit masks.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import threading
from dataclasses import dataclass

import numpy as np

RELU = "relu"
RELU2 = "relu2"
IDENTITY = "identity"
ACTIVATION_TAGS = (RELU, RELU2, IDENTITY)

# Conventions, fixed once for the whole package:
#   relu'(0) = 0,  relu2'(x) = 2*max(0, x)  (continuous),  relu2''(0) = 0.
_FORMAT_HEADER = "ritzlab-network 1"


class DimensionMismatchError(ValueError):
    """Input or parameter shapes do not match the architecture."""


class NetworkFormatError(ValueError):
    """A serialized network file is malformed."""


def _normalize_layer_activation(spec, n_units: int):
    """Return a canonical per-layer activation spec: a tag, or a tuple of tags."""
    if isinstance(spec, str):
        if spec not in ACTIVATION_TAGS:
            raise ValueError(f"unknown activation tag {spec!r}")
        return spec
    tags = tuple(spec)
    for t in tags:
        if t not in ACTIVATION_TAGS:
            raise ValueError(f"unknown activation tag {t!r}")
    if len(tags) != n_units:
        raise DimensionMismatchError(
            f"per-unit activation list has length {len(tags)}, layer has {n_units} units"
        )
    if len(set(tags)) == 1:
        return tags[0]  # collapse homogeneous lists to the plain tag
    return tags


def _as_int(n, what: str, low: int | None = None, error: type = ValueError) -> int:
    """n as an int >= low (if given), else error naming `what`; int() alone would
    truncate 2.7, True or "3".  The one check for every count, level and seed."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise error(f"{what} {n!r} is not an integer")
    if low is not None and n < low:
        raise error(f"{what} must be >= {low}, got {n}")
    return operator.index(n)


def _as_real(x, what: str, low: float = 0.0, strict: bool = False, error: type = ValueError):
    """x unchanged when it is a finite real >= low (> low when strict), else
    error naming `what`; a bool is not a real here, as it is not an int for
    _as_int.  The one check for every finite-real range."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real) and math.isfinite(x)
                                   and (x > low if strict else x >= low)):
        raise error(f"{what} must be finite and {'>' if strict else '>='} {low:g}, got {x!r}")
    return x


@dataclass(frozen=True)
class Architecture:
    """Layer sizes N_0..N_L plus one activation spec per layer 1..L.

    An activation spec is a single tag applied component-wise, or a tuple of
    per-unit tags for mixed layers (needed by the exact gradient-norm
    construction, which places ReLU and ReLU^2 units side by side).
    The output layer is one identity unit: every net is a scalar map.
    """

    layer_dims: tuple
    activations: tuple

    def __post_init__(self):
        dims = tuple(_as_int(n, "layer dim", 1) for n in self.layer_dims)
        if len(dims) < 2:
            raise ValueError("need at least input and output layer dims")
        if dims[-1] != 1:
            raise DimensionMismatchError(f"output layer has {dims[-1]} units, need 1")
        if len(self.activations) != len(dims) - 1:
            raise DimensionMismatchError(
                f"{len(self.activations)} activation specs for {len(dims) - 1} layers"
            )
        acts = tuple(_normalize_layer_activation(a, n) for a, n in zip(self.activations, dims[1:]))
        if acts[-1] != IDENTITY:
            raise ValueError("output layer activation must be identity")
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "activations", acts)

    @property
    def depth(self) -> int:
        """Number of affine maps L (depth counts the output layer)."""
        return len(self.layer_dims) - 1

    @property
    def width(self) -> int:
        """Max layer dimension, input and output included."""
        return max(self.layer_dims)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_parameters(self) -> int:
        dims = self.layer_dims
        return sum(dims[k + 1] * dims[k] + dims[k + 1] for k in range(self.depth))

    def is_relu2_hidden(self) -> bool:
        """True when every hidden layer is homogeneous ReLU^2."""
        return all(a == RELU2 for a in self.activations[:-1])


@functools.lru_cache(maxsize=256)
def _unit_masks(spec: tuple):
    """(is ReLU, is ReLU^2) per unit of a mixed layer spec; the rest are identity."""
    tags = np.array(spec)
    return tags == RELU, tags == RELU2


def _layer_views(arch: Architecture, flat: np.ndarray):
    """Per-layer (weights, biases) views of a flat parameter vector.

    The one definition of the parameter order, shared by Network storage,
    parameter gradients and the file format: layer by layer, the weight
    matrix in row-major order, then that layer's bias vector.
    """
    ws, bs, pos = [], [], 0
    for n_in, n_out in zip(arch.layer_dims, arch.layer_dims[1:]):
        ws.append(flat[pos : pos + n_out * n_in].reshape(n_out, n_in))
        pos += n_out * n_in
        bs.append(flat[pos : pos + n_out])
        pos += n_out
    return ws, bs


class Network:
    """Immutable network of one architecture, stored as one flat vector theta.

    weights and biases are read-only per-layer views into theta, in the
    order of _layer_views.  Every constructor rejects non-finite parameters.
    """

    def __init__(self, architecture: Architecture, weights, biases):
        """Copy the per-layer arrays into a fresh theta."""
        if len(weights) != architecture.depth or len(biases) != architecture.depth:
            raise DimensionMismatchError("need one weight matrix and bias per layer")
        theta = np.empty(architecture.n_parameters)
        for k, views in enumerate(zip(*_layer_views(architecture, theta))):
            for kind, view, given in zip(("weight", "bias"), views, (weights[k], biases[k])):
                given = np.asarray(given, dtype=float)
                if given.shape != view.shape:
                    raise DimensionMismatchError(
                        f"layer {k + 1} {kind} shape {given.shape}, expected {view.shape}"
                    )
                view[...] = given
        self._bind(architecture, theta)

    def _bind(self, architecture: Architecture, theta: np.ndarray) -> None:
        if not np.isfinite(theta).all():
            raise ValueError("network has non-finite parameters")
        theta = theta.view()
        theta.flags.writeable = False
        self._arch = architecture
        self._theta = theta
        self._weights, self._biases = map(tuple, _layer_views(architecture, theta))

    @property
    def architecture(self) -> Architecture:
        return self._arch

    @property
    def weights(self) -> tuple:
        return self._weights

    @property
    def biases(self) -> tuple:
        return self._biases

    @property
    def n_parameters(self) -> int:
        return self._arch.n_parameters

    def flatten_parameters(self) -> np.ndarray:
        return self._theta.copy()

    def with_parameters(self, theta: np.ndarray) -> "Network":
        """Same-architecture network on a flat parameter vector.

        theta is bound without a copy: the network keeps read-only views of
        it, so the caller must not write into theta afterwards.
        """
        theta = np.asarray(theta, dtype=float)
        n_par = self._arch.n_parameters
        if theta.shape != (n_par,):
            raise DimensionMismatchError(
                f"parameter vector has shape {theta.shape}, expected ({n_par},)"
            )
        net = Network.__new__(Network)
        net._bind(self._arch, theta)
        return net


def _as_batch(net: Network, x) -> np.ndarray:
    """x as a finite real (B, d) batch of the net's input dim, else a named error."""
    if np.iscomplexobj(x):  # a cast to float would keep only the real part
        raise ValueError("x has a complex coordinate")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and net.architecture.input_dim == 1:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != net.architecture.input_dim:
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match input dim {net.architecture.input_dim}"
        )
    if not np.isfinite(x).all():
        raise ValueError("x has a non-finite coordinate")
    return x


# Rows per block of every network pass.  A block's per-layer arrays stay
# cache-sized, and a multiple of 256 keeps block edges on the GEMM kernels'
# row blocks: rows at an unaligned edge go through an edge kernel that rounds
# differently from an unblocked product.
_CHUNK_ROWS = 256
# Workspaces kept per thread, least recently used dropped first.
_WORKSPACE_ENTRIES = 4
_workspaces = threading.local()


def _stack(n_units: int, rows: int, d: int) -> np.ndarray:
    """Empty (n_units, rows, d) Jacobian stack, point-major in memory when d == 1:
    BLAS rounds by operand orientation, and that layout keeps d = 1 results
    bitwise those of a batch-major (rows, n_units, 1) recursion."""
    if d == 1:
        return np.empty((rows, n_units, 1)).transpose(1, 0, 2)
    return np.empty((n_units, rows, d))


def _batch(stack: np.ndarray) -> np.ndarray:
    """The (rows * d, n_units) batch view of an (n_units, rows, d) stack."""
    return stack.reshape(stack.shape[0], -1, copy=False).T


class _Workspace:
    """Every array of one block's forward tape and reverse pass, for one
    (layer dims, rows).

    The tape holds, per layer l = 1..L, the value f_l and the derivative
    f'_l = act'(z_l), each (rows, N_l), and, when a pass records them
    (_block_pass), the input Jacobians P_l = A_l G_{l-1} and
    G_l = f'_l * P_l.  Every pass of one block shape uses the same
    workspace, so a training step and its checkpoints share one entry; a
    pass that records no Jacobians writes no stack, and the stacks'
    untouched np.empty pages take no resident memory.  lam[0], (rows, d),
    receives that sweep's grad u.  fs[0] is the block's input, gs[0] the
    identity.  Each Jacobian stack (ps, gs, q, mat) is one unit-major
    (N_l, rows, d) array, multiplied on its batch view (_batch).  P_1 = W_1,
    so ps[0] is the view W_1[:, None, :], set by each pass and dropped by
    release_input.  fpt holds each f'_l unit-major, (N_l, rows): at d = 1 the
    view fps[l].T, else the memory of d2[l], which _adjoint overwrites only
    after its last read of f'_l.  The other lists are scratch of _adjoint.
    Every buffer is allocated with exactly `rows` rows, and P_l and mat are
    C-ordered like a fresh w @ G while G_l and q follow _stack, so every
    value is bitwise that of freshly allocated arrays.  A pass fills one
    workspace of its own thread per block row count (_workspace), so passes
    that callers run from several threads never share one.
    """

    def __init__(self, dims: tuple, rows: int):
        units = dims[1:]

        def rows_by(ns):
            return [np.empty((rows, n)) for n in ns]

        d = self.d = dims[0]
        self.fs = [None, *rows_by(units)]
        self.fps, self.delta = rows_by(units), rows_by(units)
        self.lam = rows_by(dims[:-1])
        self.gw = [np.empty((n_out, n_in)) for n_in, n_out in zip(dims, units)]
        self.d2 = rows_by(units)
        self.s = [np.empty((n, rows)) for n in units]
        self.fpt = ([fp.T for fp in self.fps] if d == 1 else
                    [a.reshape(n, rows, copy=False) for n, a in zip(units, self.d2)])
        self.ps = [None, *(np.empty((n, rows, d)) for n in units[1:])]
        eye = np.broadcast_to(np.eye(d), (rows, d, d)).transpose(1, 0, 2)
        self.gs = [eye.reshape(d, rows * d).reshape(eye.shape),  # a view at d = 1
                   *(_stack(n, rows, d) for n in units)]
        self.q = [_stack(n, rows, d) for n in units]
        self.mat = [None, *(np.empty((n, rows, d)) for n in units[:-1])]

    def release_input(self) -> None:
        """Drop the tape's references to the caller's points and to W_1."""
        self.fs[0] = self.ps[0] = None


def _workspace(dims: tuple, rows: int) -> _Workspace:
    """This thread's workspace for the block shape, allocated on first use only."""
    cache = _workspaces.__dict__.setdefault("lru", {})
    key = (dims, rows)
    ws = cache.pop(key, None) or _Workspace(*key)
    cache[key] = ws
    if len(cache) > _WORKSPACE_ENTRIES:
        del cache[next(iter(cache))]
    return ws


def _activate(spec, f: np.ndarray, fp: np.ndarray | None) -> None:
    """f = act(z) and, unless fp is None, fp = act'(z), in place of f = z.

    ReLU^2 takes max(z, 0) once for both; max(z, 0) > 0 exactly when z > 0.
    A mixed spec applies the same formulas to the units of each tag through
    where= masks (_unit_masks), so every element gets the ufunc of its tag on
    the same operand.
    """
    if spec == RELU2:
        zp = np.maximum(f, 0.0, out=f if fp is None else fp)
        np.multiply(zp, zp, out=f)
        if fp is not None:
            fp *= 2.0
    elif spec == RELU:
        np.maximum(f, 0.0, out=f)
        if fp is not None:
            np.greater(f, 0.0, out=fp)
    elif spec == IDENTITY:
        if fp is not None:
            fp.fill(1.0)
    else:
        relu, relu2 = _unit_masks(spec)
        zp = np.maximum(f, 0.0)
        np.copyto(f, zp, where=relu)
        np.multiply(zp, zp, out=f, where=relu2)
        if fp is not None:
            fp.fill(1.0)
            np.greater(zp, 0.0, out=fp, where=relu)
            np.multiply(zp, 2.0, out=fp, where=relu2)


def _second_derivative(spec, fp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """act''(z) written into out, read off fp = act'(z): at a ReLU^2 unit,
    fp > 0 exactly when z > 0 (a NaN gives 0 either way)."""
    if spec == RELU2:
        np.greater(fp, 0.0, out=out)
        out *= 2.0
    elif isinstance(spec, str):
        out.fill(0.0)
    else:
        out.fill(0.0)
        np.greater(fp, 0.0, out=out, where=_unit_masks(spec)[1])
        out *= 2.0
    return out


def _layer_product(a: np.ndarray, w: np.ndarray, out: np.ndarray,
                   reverse: bool = False) -> None:
    """out = a @ w.T, or a @ w when reverse: the one product of a layer with a
    batch a of rows.  An inner size of 1 is one product per element, as in its
    GEMM.  On a stack's batch view (_batch) numpy issues the same GEMM as for
    the unit-major w @ G.
    """
    m = w if reverse else w.T
    if m.shape[0] == 1:
        np.multiply(a, m, out=out)
    else:
        np.matmul(a, m, out=out)


def _forward_caches(net: Network, x: np.ndarray, ws: _Workspace, derivatives: bool,
                    jacobians: bool, biases: list) -> None:
    """Record one block's forward tape into ws (see _Workspace).

    x has as many rows as ws.  Each z_l is formed in f_l's buffer by _layer_product
    plus the leading rows of its bias row or tile, and activated in place.
    derivatives records the f'_l, which _adjoint reads; jacobians (which needs
    them) also records the input Jacobians.  Layer 1 runs no Jacobian product
    (P_1 = W_1), every other layer one dense _layer_product on the stacks'
    batch views, and each G_l = f'_l * P_l is formed one d-component at a
    time on (N_l, rows) views along rows.
    """
    ws.fs[0] = x
    for k, (spec, w, bias) in enumerate(zip(net.architecture.activations, net.weights, biases)):
        z = ws.fs[k + 1]  # the pre-activation, activated in place
        _layer_product(ws.fs[k], w, z)
        z += bias[:len(z)]
        _activate(spec, z, ws.fps[k] if derivatives else None)
        if jacobians:
            if k:
                _layer_product(_batch(ws.gs[k]), w, _batch(ws.ps[k]))
            else:
                ws.ps[0] = w[:, None, :]
            fpt, p, g = ws.fpt[k], ws.ps[k], ws.gs[k + 1]
            if ws.d > 1:
                np.copyto(fpt, ws.fps[k].T)
            for i in range(ws.d):
                np.multiply(fpt, p[..., i], out=g[..., i])


def _block_pass(net: Network, x: np.ndarray, input_gradients: bool = False, seeds=None):
    """The one loop of every network pass: one forward tape per block, in
    block order on the calling thread, each in this thread's workspace for
    its row count (_workspace), released (release_input) as the block ends.

    Input gradients come from the tape's Jacobian stacks when seeds is given
    (its gradient weights replay them), else from the reverse sweep of
    _adjoint seeded with 1.  Values and input gradients are copied out of
    each block's workspace; seeds(lo, hi, values, gradients) -> (value
    weights, gradient weights or None) then seeds _adjoint's replay of the
    tape, and may not run a pass.  Returns (values (B,), input gradients
    (B, d) or None, parameter gradient or None).
    """
    arch = net.architecture
    n = x.shape[0]
    vals = np.empty(n)
    grads = np.empty((n, arch.input_dim)) if input_gradients else None
    grad = None
    if seeds is not None:
        grad = np.zeros(net.n_parameters)
        grad_w, grad_b = _layer_views(arch, grad)
    derivatives = input_gradients or seeds is not None
    jacobians = input_gradients and seeds is not None
    # a tile adds as one flat loop, a broadcast row as one loop per row; one block keeps the row
    biases = [np.tile(b, (_CHUNK_ROWS, 1)) if n > _CHUNK_ROWS else b[None] for b in net.biases]
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        tape = _workspace(arch.layer_dims, hi - lo)
        try:
            _forward_caches(net, x[lo:hi], tape, derivatives, jacobians, biases)
            vals[lo:hi] = tape.fs[-1][:, 0]
            if input_gradients:
                grads[lo:hi] = tape.gs[-1][0] if jacobians else _adjoint(net, tape)
            if seeds is not None:
                v, m = seeds(lo, hi, vals[lo:hi], None if grads is None else grads[lo:hi])
                _adjoint(net, tape, v[:, None], None if m is None else m[None], grad_w, grad_b)
        finally:
            tape.release_input()
    return vals, grads, grad


# Points per integrand call of _pointwise, a whole number of blocks: each
# span's pass then runs the blocks a pass over the whole sample would.
_SPAN_ROWS = 16 * _CHUNK_ROWS


def _pointwise(net: Network, x: np.ndarray, integrand, n_rows: int) -> np.ndarray:
    """Row k holds row k of integrand(xs, u, grad u) at every point of the checked
    (n >= 1, d) batch x: it maps a span's points xs, with the net's values u and
    input gradients there, to n_rows arrays of one value per point, computed once
    per span.  Every domain integral runs its spans of _SPAN_ROWS points one by one
    on the calling thread, each one _block_pass, so only x and the result are full-size."""
    out = np.empty((n_rows, x.shape[0]))
    for lo in range(0, x.shape[0], _SPAN_ROWS):
        xs = x[lo:lo + _SPAN_ROWS]
        u, du, _ = _block_pass(net, xs, input_gradients=True)
        out[:, lo:lo + xs.shape[0]] = integrand(xs, u, du)
    return out


def _row_sums(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=1) bitwise for an (n, d) array, at a twentieth of its cost at d < 8."""
    if a.shape[1] >= 8 or len(a) == 1:  # pairwise from 8 terms; a lone row's NaN signs differ
        return np.sum(a, axis=1)
    out = a[:, 0] + 0.0  # fewer are added in order onto +0.0: -0.0 rows sum to +0.0
    for i in range(1, a.shape[1]):
        out += a[:, i]
    return out


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Network values at a batch of points, shape (B, d) -> (B,).

    Rows are pushed through in _CHUNK_ROWS-row blocks on a reused workspace,
    so a large batch allocates nothing but its result.
    """
    return _block_pass(net, _as_batch(net, x))[0]


def _finite_on_unit_cube(net: Network) -> bool:
    """Whether interval bound propagation (Gowal et al., 2018) certifies u finite on
    [0, 1]^d: from b_0 = 1, |f_l| <= b_l = max(beta, beta^2), beta = |W_l| b_{l-1} +
    |bias_l|, and each b_l <= 1e300 leaves 1e8 for the rounding of a pass."""
    b = np.ones(net.architecture.input_dim)
    with np.errstate(over="ignore"):
        for w, bias in zip(net.weights, net.biases):
            beta = np.abs(bias) + np.abs(w) @ b
            b = np.maximum(beta, beta * beta)
            if not b.max() <= 1e300:
                return False
    return True


def values_and_input_gradients(net: Network, x: np.ndarray):
    """Batched (values, input gradients), in _CHUNK_ROWS-row blocks."""
    return _block_pass(net, _as_batch(net, x), input_gradients=True)[:2]


def _sum_of_products(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """np.sum(a * b, axis=2) written into out for stacks (N, B, d); out is (N, B)
    and scratch, shaped like a, holds the products.

    For small d the d products are accumulated one (N, B) array at a time along B,
    at a tenth of the cost of a length-d reduction.  Bitwise, except that a row of
    -0.0 products sums to -0.0 here and to +0.0 in np.sum, which starts at +0.0.
    """
    if a.shape[2] >= 8:
        return np.sum(np.multiply(a, b, out=scratch), axis=2, out=out)
    np.multiply(a[..., 0], b[..., 0], out=out)
    for i in range(1, a.shape[2]):
        out += np.multiply(a[..., i], b[..., i], out=scratch[..., i])
    return out


def _adjoint(net: Network, tape: _Workspace, lam=None, mat=None, grad_w: list | None = None,
             grad_b: list | None = None) -> np.ndarray:
    """Reverse pass over one block's forward tape, lam <- (lam * f'_l) W_l.

    tape is the workspace filled by _forward_caches, with derivatives; lam
    (B, 1) seeds d/du and mat (1, B, d), when not None, seeds d/d(grad u).
    With grad_w/grad_b (per-layer views of one flat gradient, from
    _layer_views) the parameter derivatives are accumulated into them and
    nothing is propagated below layer 1, since the input layer has no
    parameters.  Without them the sweep runs on through W_1 and returns
    d(lam u)/dx, (B, d), in the workspace buffer lam[0].  lam None is the
    input gradient of u, lam = 1: the identity output gives 1 * f'_L W_L =
    W_L exactly, so that sweep starts at layer L - 1 from the (1, N_{L-1})
    row W_L, and a net with no hidden layer returns W_1's (1, d) row, which
    broadcasts over the block.  The lam and mat products are _layer_product.
    The tape must carry the input Jacobians whenever mat is given; mat is a
    unit-major (N_l, B, d) stack like those of the tape, and every temporary
    is a workspace buffer.
    """
    t = tape
    accumulate = grad_w is not None
    layers = list(zip(net.architecture.activations, net.weights))
    top = len(layers)
    if lam is None:
        top -= 1
        lam = layers[top][1]
    for k in range(top - 1, -1, -1):
        spec, w = layers[k]
        delta = np.multiply(lam, t.fps[k], out=t.delta[k])
        gw = t.gw[k]
        if mat is not None:
            # z_k also enters G_k through act'(z_k); d2 carries that path
            s = _sum_of_products(mat, t.ps[k], t.s[k], t.q[k])
            for i in range(t.d):  # the last read of fpt[k], before d2[k] is written
                np.multiply(t.fpt[k], mat[..., i], out=t.q[k][..., i])
            d2 = _second_derivative(spec, t.fps[k], t.d2[k])
            d2 *= s.T
            delta += d2
            grad_w[k] += np.matmul(_batch(t.q[k]).T, _batch(t.gs[k]), out=gw)
            if k:
                mat = t.mat[k]
                _layer_product(_batch(t.q[k]), w, _batch(mat), reverse=True)
        if accumulate:
            grad_w[k] += np.matmul(delta.T, t.fs[k], out=gw)
            grad_b[k] += delta.sum(axis=0)
        if k or not accumulate:
            lam = t.lam[k]
            _layer_product(delta, w, lam, reverse=True)
    return lam


def weighted_parameter_gradient(net: Network, x: np.ndarray,
                                value_weights: np.ndarray) -> np.ndarray:
    """sum_b v_b * du(x_b)/dphi over a batch, as a flat vector in the documented
    parameter order, by the exact adjoint behind the Ritz loss gradient too
    (_adjoint; exact for the piecewise-polynomial activations used here)."""
    x = _as_batch(net, x)
    v = np.asarray(value_weights, dtype=float)
    if v.shape != (x.shape[0],):
        raise DimensionMismatchError("value_weights must have one entry per point")
    return _block_pass(net, x, seeds=lambda lo, hi, _vals, _grads: (v[lo:hi], None))[2]


def _activation_spec_to_line(spec) -> str:
    if isinstance(spec, str):
        return spec
    return "mixed " + " ".join(spec)


def save_network(net: Network, path) -> None:
    """Write the structured text format (round-trips doubles bit-exactly)."""
    lines = [_FORMAT_HEADER]
    lines.append("dims " + " ".join(str(n) for n in net.architecture.layer_dims))
    for spec in net.architecture.activations:
        lines.append("activation " + _activation_spec_to_line(spec))
    theta = net.flatten_parameters()
    lines.append(f"parameters {theta.size}")
    lines.extend(repr(float(t)) for t in theta)
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> Network:
    """Read a file written by save_network; any malformed file raises NetworkFormatError."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]

    def line(k: int) -> str:
        if k >= len(lines):
            raise NetworkFormatError(f"file ends after {len(lines)} lines")
        return lines[k]

    if line(0) != _FORMAT_HEADER:
        raise NetworkFormatError("missing or unknown format header")
    if not line(1).startswith("dims "):
        raise NetworkFormatError("expected dims line")
    try:
        dims = tuple(int(tok) for tok in lines[1].split()[1:])
    except ValueError as exc:
        raise NetworkFormatError(f"malformed dims line: {lines[1]}") from exc
    n_layers = len(dims) - 1
    acts = []
    for k in range(n_layers):
        ln = line(2 + k)
        toks = ln.split()[1:]
        if not ln.startswith("activation") or not toks:
            raise NetworkFormatError(f"expected activation line for layer {k + 1}")
        if toks[0] == "mixed":
            acts.append(tuple(toks[1:]))
        elif len(toks) == 1:
            acts.append(toks[0])
        else:
            raise NetworkFormatError(f"malformed activation line: {ln}")
    try:
        arch = Architecture(dims, tuple(acts))
    except ValueError as exc:
        raise NetworkFormatError(f"invalid architecture: {exc}") from exc
    hdr = line(2 + n_layers)
    if not hdr.startswith("parameters "):
        raise NetworkFormatError("expected parameters count line")
    try:
        n_par = int(hdr.split()[1])
    except ValueError as exc:
        raise NetworkFormatError(f"malformed parameters count line: {hdr}") from exc
    if n_par != arch.n_parameters:
        raise NetworkFormatError(
            f"file declares {n_par} parameters, architecture needs {arch.n_parameters}"
        )
    body = lines[3 + n_layers : 3 + n_layers + n_par]
    if len(body) != n_par or line(3 + n_layers + n_par) != "end":
        raise NetworkFormatError("truncated parameter block")
    try:
        return Network(arch, *_layer_views(arch, np.array([float(tok) for tok in body])))
    except ValueError as exc:
        raise NetworkFormatError(f"invalid parameter block: {exc}") from exc
