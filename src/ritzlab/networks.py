"""Multilayer networks with ReLU / ReLU^2 / identity units and exact derivatives.

One weight-level representation serves both trained nets and exactly
constructed gadget nets.  Because every activation is piecewise polynomial,
input gradients and parameter sensitivities have closed-form layered
recursions; no general-purpose autodiff is involved.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class Architecture:
    """Layer sizes N_0..N_L plus one activation spec per layer 1..L.

    An activation spec is a single tag applied component-wise, or a tuple of
    per-unit tags for mixed layers (needed by the exact gradient-norm
    construction, which places ReLU and ReLU^2 units side by side).
    The final layer must be identity (affine output).
    """

    layer_dims: tuple
    activations: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.layer_dims)
        if len(dims) < 2:
            raise ValueError("need at least input and output layer dims")
        if any(n <= 0 for n in dims):
            raise ValueError("layer dims must be positive")
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
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_parameters(self) -> int:
        dims = self.layer_dims
        return sum(dims[k + 1] * dims[k] + dims[k + 1] for k in range(self.depth))

    def is_relu2_hidden(self) -> bool:
        """True when every hidden layer is homogeneous ReLU^2."""
        return all(a == RELU2 for a in self.activations[:-1])


@functools.lru_cache(maxsize=256)
def _act_tables(spec):
    """(value, first, second) derivative callables for one layer spec, built
    once and shared by every net with that spec (a mixed spec fixes the width)."""
    if isinstance(spec, str):
        if spec == RELU:
            return (
                lambda z: np.maximum(z, 0.0),
                lambda z: (z > 0.0).astype(float),
                lambda z: np.zeros_like(z),
            )
        if spec == RELU2:
            def val(z):
                zp = np.maximum(z, 0.0)
                return zp * zp

            return (
                val,
                lambda z: 2.0 * np.maximum(z, 0.0),
                lambda z: 2.0 * (z > 0.0),
            )
        return (lambda z: z, lambda z: np.ones_like(z), lambda z: np.zeros_like(z))

    tags = np.array(spec)
    is_relu = tags == RELU
    is_relu2 = tags == RELU2

    def val(z):
        out = z.copy()
        zp = np.maximum(z, 0.0)
        out[..., is_relu] = zp[..., is_relu]
        out[..., is_relu2] = (zp * zp)[..., is_relu2]
        return out

    def d1(z):
        out = np.ones_like(z)
        out[..., is_relu] = (z[..., is_relu] > 0.0).astype(float)
        out[..., is_relu2] = 2.0 * np.maximum(z[..., is_relu2], 0.0)
        return out

    def d2(z):
        out = np.zeros_like(z)
        out[..., is_relu2] = 2.0 * (z[..., is_relu2] > 0.0)
        return out

    return val, d1, d2


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
        self._acts = tuple(_act_tables(spec) for spec in architecture.activations)

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

    @classmethod
    def _from_parameters(cls, architecture: Architecture, theta) -> "Network":
        """Network of the given architecture on a flat parameter vector.

        theta is bound without a copy: the network keeps read-only views of
        it, so the caller must not write into theta afterwards.
        """
        theta = np.asarray(theta, dtype=float)
        n_par = architecture.n_parameters
        if theta.shape != (n_par,):
            raise DimensionMismatchError(
                f"parameter vector has shape {theta.shape}, expected ({n_par},)"
            )
        net = cls.__new__(cls)
        net._bind(architecture, theta)
        return net

    def with_parameters(self, theta: np.ndarray) -> "Network":
        """Same-architecture network on theta, bound as in _from_parameters."""
        return Network._from_parameters(self._arch, theta)


@dataclass(frozen=True)
class EvalResult:
    """Value and exact input gradient of a scalar network at one point."""

    value: float
    input_gradient: np.ndarray


def _as_batch(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and net.architecture.input_dim == 1:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != net.architecture.input_dim:
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match input dim {net.architecture.input_dim}"
        )
    return x


def _forward_chunk_size(net: Network) -> int:
    """Rows per forward_batch chunk: each layer's values stay near 32 MB.

    A multiple of 256 rows, so chunk edges fall on the GEMM kernels' row
    blocks: rows at an unaligned edge go through an edge kernel that rounds
    differently from an unchunked product.
    """
    return max(4_000_000 // net.architecture.width // 256, 1) * 256


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Network values at a batch of points, shape (B, d) -> (B,) for scalar nets.

    Rows are pushed through in chunks, so a large batch's per-layer
    temporaries stay the size of one chunk.
    """
    x = _as_batch(net, x)
    n = x.shape[0]
    out = np.empty((n, net.architecture.output_dim))
    chunk = _forward_chunk_size(net)
    for lo in range(0, n, chunk):
        f = x[lo : lo + chunk]
        for (val, _, _), w, b in zip(net._acts, net.weights, net.biases):
            f = val(f @ w.T + b)
        out[lo : lo + chunk] = f
    if net.architecture.output_dim == 1:
        return out[:, 0]
    return out


def forward(net: Network, x) -> float:
    """Scalar network value at a single point."""
    if net.architecture.output_dim != 1:
        raise DimensionMismatchError("forward() expects a scalar-output network")
    return float(forward_batch(net, x)[0])


def _jacobian_matmul(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a (n_out, n_in) applied to a unit-major stack g (n_in, B, d) as one GEMM.

    The batch is folded into matrix columns by a free reshape, so the weight
    matrix streams through BLAS once instead of once per point.
    """
    n_in, b, d = g.shape
    return (a @ g.reshape(n_in, b * d)).reshape(a.shape[0], b, d)


def _stack(n_units: int, b: int, d: int) -> np.ndarray:
    """Empty (n_units, b, d) Jacobian stack; point-major in memory when d == 1.

    A d = 1 stack's GEMM view (n_units, b) is then F-ordered, the operand
    orientation of a batch-major (b, n_units, 1) recursion.  BLAS rounds by
    orientation, so this keeps d = 1 results bitwise those of that recursion.
    """
    if d == 1:
        return np.empty((b, n_units, 1)).transpose(1, 0, 2)
    return np.empty((n_units, b, d))


def _forward_caches(net: Network, x: np.ndarray, need_input_gradient: bool):
    """Run the layered recursion keeping per-layer caches.

    Returns (fs, zs, ps, gs): post-activations f_0..f_L and pre-activations
    z_1..z_L, each (B, N_l), and, when requested, the pre/post activation
    input Jacobians P_l = A_l G_{l-1} and G_l = act'(z_l) * P_l, stored
    unit-major as (N_l, B, d).  In that layout a stack's GEMM operand is the
    free view reshape(N_l, B*d), so each layer's Jacobian product is one GEMM
    with no copy.  For d = 1 the G_l are point-major in memory (_stack): BLAS
    rounds the scalar-output products by operand orientation, and that layout
    keeps d = 1 results bitwise those of a batch-major (B, N_l, d) recursion.
    """
    b_sz, d = x.shape
    fs = [x]
    zs = []
    ps = [] if need_input_gradient else None
    gs = None
    if need_input_gradient:
        gs = [np.broadcast_to(np.eye(d), (b_sz, d, d)).transpose(1, 0, 2)]
    for (val, d1, _), w, bias in zip(net._acts, net.weights, net.biases):
        z = fs[-1] @ w.T + bias
        zs.append(z)
        fs.append(val(z))
        if need_input_gradient:
            p = _jacobian_matmul(w, gs[-1])
            ps.append(p)
            gs.append(np.multiply(d1(z).T[:, :, None], p, out=_stack(w.shape[0], b_sz, d)))
    return fs, zs, ps, gs


def _gradient_chunk_size(net: Network) -> int:
    """Cap chunks so per-layer Jacobian caches stay near 32 MB for wide nets."""
    per_point = max(net.architecture.width * net.architecture.input_dim, 1)
    return int(np.clip(4_000_000 // per_point, 64, 32768))


def values_and_input_gradients(net: Network, x: np.ndarray):
    """Batched (values, input gradients) for a scalar net; chunked over the batch."""
    x = _as_batch(net, x)
    if net.architecture.output_dim != 1:
        raise DimensionMismatchError("expects a scalar-output network")
    chunk = _gradient_chunk_size(net)
    n = x.shape[0]
    vals = np.empty(n)
    grads = np.empty((n, net.architecture.input_dim))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        fs, _, _, gs = _forward_caches(net, x[lo:hi], need_input_gradient=True)
        vals[lo:hi] = fs[-1][:, 0]
        grads[lo:hi] = gs[-1][0]
    return vals, grads


def forward_with_input_gradient(net: Network, x) -> EvalResult:
    """Value and exact gradient of the piecewise-polynomial net at one point."""
    xb = _as_batch(net, x)
    vals, grads = values_and_input_gradients(net, xb)
    return EvalResult(value=float(vals[0]), input_gradient=grads[0].copy())


def _sum_of_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a * b, axis=2), bitwise, for stacks with a short last axis.

    numpy adds fewer than 8 terms in order, so for small d the d products are
    accumulated one whole-array add at a time; a reduction over a length-d
    axis costs about ten times as much.
    """
    if a.shape[2] >= 8:
        return np.sum(a * b, axis=2)
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[2]):
        out += a[..., i] * b[..., i]
    return out


def _adjoint(net: Network, tape, lam: np.ndarray, mat, grad_w: list, grad_b: list) -> None:
    """Reverse pass over one chunk's forward tape, accumulated into grad_w/grad_b
    (per-layer views of one flat gradient, from _layer_views).

    tape is the (fs, zs, ps, gs) of _forward_caches; lam (B, 1) seeds d/du and
    mat (1, B, d), when not None, seeds d/d(grad u).  The tape must carry the
    input Jacobians whenever mat is given.  mat is carried in the tape's
    unit-major (N_l, B, d) layout, so its products with the stored G_l are
    GEMMs on free (N_l, B*d) views; the d = 1 stacks it forms are point-major
    in memory, as in _stack, for the same bitwise reason.  Nothing is
    propagated below layer 1, since the input layer has no parameters.
    """
    fs, zs, ps, gs = tape
    b_sz = fs[0].shape[0]
    for k in range(net.architecture.depth - 1, -1, -1):
        _, d1f, d2f = net._acts[k]
        w = net.weights[k]
        d1 = d1f(zs[k])
        delta = lam * d1
        if mat is not None:
            # z_k also enters G_k through act'(z_k); d2 carries that path
            delta = delta + d2f(zs[k]) * _sum_of_products(mat, ps[k]).T
            n_q, _, dd = mat.shape
            q = np.multiply(d1.T[:, :, None], mat, out=_stack(n_q, b_sz, dd))
            q_mat = q.reshape(n_q, b_sz * dd)
            grad_w[k] += q_mat @ gs[k].reshape(w.shape[1], b_sz * dd).T
            if k:
                mat = _jacobian_matmul(w.T, q)
        grad_w[k] += delta.T @ fs[k]
        grad_b[k] += delta.sum(axis=0)
        if k:
            lam = delta @ w


def weighted_parameter_gradient(
    net: Network,
    x: np.ndarray,
    value_weights: np.ndarray,
    gradient_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact adjoint accumulation of parameter derivatives over a batch.

    Returns sum_b [ v_b * du(x_b)/dphi + sum_i m_{b,i} * d(D_i u)(x_b)/dphi ]
    as a flat vector in the documented parameter order.  Its reverse pass,
    _adjoint, is the one behind both parameter_sensitivities and the Ritz
    loss gradient; exact for the piecewise-polynomial activations used here.
    """
    x = _as_batch(net, x)
    v = np.asarray(value_weights, dtype=float)
    if v.shape != (x.shape[0],):
        raise DimensionMismatchError("value_weights must have one entry per point")
    m = None
    if gradient_weights is not None:
        m = np.asarray(gradient_weights, dtype=float)
        if m.shape != (x.shape[0], net.architecture.input_dim):
            raise DimensionMismatchError("gradient_weights must be (B, d)")

    def seeds(lo, hi, _vals, _grads):
        return v[lo:hi], None if m is None else m[lo:hi]

    return _values_and_seeded_adjoint(net, x, seeds, m is not None)[2]


def _values_and_seeded_adjoint(net: Network, x: np.ndarray, seeds, need_input_gradient: bool):
    """Values, input gradients and a weighted parameter gradient from ONE tape per chunk.

    For each chunk the forward tape is recorded once; its values and (when
    need_input_gradient) input gradients are handed to
    seeds(lo, hi, values, gradients) -> (value_weights, gradient_weights or
    None), and the adjoint replays the same tape.  The tape is dropped before
    the next chunk.  Chunks are those of values_and_input_gradients, and the
    summation order is fixed, so the values and input gradients are bitwise
    those of values_and_input_gradients.
    Returns (values (B,), input gradients (B, d) or None, flat gradient).
    """
    if net.architecture.output_dim != 1:
        raise DimensionMismatchError("expects a scalar-output network")
    n = x.shape[0]
    vals = np.empty(n)
    grads = np.empty((n, net.architecture.input_dim)) if need_input_gradient else None
    grad = np.zeros(net.n_parameters)
    grad_w, grad_b = _layer_views(net.architecture, grad)
    chunk = _gradient_chunk_size(net)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        tape = _forward_caches(net, x[lo:hi], need_input_gradient)
        vals[lo:hi] = tape[0][-1][:, 0]
        if need_input_gradient:
            grads[lo:hi] = tape[3][-1][0]
        v, m = seeds(lo, hi, vals[lo:hi], grads[lo:hi] if need_input_gradient else None)
        _adjoint(net, tape, v[:, None], None if m is None else m[None], grad_w, grad_b)
        del tape
    return vals, grads, grad


def parameter_sensitivities(net: Network, x):
    """Exact derivatives of u(x) and of each input-gradient component w.r.t. phi.

    Returns (du_dphi, dgrad_dphi) with shapes (P,) and (d, P), flattened in
    the documented parameter order.
    """
    xb = _as_batch(net, x)
    d = net.architecture.input_dim
    du = weighted_parameter_gradient(net, xb, np.ones(1))
    dgrad = np.empty((d, net.n_parameters))
    for i in range(d):
        e = np.zeros((1, d))
        e[0, i] = 1.0
        dgrad[i] = weighted_parameter_gradient(net, xb, np.zeros(1), e)
    return du, dgrad


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
        return Network._from_parameters(arch, np.array([float(tok) for tok in body]))
    except ValueError as exc:
        raise NetworkFormatError(f"invalid parameter block: {exc}") from exc
