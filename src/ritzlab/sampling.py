"""Seeded uniform sampling on (0,1)^d and its boundary, and MC quadrature.

All randomness comes from the counter-based Philox generator (numpy's
Philox 4x64), keyed by (seed, stream tag), so every consumer can derive
independent reproducible streams and parallel chunking can reproduce the
sequential results.  The generator identity is recorded in reports.  The
quadrature (h1_error) integrates through the engine's span loop, _pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .networks import Network, _as_int, _pointwise, _row_sums
from .problems import Problem

RNG_ALGORITHM = "numpy.random.Philox(4x64), key=(seed, stream-tag)"

_TAG_DOMAIN = 0
_TAG_BOUNDARY = 1


def rng_stream(seed: int, tag: int = 0) -> np.random.Generator:
    """Independent reproducible stream for (seed, tag)."""
    seed, tag = _as_int(seed, "seed", 0), _as_int(tag, "tag")
    # a uint64 array: numpy casts a list key through float64 past 2**63 - 1
    key = np.array([seed % 2**64, tag % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _open_unit_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws in the open interval (0,1); exact zeros are redrawn."""
    x = rng.random(shape)
    zero = x == 0.0
    while np.any(zero):
        x[zero] = rng.random(int(zero.sum()))
        zero = x == 0.0
    return x


def _sample_shape(n, d, what: str, low: int = 1) -> tuple:
    """Counts (n >= low, d), refused by name past 2**27 coordinates (1 GiB), not
    by a MemoryError."""
    n, d = _as_int(n, what, low), _as_int(d, "d", 1)
    if n * d > 2**27:
        raise ValueError(f"{what} {n} x d {d}: sample too large, over 2**27 coordinates")
    return n, d


def sample_domain(n: int, d: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points strictly inside (0,1)^d, deterministic in seed."""
    n, d = _sample_shape(n, d, "n")
    return _open_unit_uniform(rng_stream(seed, _TAG_DOMAIN), (n, d))


def sample_boundary(m: int, d: int, seed: int) -> np.ndarray:
    """m uniform points on the boundary of (0,1)^d, as an (m, d) array.

    Every face has measure 1, so picking a face uniformly among the 2d faces
    and then a uniform point on it is the uniform distribution on the whole
    boundary.  A point's face is its one coordinate equal to 0.0 or 1.0.
    """
    m, d = _sample_shape(m, d, "m")
    rng = rng_stream(seed, _TAG_BOUNDARY)
    face = rng.integers(0, 2 * d, size=m)
    pts = _open_unit_uniform(rng, (m, d))
    pts[np.arange(m), face // 2] = face % 2
    return pts


@dataclass(frozen=True)
class SampleSet:
    """Seeded training samples: N interior points and M boundary points."""

    domain_points: np.ndarray
    boundary_points: np.ndarray

    def __post_init__(self):
        dp = np.asarray(self.domain_points, dtype=float)
        bp = np.asarray(self.boundary_points, dtype=float)
        if dp.ndim != 2 or bp.ndim != 2 or bp.shape[1] != dp.shape[1]:
            raise ValueError("domain and boundary points must be (n, d) arrays")
        if not np.all((dp > 0.0) & (dp < 1.0)):
            raise ValueError("domain points must be strictly interior")
        if not np.all((bp >= 0.0) & (bp <= 1.0)):
            raise ValueError("boundary points must lie in [0, 1]^d")
        if not np.all(np.count_nonzero((bp == 0.0) | (bp == 1.0), axis=1) == 1):
            raise ValueError("each boundary point must have exactly one coordinate "
                             "equal to 0 or 1 (a single face)")
        object.__setattr__(self, "domain_points", dp)
        object.__setattr__(self, "boundary_points", bp)

    def _rows(self, idx_domain, idx_boundary) -> "SampleSet":
        """These rows, unchecked: a row subset of a checked set keeps its geometry."""
        sub = object.__new__(SampleSet)
        sub.__dict__.update(domain_points=self.domain_points[idx_domain],
                            boundary_points=self.boundary_points[idx_boundary])
        return sub

    @property
    def d(self) -> int:
        return self.domain_points.shape[1]

    @property
    def n_domain(self) -> int:
        return self.domain_points.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_points.shape[0]


def make_sample_set(n_domain: int, n_boundary: int, d: int, seed: int) -> SampleSet:
    for name, n in (("n_domain", n_domain), ("n_boundary", n_boundary)):
        _sample_shape(n, d, name)
    return SampleSet(
        domain_points=sample_domain(n_domain, d, seed),
        boundary_points=sample_boundary(n_boundary, d, seed),
    )


class MCEstimate(NamedTuple):
    value: float
    std_error: float


def mc_mean(values, volume: float = 1.0) -> MCEstimate:
    """Plain Monte-Carlo mean over a region of the given volume, with its
    standard error: volume * mean and volume * std(ddof=1) / sqrt(n).

    Both are evaluated left to right, and the sums run in the fixed order of
    values, so results do not depend on how callers chunk their evaluations.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("need one value per point")
    if vals.size < 2:
        raise ValueError("need at least 2 points for a standard error")
    return MCEstimate(
        volume * float(np.mean(vals)),
        volume * float(np.std(vals, ddof=1)) / math.sqrt(vals.size),
    )


class H1ErrorReport(NamedTuple):
    """MC estimates of the L2, H1-seminorm and full H1 errors vs u*."""

    l2_err: float
    l2_err_se: float
    h1_semi_err: float
    h1_semi_err_se: float
    h1_err: float
    h1_err_se: float
    n_quad: int
    seed: int


def _sqrt_with_se(mean_sq: float, se_sq: float) -> tuple:
    root = float(np.sqrt(max(mean_sq, 0.0)))
    se = se_sq / (2.0 * root) if root > 0.0 else 0.0
    return root, se


def _check_input_dim(net: Network, p: Problem, samples: SampleSet | None = None) -> None:
    """Fail a net (or sample set) whose dimension is not the problem's, or a
    sample set without domain or boundary points, before any point is drawn or
    evaluated."""
    if net.architecture.input_dim != p.d or (samples is not None and samples.d != p.d):
        raise ValueError("input dimension does not match the problem")
    if samples is not None and (samples.n_domain == 0 or samples.n_boundary == 0):
        raise ValueError("sample set must contain domain and boundary points")


def h1_error(net: Network, p: Problem, n_quad: int, seed: int) -> H1ErrorReport:
    """MC estimate of ||u - u*|| in L2, H1-seminorm and H1 over (0,1)^d."""
    _check_input_dim(net, p)
    n_quad = _sample_shape(n_quad, p.d, "n_quad", 2)[0]  # the fewest points with an SE
    x = sample_domain(n_quad, p.d, seed)

    def integrand(xs, u, du):
        return (u - p.u_star(xs)) ** 2, _row_sums((du - p.grad_u_star(xs)) ** 2)

    e_sq, s_sq = _pointwise(net, x, integrand, 2)
    m_e, se_e = mc_mean(e_sq)
    m_s, se_s = mc_mean(s_sq)
    l2, l2_se = _sqrt_with_se(m_e, se_e)
    semi, semi_se = _sqrt_with_se(m_s, se_s)
    h1, h1_se = _sqrt_with_se(m_e + m_s, float(np.hypot(se_e, se_s)))
    return H1ErrorReport(l2, l2_se, semi, semi_se, h1, h1_se, n_quad, seed)
