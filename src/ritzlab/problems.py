"""Manufactured Neumann problems on the unit hypercube (0,1)^d.

Each problem fixes an exact solution u*, a coefficient w bounded below by
c1 > 0, the forcing f = -lap(u*) + w u*, and the boundary flux g = du*/dn,
together with analytic reference quantities used as oracles by tests and
studies.  The geometry is hard-coded: |Omega| = 1 and |boundary| = 2d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .networks import _as_int, _row_sums


@dataclass(frozen=True)
class Problem:
    """A manufactured elliptic Neumann problem.

    Evaluators are vectorized: each callable maps an (n, d) array of points
    to (n,) values (the gradient to (n, d)); g is evaluated on boundary
    points, whose face is their one coordinate equal to 0.0 or 1.0.  Every
    callable is row-wise (each output row depends only on its input row), so
    the estimators may call it span by span.
    """

    name: str
    d: int
    w: Callable
    f: Callable
    g: Callable
    u_star: Callable
    grad_u_star: Callable
    c1: float
    c2: float
    c3: float
    w_sup: float
    analytic_energy: float | None = None
    analytic_h1_norm_sq: float | None = None


def make_cosine_problem(d: int) -> Problem:
    """u*(x) = sum_i cos(pi x_i) with w = 1; the flux g vanishes identically."""
    d = _as_int(d, "d", 1)
    pi = math.pi

    def u_star(x):
        return _row_sums(np.cos(pi * np.atleast_2d(x)))

    def grad_u_star(x):
        return -pi * np.sin(pi * np.atleast_2d(x))

    def w(x):
        return np.ones(np.atleast_2d(x).shape[0])

    def f(x):
        return (pi**2 + 1.0) * u_star(x)

    def g(points):
        return np.zeros(np.atleast_2d(points).shape[0])

    # int cos^2(pi t) dt = 1/2 on (0,1); cross terms vanish
    energy = -(pi**2 + 1.0) * d / 4.0
    h1_sq = d / 2.0 + d * pi**2 / 2.0
    h2_sq = h1_sq + d * pi**4 / 2.0
    return Problem(
        name="cosine",
        d=d,
        w=w,
        f=f,
        g=g,
        u_star=u_star,
        grad_u_star=grad_u_star,
        c1=1.0,
        c2=math.sqrt(h2_sq),
        c3=(pi**2 + 1.0) * d,
        w_sup=1.0,
        analytic_energy=energy,
        analytic_h1_norm_sq=h1_sq,
    )


def make_quadratic_problem(d: int) -> Problem:
    """u*(x) = sum_i x_i^2 with w = 1; exercises a nonzero flux g."""
    d = _as_int(d, "d", 1)

    def u_star(x):
        return _row_sums(np.atleast_2d(x) ** 2)

    def grad_u_star(x):
        return 2.0 * np.atleast_2d(x)

    def w(x):
        return np.ones(np.atleast_2d(x).shape[0])

    def f(x):
        return -2.0 * d + u_star(x)

    def g(points):
        # grad u* . n = 2 x_axis * (+-1) = 2 on the faces x_axis = 1, 0 on x_axis = 0
        return 2.0 * np.any(np.atleast_2d(points) == 1.0, axis=1)

    # closed forms on (0,1)^d:
    #   int |grad u*|^2 = 4d/3,  int u*^2 = d/5 + d(d-1)/9,
    #   int u* f = -2d^2/3 + d/5 + d(d-1)/9,
    #   int_boundary u* g = 2d (1 + (d-1)/3)
    int_u_sq = d / 5.0 + d * (d - 1) / 9.0
    energy = (
        0.5 * (4.0 * d / 3.0)
        + 0.5 * int_u_sq
        - (-2.0 * d**2 / 3.0 + int_u_sq)
        - 2.0 * d * (1.0 + (d - 1) / 3.0)
    )
    h1_sq = int_u_sq + 4.0 * d / 3.0
    h2_sq = h1_sq + 4.0 * d  # second derivatives are the constants 2 on the diagonal
    return Problem(
        name="quadratic",
        d=d,
        w=w,
        f=f,
        g=g,
        u_star=u_star,
        grad_u_star=grad_u_star,
        c1=1.0,
        c2=math.sqrt(h2_sq),
        c3=max(2.0 * d, 2.0),
        w_sup=1.0,
        analytic_energy=energy,
        analytic_h1_norm_sq=h1_sq,
    )


_FACTORIES = {"cosine": make_cosine_problem, "quadratic": make_quadratic_problem}


def problem_by_name(name: str, d: int) -> Problem:
    """Config-file entry point: problems are selected by name plus dimension."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"problem {name!r} is unknown; choose from {sorted(_FACTORIES)}")
    return factory(d)
