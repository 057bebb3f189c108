"""Numeric evaluation of the complexity and generalization bounds.

Every O(.) constant the theory leaves unspecified is an explicit parameter
defaulting to 1 and echoed in reports; logarithms are natural throughout
(the constants absorb any base change).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .networks import _as_int, _as_real
from .training import Count, PositiveReal, Real, _check_field_types


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound calculators need for one network/sample setting."""

    depth: Count
    width: Count
    d: Count
    n: Count
    B: Real = 1.0  # B = 0 is the sup bound of an identically zero net
    c3: PositiveReal = 1.0
    nu: Real = 0.0
    pdim_constant: PositiveReal = 1.0

    def __post_init__(self):
        _check_field_types(self)


def _finite(what: str, compute, **inputs) -> float:
    """compute(), unless it overflows the float range (an OverflowError, an
    infinite value, or the math domain error of a log whose argument's
    denominator overflowed): then a ValueError naming the one of inputs, all
    > 0, furthest from 1 on a log scale, which drove the value out of range."""
    try:
        value = compute()
    except (OverflowError, ValueError):
        value = math.inf
    if math.isfinite(value):
        return value
    name, x = max(inputs.items(), key=lambda item: abs(math.log(item[1])))
    raise ValueError(f"{name} {x!r} is too {'small' if x < 1 else 'large'}: "
                     f"{what} overflows the float range")


def pdim_bound(depth: int, width: int, pdim_constant: float = 1.0) -> float:
    """Pseudo-dimension bound const * D^2 W^2 (D + ln W) for mixed
    ReLU/ReLU^2 networks."""
    depth, width = _as_int(depth, "depth", 1), _as_int(width, "width", 1)
    _as_real(pdim_constant, "pdim_constant", strict=True)
    return _finite("pdim_bound", lambda: pdim_constant * depth**2 * width**2 * (
        depth + math.log(width)), depth=depth, width=width, pdim_constant=pdim_constant)


def log_covering_bound(eps: float, n: int, B: float, pdim: float) -> float:
    """log of the uniform covering number bound (en B / (eps Pdim))^Pdim.

    Returned in log form; the raw value overflows for realistic inputs.
    Requires n >= pdim, the regime where the bound form is valid.
    """
    n, pdim = _as_int(n, "n", 1), _as_real(pdim, "pdim", 1)
    _as_real(eps, "eps", strict=True)
    _as_real(B, "B", strict=True)
    if n < pdim:
        raise ValueError(f"n must be >= pdim for this bound, got n={n}, pdim={pdim}")
    return _finite("log_covering_bound", lambda: pdim * math.log(math.e * n * B / (eps * pdim)),
                   eps=eps, n=n, B=B, pdim=pdim)


def dudley_rademacher_bound(n: int, B: float, pdim: float) -> float:
    """Chaining bound 28 sqrt(3/2) B sqrt(Pdim/n) sqrt(ln(en/Pdim))."""
    n, pdim = _as_int(n, "n", 1), _as_real(pdim, "pdim", 1)
    _as_real(B, "B", strict=True)
    if n <= pdim:
        raise ValueError(f"n must be > pdim for this bound, got n={n}, pdim={pdim}")
    return _finite("dudley_rademacher_bound", lambda: 28.0 * math.sqrt(1.5) * B * math.sqrt(
        pdim / n) * math.sqrt(math.log(math.e * n / pdim)), n=n, B=B)


def statistical_error_bound(inputs: BoundInputs, C_Bc3: float = 1.0) -> float:
    """The statistical-error bound at slack nu:

    C * [ d (D+3)(D+2) W sqrt((D + 3 + ln(d (D+2) W)) / n) ]^(1 - nu).
    """
    D, W, d, n = inputs.depth, inputs.width, inputs.d, inputs.n
    _as_real(C_Bc3, "C_Bc3", strict=True)
    inner = _finite("statistical_error_bound", lambda: d * (D + 3) * (D + 2) * W * math.sqrt(
        (D + 3 + math.log(d * (D + 2) * W)) / n), depth=D, width=W, d=d, n=n)
    # a power below 1 overflows only for inner < 1 and nu > 1
    powered = _finite("statistical_error_bound", lambda: inner ** (1.0 - inputs.nu), nu=inputs.nu)
    return _finite("statistical_error_bound", lambda: C_Bc3 * powered,
                   C_Bc3=C_Bc3, depth=D, width=W, d=d)


def predicted_rates(d: int, nu: float):
    """Exponents of n for the squared-H1 error and the H1 error."""
    d, nu = _as_int(d, "d", 1), _as_real(nu, "nu")
    h1_sq = _finite("predicted_rates", lambda: -1.0 / (d + 2 + nu), d=d)
    return h1_sq, h1_sq / 2.0


def all_bounds(inputs: BoundInputs, C_Bc3: float = 1.0, eps: float = 1.0) -> dict:
    """One dictionary with every bound value for a given input setting."""
    _as_real(eps, "eps", strict=True)
    pdim = pdim_bound(inputs.depth, inputs.width, inputs.pdim_constant)
    out = {
        "inputs": {**dataclasses.asdict(inputs), "C_Bc3": C_Bc3, "eps": eps},
        "pdim_bound": pdim,
        "statistical_error_bound": statistical_error_bound(inputs, C_Bc3),
    }
    rate_sq, rate = predicted_rates(inputs.d, inputs.nu)
    out["h1_sq_rate_exponent"] = rate_sq
    out["h1_rate_exponent"] = rate
    out["dudley_rademacher_bound"] = out["log_covering_bound"] = None
    if inputs.n <= pdim:
        out["note"] = "n <= pdim bound: covering/Rademacher forms require n > Pdim"
    elif inputs.B == 0:
        out["note"] = "B = 0: covering/Rademacher forms require B > 0"
    else:
        out["dudley_rademacher_bound"] = dudley_rademacher_bound(inputs.n, inputs.B, pdim)
        out["log_covering_bound"] = log_covering_bound(eps, inputs.n, inputs.B, pdim)
    return out
