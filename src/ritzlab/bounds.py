"""Numeric evaluation of the complexity and generalization bounds.

Every O(.) constant the theory leaves unspecified is an explicit parameter
defaulting to 1 and echoed in reports; logarithms are natural throughout
(the constants absorb any base change).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound calculators need for one network/sample setting."""

    depth: int
    width: int
    d: int
    n: int
    B: float
    c3: float
    nu: float = 0.0
    pdim_constant: float = 1.0

    def __post_init__(self):
        if min(self.depth, self.width, self.d, self.n) < 1:
            raise ValueError("depth, width, d, n must be positive")
        # B = 0 is the sup bound of an identically zero net
        if self.B < 0 or self.c3 <= 0 or self.nu < 0 or self.pdim_constant <= 0:
            raise ValueError("c3, pdim_constant must be positive and B, nu >= 0")


def pdim_bound(depth: int, width: int, pdim_constant: float = 1.0) -> float:
    """Pseudo-dimension bound const * D^2 W^2 (D + ln W) for mixed
    ReLU/ReLU^2 networks."""
    if depth < 1 or width < 1:
        raise ValueError("need depth >= 1 and width >= 1")
    return pdim_constant * depth**2 * width**2 * (depth + math.log(width))


def log_covering_bound(eps: float, n: int, B: float, pdim: float) -> float:
    """log of the uniform covering number bound (en B / (eps Pdim))^Pdim.

    Returned in log form; the raw value overflows for realistic inputs.
    Requires n >= pdim, the regime where the bound form is valid.
    """
    if eps <= 0 or B <= 0 or pdim < 1:
        raise ValueError("need eps > 0, B > 0, pdim >= 1")
    if n < pdim:
        raise ValueError(f"bound requires n >= pdim, got n={n}, pdim={pdim}")
    return pdim * math.log(math.e * n * B / (eps * pdim))


def dudley_rademacher_bound(n: int, B: float, pdim: float) -> float:
    """Chaining bound 28 sqrt(3/2) B sqrt(Pdim/n) sqrt(ln(en/Pdim))."""
    if B <= 0 or pdim < 1:
        raise ValueError("need B > 0 and pdim >= 1")
    if n <= pdim:
        raise ValueError(f"bound requires n > pdim, got n={n}, pdim={pdim}")
    return 28.0 * math.sqrt(1.5) * B * math.sqrt(pdim / n) * math.sqrt(
        math.log(math.e * n / pdim)
    )


def statistical_error_bound(inputs: BoundInputs, C_Bc3: float = 1.0) -> float:
    """The statistical-error bound at slack nu:

    C * [ d (D+3)(D+2) W sqrt((D + 3 + ln(d (D+2) W)) / n) ]^(1 - nu).
    """
    D, W, d, n = inputs.depth, inputs.width, inputs.d, inputs.n
    inner = d * (D + 3) * (D + 2) * W * math.sqrt(
        (D + 3 + math.log(d * (D + 2) * W)) / n
    )
    return C_Bc3 * inner ** (1.0 - inputs.nu)


def predicted_rates(d: int, nu: float):
    """Exponents of n for the squared-H1 error and the H1 error."""
    if d < 1 or nu < 0:
        raise ValueError("need d >= 1 and nu >= 0")
    h1_sq = -1.0 / (d + 2 + nu)
    return h1_sq, h1_sq / 2.0


def all_bounds(inputs: BoundInputs, C_Bc3: float = 1.0, eps: float = 1.0) -> dict:
    """One dictionary with every bound value for a given input setting."""
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
