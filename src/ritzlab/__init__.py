"""Deep Ritz laboratory: elliptic Neumann solvers over ReLU^2 networks.

Submodules:
  networks   network representation, evaluation, exact derivatives
  gadgets    exact weight-level constructions (splines, products, gradients)
  problems   manufactured Neumann problems on (0,1)^d
  sampling   seeded uniform sampling and Monte-Carlo quadrature
  ritz       the empirical Ritz loss and derived estimators
  training   SGD/Adam minimization of the empirical loss
  bounds     numeric theory-bound calculators
  harness    config files, studies, decomposition reports, verification, report IO
  cli        the `ritzlab` command-line entry point

The package namespace holds the names of the README's library tour; import
everything else from its submodule.
"""

from .gadgets import (
    build_gradient_norm_network,
    build_spline_combination,
    build_univariate_bspline,
    fit_spline_coefficients,
    prescribe_architecture,
)
from .problems import make_cosine_problem
from .ritz import energy_excess
from .sampling import h1_error, make_sample_set
from .training import TrainConfig, init_network, train

__all__ = [
    "TrainConfig",
    "build_gradient_norm_network",
    "build_spline_combination",
    "build_univariate_bspline",
    "energy_excess",
    "fit_spline_coefficients",
    "h1_error",
    "init_network",
    "make_cosine_problem",
    "make_sample_set",
    "prescribe_architecture",
    "train",
]

__version__ = "0.1.0"
