"""Exact closed forms for exponential-logarithmic integrals.

The package evaluates integrals of the class

    integral_0^inf p(x) x^(s-1) e^(-mu x) (ln x)^n dx

in exact closed form over a ring of named constants (gamma, log mu, log 2,
sqrt(pi), zeta(k)), and verifies every closed form independently by
high-accuracy quadrature and direct special-function numerics.
"""

from .evaluator import IntegralSpec, eval_general, eval_In
from .oracle import compute_constants, quadrature
from .parser import parse_constant, parse_integrand, to_integral_spec
from .ring import grade

__version__ = "0.1.0"

# The API the README documents; everything else is reached through its module.
__all__ = [
    "IntegralSpec",
    "compute_constants",
    "eval_In",
    "eval_general",
    "grade",
    "parse_constant",
    "parse_integrand",
    "quadrature",
    "to_integral_spec",
]
