"""Exact closed forms for exponential-logarithmic integrals.

The package evaluates integrals of the class

    integral_0^inf p(x) x^(s-1) e^(-mu x) (ln x)^n dx

in exact closed form over a ring of named constants (gamma, log mu, log 2,
sqrt(pi), zeta(k)), and verifies every closed form independently by
high-accuracy quadrature and direct special-function numerics.

``import explogint`` loads no module of the package: the first read of a
name of ``__all__`` imports the module that defines it (PEP 562), so
building the constants table, ``explogint.compute_constants()``, loads
only the oracle and the generators it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# The API the README documents, each name with the module that defines it; everything
# else is reached through its module.
_HOMES = {
    "IntegralSpec": "evaluator",
    "compute_constants": "oracle",
    "eval_In": "evaluator",
    "eval_general": "evaluator",
    "grade": "ring",
    "parse_constant": "parser",
    "parse_integrand": "parser",
    "quadrature": "oracle",
    "to_integral_spec": "parser",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
