import os
from pathlib import Path

import pytest

from explogint.catalog import run_catalog
from explogint.oracle import compute_constants
from explogint.ring import EULER_GAMMA, LOG2, SQRT_PI, zeta_gen

# pyproject.toml puts src on this process's path; the tests that start a child
# interpreter (python -m explogint) need it there too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# Integrand corpus: every catalog formula instantiated at concrete
# parameters, plus assorted members of the class.  Used by the parser
# round-trip tests and the acceptance suite.
INTEGRAND_CORPUS = [
    "exp(-x)*log(x)",                             # 4.331.1 at mu = 1
    "exp(-2*x)*log(x)",                           # 4.331.1
    "exp(-1/2*x)*log(x)^2",                       # 4.335.1
    "exp(-x)*log(x)^3",                           # 4.335.3
    "x^(3/2)*exp(-2*x)*log(x)",                   # 4.352.1, nu = 5/2
    "x^(3)*exp(-x)*log(x)",                       # 4.352.2, n = 3
    "x^(5/2)*exp(-10*x)*log(x)",                  # 4.352.3, n = 3
    "x^(1/2)*exp(-x)*log(x)",                     # 4.352.4, nu = 3/2
    "(x - 1/2)*x^(-1/2)*exp(-x)*log(x)",          # 4.353.1, nu = 1/2
    "(x - 2)*x^(1)*exp(-x)*log(x)",               # 4.353.1, nu = 2
    "(2*x - 3/2)*x^(1/2)*exp(-2*x)*log(x)",       # 4.353.2, n = 1, mu = 2
    "(3*x - 1/2)*x^(-1/2)*exp(-3*x)*log(x)",      # 4.353.2, n = 0, mu = 3
    "exp(-x)",
    "exp(-3*x)",
    "x^(2)*exp(-3*x)",
    "exp(-x)*log(x)^2",
    "(x - 2)*(x - 3)*exp(-x)*log(x)^2",
    "3/4*exp(-2*x)*log(x)^4",
    "(x + 1/2)*exp(-x)*log(x)",
    "x^(-1/2)*exp(-1/2*x)*log(x)^2",
    "exp(-x)*log(x)^8",
    "(1/2*x - 1/4)*exp(-5*x)*log(x)",
    "2*x*exp(-x)*log(x)",
    "exp(-0.5*x)*log(x)",
]


@pytest.fixture(scope="session")
def table():
    return compute_constants()


@pytest.fixture(scope="session")
def ints(table):
    # the process table's ints for gamma, log2, sqrt_pi and zeta(2) .. zeta(41), each read
    # once: a table built from them (Constants(dict(ints))) binds every form of log power <= 40
    return {g: table.fixed[g] for g in (EULER_GAMMA, LOG2, SQRT_PI, *map(zeta_gen, range(2, 42)))}


@pytest.fixture(scope="session")
def catalog_checks():
    # Defaults are the acceptance grid: mu in {1/2, 1, 2, 10}, n in 0..4,
    # nu in {1, 2, 3, 1/2, 3/2, 7/2}, quadrature tolerance 1e-10.
    return run_catalog()


@pytest.fixture(scope="session")
def corpus():
    return list(INTEGRAND_CORPUS)
