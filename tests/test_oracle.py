"""Numeric ground truth: constants, special functions, quadrature, FD."""

import ast
import hashlib
import itertools
import math
import random
import subprocess
import sys
import types
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import explogint.oracle as oracle_module
from explogint.evaluator import IntegralSpec, PrefactorTerm
from explogint.oracle import Constants, _strip_mass, compute_constants, quadrature
from explogint.parser import parse_integrand, to_integral_spec
from explogint.ring import EULER_GAMMA, LOG2, LOG_MU, SQRT_PI, SymbolicConstant, zeta_gen
from explogint.special_values import ArgPoint
from special_numerics import digamma_m, fd_weights, gamma_value, log_gamma, nth_derivative_fd

GAMMA_REF = 0.57721566490153286060  # Euler's constant, 20 digits
ZETA2_REF = 1.64493406684822643647
ZETA3_REF = 1.20205690315959428540


# The generator identities and binding's precision BITS, from the leaf module
# generators.py: all the oracle may import of the package at run time (Generator, read
# only in annotations, it imports under TYPE_CHECKING).  Nothing of ring.py, not even for
# a type, so the ground truth loads none of the algebra and agreement with the exact
# engine is evidence.
GENERATOR_IMPORTS = {"BITS", "EULER_GAMMA", "LOG2", "SQRT_PI"}


def engine_imports(source: str) -> list[str]:
    """Runtime imports in ``source`` (oracle.py) other than the standard library and
    ``from .generators`` of GENERATOR_IMPORTS, and every import from ``.ring``;
    ``if TYPE_CHECKING:`` never runs, but may not name the ring either."""
    tree = ast.parse(source)
    unrun = {id(n) for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
             for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in unrun and not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ring"):
            continue
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name.partition(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module.partition(".")[0] in sys.stdlib_module_names:
                continue
            allowed = GENERATOR_IMPORTS if module == ".generators" else set()
            found += [f"line {node.lineno}: imports {a.name} from {module}" for a in node.names
                      if a.name not in allowed]
    return found


def package_imports(source: str) -> list[str]:
    """Every import of ``explogint`` in ``source``, at any depth, as absolute or relative."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name.partition(".")[0] == "explogint"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.partition(".")[0] == "explogint":
                found += [f"line {node.lineno}: imports {a.name} from {module}" for a in node.names]
    return found


# A constant's storage and private methods: only ring.py may name them.
CONSTANT_PRIVATE = set(SymbolicConstant.__slots__) | {
    name for name, value in vars(SymbolicConstant).items()
    if name.startswith("_") and not name.startswith("__")
    and isinstance(value, (types.FunctionType, staticmethod, classmethod))
}


def private_reads(source: str, names: set[str]) -> list[str]:
    """Every attribute in ``source`` named in ``names``, whatever it is read from."""
    return [f"line {node.lineno}: reads .{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


class TestIndependence:
    def test_oracle_imports_nothing_of_the_engine(self):
        source = Path(oracle_module.__file__).read_text(encoding="utf-8")
        assert engine_imports(source) == []

    def test_guard_sees_an_engine_import(self):
        bad = (
            "import math\n"
            "from typing import TYPE_CHECKING\n"
            "from .ring import LOG2, SymbolicConstant\n"
            "from . import special_values\n"
            "import explogint.cli\n"
            "from explogint.catalog import run_catalog\n"
            "from .generators import BITS, zeta_gen\n"
            "if TYPE_CHECKING:\n"
            "    from .evaluator import IntegralSpec\n"
            "    from .generators import Generator\n"
            "    from .ring import Generator\n"
            "def f():\n    from .parser import parse_constant\n"
        )
        assert sorted(engine_imports(bad)) == [
            "line 11: imports Generator from .ring",
            "line 13: imports parse_constant from .parser",
            "line 3: imports LOG2 from .ring",
            "line 3: imports SymbolicConstant from .ring",
            "line 4: imports special_values from .",
            "line 5: imports explogint.cli",
            "line 6: imports run_catalog from explogint.catalog",
            "line 7: imports zeta_gen from .generators",
        ]

    def test_third_route_imports_nothing_of_the_package(self):
        source = (Path(__file__).parent / "special_numerics.py").read_text(encoding="utf-8")
        assert package_imports(source) == []

    def test_guard_sees_a_package_import(self):
        bad = (
            "import math\n"
            "from explogint.oracle import _BERNOULLI, hurwitz_zeta\n"
            "import explogint.ring as ring\n"
            "from mpmath import zeta\n"
            "def f():\n    from . import special_values\n"
        )
        assert package_imports(bad) == [
            "line 2: imports _BERNOULLI from explogint.oracle",
            "line 2: imports hurwitz_zeta from explogint.oracle",
            "line 3: imports explogint.ring",
            "line 6: imports special_values from .",
        ]

    def test_only_ring_names_a_constants_private_attributes(self):
        assert {"_d", "_den", "_coerce"} <= CONSTANT_PRIVATE
        package = Path(oracle_module.__file__).parent
        found = {path.name: private_reads(path.read_text(encoding="utf-8"), CONSTANT_PRIVATE)
                 for path in sorted(package.glob("*.py")) if path.name != "ring.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_guard_sees_a_private_read(self):
        bad = "block._sorted_items()\nn = len(c._d)\nc.terms\nc.__class__\nc._dx\n"
        assert private_reads(bad, CONSTANT_PRIVATE | {"_sorted_items"}) == [
            "line 1: reads ._sorted_items",
            "line 2: reads ._d",
        ]


def decimal_pi(digits: int) -> Decimal:
    """pi to ``digits`` digits by the series recipe of the decimal module's docs."""
    with localcontext() as ctx:
        ctx.prec = digits + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return s


def bernoulli(m: int) -> Fraction:
    """B_m from B_0 = 1 and sum_(k<=m) C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b[m]


def double(g) -> float:
    """The process table's int for g, rounded once to the nearest double."""
    return compute_constants().fixed[g] / 2**128


class TestConstants:
    def test_gamma_against_reference(self):
        assert double(EULER_GAMMA) == GAMMA_REF

    def test_gamma_cross_checked_by_quadrature(self):
        # the integrand e^-x ln x transforms onto the whole real axis as
        # -t e^-t e^(-e^-t); its quadrature must land on -gamma
        result = quadrature(IntegralSpec.simple(1, 1), 1.0, rel_tol=1e-12)
        assert result.converged
        assert abs(result.value + double(EULER_GAMMA)) < 1e-12

    def test_zeta_values(self):
        assert double(zeta_gen(2)) == ZETA2_REF
        assert double(zeta_gen(3)) == ZETA3_REF

    def test_zeta2_equals_pi_squared_over_six(self):
        pi_sq_over_6 = double(SQRT_PI)**4 / 6.0
        assert abs(double(zeta_gen(2)) - pi_sq_over_6) < 1e-14

    def test_zeta_tends_to_one(self):
        assert double(zeta_gen(12)) - 1.0 < 3e-4
        for k in range(2, 12):
            assert double(zeta_gen(k)) > double(zeta_gen(k + 1)) > 1.0

    def test_table_shape(self, table):
        assert {EULER_GAMMA, LOG2, SQRT_PI} <= set(table.fixed)
        assert all(g.k >= 2 for g in set(table.fixed) - {EULER_GAMMA, LOG2, SQRT_PI})
        assert all(type(x) is int for x in table.fixed.values())
        with pytest.raises(KeyError):  # ln mu is bound per call, not held
            table.fixed[LOG_MU]
        assert double(LOG2) == math.log(2.0)

    def test_a_zeta_is_built_on_first_read(self, table):
        fresh = compute_constants.__wrapped__()  # a new process table, outside the cache
        assert set(fresh.fixed) == {EULER_GAMMA, LOG2, SQRT_PI}
        assert zeta_gen(7) not in fresh.fixed  # `in` does not build it; a subscript does
        assert fresh.fixed[zeta_gen(7)] == table.fixed[zeta_gen(7)]
        assert set(fresh.fixed) == {EULER_GAMMA, LOG2, SQRT_PI, zeta_gen(7)}
        # a table a caller builds holds exactly the ints it is given
        mine = Constants({LOG2: 1 << 128})
        with pytest.raises(KeyError):
            mine.fixed[zeta_gen(2)]
        assert dict(mine.fixed) == {LOG2: 1 << 128}
        # the zeta weights are built on the first read, not at import or by the first call
        code = ("import explogint.cli, explogint.oracle as o; o.compute_constants(); "
                "print(o._borwein.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        assert out == "0\n"

    def test_table_is_built_once_and_read_only(self):
        table = compute_constants()
        assert compute_constants() is table
        with pytest.raises(TypeError):
            compute_constants(15)
        with pytest.raises(TypeError):  # no map of doubles to copy
            dict(table)
        with pytest.raises(TypeError):
            {**table}
        with pytest.raises(TypeError):
            table.fixed[zeta_gen(2)] = 0

    def test_correctly_rounded_against_mpmath(self, ints):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            expected = {EULER_GAMMA: mpmath.euler, LOG2: mpmath.log(2), SQRT_PI: mpmath.sqrt(mpmath.pi),
                        **{zeta_gen(k): mpmath.zeta(k) for k in range(2, 42)}}
            assert {g: x / 2**128 for g, x in ints.items()} == {g: float(v) for g, v in expected.items()}

    def test_correctly_rounded_by_the_standard_library(self):
        # zeta(2k) = (-1)^(k+1) B_2k (2 pi)^(2k) / (2 (2k)!), with pi from a series the
        # oracle does not use and exact Bernoulli numbers, at 60 digits in decimal
        pi = decimal_pi(60)
        with localcontext() as ctx:
            ctx.prec = 60
            assert double(SQRT_PI) == float(pi.sqrt())
            assert double(LOG2) == float(Decimal(2).ln())
            for k in range(1, 21):
                b = bernoulli(2 * k)
                exact = (-1) ** (k + 1) * Decimal(b.numerator) / b.denominator * (2 * pi) ** (2 * k)
                assert double(zeta_gen(2 * k)) == float(exact / (2 * math.factorial(2 * k)))


class TestDigamma:
    def test_classical_values_at_one(self):
        assert abs(digamma_m(0, 1.0) + double(EULER_GAMMA)) < 1e-13
        assert abs(digamma_m(1, 1.0) - double(zeta_gen(2))) < 1e-12 * double(zeta_gen(2))
        assert abs(digamma_m(2, 1.0) + 2.0 * double(zeta_gen(3))) < 1e-12 * 2.0 * double(zeta_gen(3))

    def test_polygamma_at_one_is_zeta(self):
        # psi^(k-1)(1) = (-1)^k (k-1)! zeta(k)
        for k in range(2, 13):
            expected = (-1) ** k * math.factorial(k - 1) * double(zeta_gen(k))
            assert abs(digamma_m(k - 1, 1.0) - expected) < 1e-14 * abs(expected)

    def test_half_argument_identity(self):
        # psi^(m)(1/2) = (2^(m+1) - 1) psi^(m)(1), from zeta(z, 1/2) = (2^z - 1) zeta(z)
        for m in range(1, 8):
            rhs = (2.0 ** (m + 1) - 1.0) * digamma_m(m, 1.0)
            assert abs(digamma_m(m, 0.5) - rhs) <= 1e-12 * abs(rhs)

    def test_recurrence_numerically(self):
        # psi^(m)(x+1) - psi^(m)(x) = (-1)^m m! / x^(m+1)
        rng = random.Random(31337)
        for _ in range(60):
            x = rng.uniform(1e-3, 100.0)
            lhs = digamma_m(0, x + 1.0) - digamma_m(0, x)
            assert abs(lhs - 1.0 / x) <= 1e-12 * max(1.0, 1.0 / x)
        for _ in range(60):
            m, x = rng.randint(1, 6), rng.uniform(0.05, 40.0)
            rhs = (-1) ** m * math.factorial(m) / x ** (m + 1)
            lhs = digamma_m(m, x + 1.0) - digamma_m(m, x)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), abs(digamma_m(m, x)))

    def test_against_asymptotics(self):
        # psi(x) ~ ln x for large x
        assert abs(digamma_m(0, 1e6) - math.log(1e6)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            digamma_m(0, 0.0)
        with pytest.raises(ValueError):
            digamma_m(0, -2.0)
        with pytest.raises(ValueError):
            digamma_m(-1, 1.0)


class TestGammaNumeric:
    def test_functional_equation(self):
        rng = random.Random(2468)
        for _ in range(120):
            x = rng.uniform(1e-6, 50.0)
            ratio = gamma_value(x + 1.0) / (x * gamma_value(x))
            assert abs(ratio - 1.0) <= 1e-12

    def test_classical_points(self):
        assert abs(gamma_value(0.5) - math.sqrt(math.pi)) < 1e-14
        for n in range(1, 10):
            assert abs(gamma_value(float(n)) - math.factorial(n - 1)) <= 1e-12 * math.factorial(n - 1)

    def test_log_gamma_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)


class TestQuadrature:
    def test_minus_gamma(self, table):
        result = quadrature(IntegralSpec.simple(1, 1), 1.0, rel_tol=1e-10)
        assert result.converged
        assert abs(result.value - (-0.5772156649)) < 1e-10 + 1e-9 * 0.58
        assert result.abs_error_estimate <= 1e-10 * (1.0 + abs(result.value))

    def test_pure_exponential(self):
        result = quadrature(IntegralSpec.simple(1, 0), 3.0, rel_tol=1e-10)
        assert result.converged
        assert abs(result.value - 1.0 / 3.0) < 1e-12

    def test_weight_two_value(self):
        result = quadrature(IntegralSpec.simple(1, 2), 1.0, rel_tol=1e-10)
        assert result.converged
        assert abs(result.value - 1.9781119906) < 1e-9

    def test_polynomial_prefactor(self):
        # (x - 1/2) x^(-1/2) e^-x ln x integrates to Gamma(1/2) = sqrt(pi)
        spec = IntegralSpec(
            (PrefactorTerm(0, Fraction(-1, 2)), PrefactorTerm(1, Fraction(1))),
            ArgPoint.of(Fraction(1, 2)),
            1,
            Fraction(1),
        )
        result = quadrature(spec, 1.0, rel_tol=1e-10)
        assert result.converged
        assert abs(result.value - double(SQRT_PI)) <= 1e-9 * double(SQRT_PI)

    def test_coefficient_below_float_range_adds_nothing(self):
        # (1 - 10^-400 x) e^-x: the second coefficient rounds to 0.0
        tiny = PrefactorTerm(1, Fraction(-1, 10**400))
        spec = IntegralSpec((PrefactorTerm(0, Fraction(1)), tiny), ArgPoint.of(Fraction(1)), 0, Fraction(1))
        result = quadrature(spec, 1.0)
        assert result.converged and abs(result.value - 1.0) < 1e-15
        with pytest.raises(ValueError, match="float range"):
            quadrature(spec._replace(prefactor=(tiny,)), 1.0)

    def test_a_mu_power_beyond_the_float_range_is_a_value_error(self, table):
        # mu^2 at mu = 1e300 and mu^-2 at mu = 1e-300 overflow
        from explogint.catalog import CatalogEntry, check_entry
        from explogint.evaluator import eval_general

        def spec(power):
            return IntegralSpec((PrefactorTerm(8, Fraction(-1), power),), ArgPoint.of(Fraction(13, 2)), 13)

        for power, mu in ((2, 1e300), (-2, 1e-300)):
            with pytest.raises(ValueError) as raised:
                quadrature(spec(power), mu)
            assert str(raised.value) == f"the prefactor's mu^{power} lies outside the float range (decay rate mu = {mu:g})"
        # a catalog check reports it on its own line, as it does the other range errors; the
        # closed form's value at mu = 1e300 is within range (0.0)
        entry = CatalogEntry("test", "", "", None, lambda _p: spec(2), lambda _p: eval_general(spec(2)))
        check = check_entry(entry, None, table, mu_grid=(1.0, 1e300))
        assert (check.status, check.error) == (
            "fail", "at mu = 1e+300, the prefactor's mu^2 lies outside the float range (decay rate mu = 1e+300)")

    def test_error_estimate_honest_on_refinement(self):
        spec = IntegralSpec.simple(1, 1)
        coarse = quadrature(spec, 1.0, rel_tol=1e-6)
        fine = quadrature(spec, 1.0, rel_tol=1e-12)
        assert coarse.converged and fine.converged
        assert fine.nodes_used >= coarse.nodes_used
        assert fine.abs_error_estimate <= coarse.abs_error_estimate

    def test_node_budget_exhaustion_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr("explogint.oracle.MAX_NODES", 100)
        result = quadrature(IntegralSpec.simple(1, 1), 1.0, rel_tol=1e-10)
        assert not result.converged

    def test_error_estimates_shrink_on_catalog_integrands(self):
        from explogint.catalog import catalog

        for entry in catalog():
            if entry.param_name is None:
                param = None
            elif entry.param_name == "n":
                param = 2
            else:
                param = ArgPoint.of(Fraction(3, 2))
            spec = entry.build(param)
            mu = 1.0 if spec.mu is None else float(spec.mu)
            coarse = quadrature(spec, mu, rel_tol=1e-6)
            fine = quadrature(spec, mu, rel_tol=1e-11)
            assert coarse.converged and fine.converged
            assert fine.abs_error_estimate <= coarse.abs_error_estimate

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            quadrature(IntegralSpec.simple(1, 0), -1.0)
        with pytest.raises(ValueError):
            quadrature(IntegralSpec.simple(1, 0), 1.0, rel_tol=1e-14)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                quadrature(IntegralSpec.simple(1, 0), bad)
            with pytest.raises(ValueError):
                quadrature(IntegralSpec.simple(1, 0), 1.0, rel_tol=bad)


class TestWindowSweep:
    """Decay rates over twelve decades move the peak of the u = ln x integrand
    from u ~ -14 to u ~ 16; the window must follow it, and ``converged`` must
    mean correct.  Reference: d^n/ds^n [Gamma(s) mu^-s] at 30 digits."""

    S = (Fraction(1, 2), Fraction(1), Fraction(7, 2), Fraction(10))
    N = (0, 1, 3, 6, 10)
    MU = (1e-6, 1e-3, 1.0, 1e3, 1e6)

    def test_converged_means_correct_and_the_estimate_bounds_the_error(self):
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-10
        with mpmath.workdps(30):
            for s, n, mu in itertools.product(self.S, self.N, self.MU):
                result = quadrature(IntegralSpec.simple(s, n), mu, rel_tol=tol)
                exact = mpmath.diff(
                    lambda t: mpmath.gamma(t) * mpmath.mpf(mu) ** -t,
                    mpmath.mpf(s.numerator) / s.denominator,
                    n,
                )
                error = abs(mpmath.mpf(result.value) - exact)
                assert result.converged, (s, n, mu)
                assert error <= 10 * tol * abs(exact), (s, n, mu)
                assert result.abs_error_estimate >= error, (s, n, mu)


def _gamma_sum(mpmath, spec, mu):
    """The exact integral: sum_j c_j mu^(mp_j) d^n/ds^n [Gamma(s) mu^-s] at s = r_j."""

    def exact(q: Fraction):
        return mpmath.mpf(q.numerator) / q.denominator

    total, mu = mpmath.mpf(0), exact(Fraction(mu))
    for pf in spec.prefactor:
        r = exact(spec.s.value) + pf.power
        total += exact(pf.coeff) * mu**pf.mu_power * mpmath.diff(
            lambda t: mpmath.gamma(t) * mu**-t, r, spec.log_power)
    return total


class TestOnePass:
    """The step comes from a bound on the integrand in a strip, and the sum is
    made at most twice; what that bound and the rounding bound promise."""

    # (x - 1)^8 x^99 e^(-100x) and (x - 1)^10 x^99 e^(-100x) (ln x)^2: the terms
    # cancel by eight to nine decades, so rounding, not the step, limits the sum
    CANCELLING = [
        "(x^(8) - 8*x^(7) + 28*x^(6) - 56*x^(5) + 70*x^(4) - 56*x^(3) + 28*x^(2) - 8*x + 1)"
        "*x^(99)*exp(-100*x)",
        "(x^(10) - 10*x^(9) + 45*x^(8) - 120*x^(7) + 210*x^(6) - 252*x^(5) + 210*x^(4)"
        " - 120*x^(3) + 45*x^(2) - 10*x + 1)*x^(99)*exp(-100*x)*log(x)^2",
    ]

    @pytest.mark.parametrize("text", CANCELLING, ids=["d8", "d10-log2"])
    def test_cancelling_terms_never_converge_below_their_error(self, text):
        mpmath = pytest.importorskip("mpmath")
        spec = to_integral_spec(parse_integrand(text))
        result = quadrature(spec, float(spec.mu), rel_tol=1e-10)
        with mpmath.workdps(60):
            error = abs(mpmath.mpf(result.value) - _gamma_sum(mpmath, spec, spec.mu))
        assert not result.converged or result.abs_error_estimate >= error

    def test_a_zero_value_stops_after_two_sums(self):
        # (x - 1) e^-x integrates to exactly 0: no relative tolerance can be met
        spec = to_integral_spec(parse_integrand("(x - 1)*exp(-x)"))
        result = quadrature(spec, 1.0)
        assert not result.converged
        assert result.nodes_used < 5000
        assert abs(result.value) <= result.abs_error_estimate

    # (prefactor as (coeff, power) pairs, s, n, mu, pad)
    STRIPS = [
        (((1, 0),), Fraction(1), 0, 1.0, 1.5),
        (((1, 0),), Fraction(1, 2), 3, 1e3, 1.1),
        (((1, 0),), Fraction(7, 2), 6, 1e-3, 0.7),
        (((1, 0), (-2, 1)), Fraction(5, 2), 2, 2.0, 1.1),
        (((3, 0), (-1, 2)), Fraction(1), 1, 0.5, 1.5),
        (((1, 0),), Fraction(100), 1, 100.0, 0.35),
        # the costliest shapes: the |u|^n bump near u = -n/s lies far left of the peak
        (((1, 0), (-3, 1), (2, 2)), Fraction(1, 2), 13, 1.0, 1.1),
        (((1, 0),), Fraction(1), 14, 1e-3, 0.7),
    ]

    @pytest.mark.parametrize("prefactor, s, n, mu, pad", STRIPS)
    def test_strip_mass_bounds_the_strip_integral(self, prefactor, s, n, mu, pad):
        mpmath = pytest.importorskip("mpmath")
        logs = [(math.log(abs(c)), float(s) + p) for c, p in prefactor]
        mass = _strip_mass(logs, n, math.log(mu), pad, math.log(float(s) / mu) - 8.0)
        with mpmath.workdps(20):
            s_, mu_, pad_ = mpmath.mpf(s.numerator) / s.denominator, mpmath.mpf(mu), mpmath.mpf(pad)

            def strip(u):  # |f(u + i pad)|
                z = mpmath.mpc(u, pad_)
                terms = sum(c * mpmath.exp((s_ + p) * z) for c, p in prefactor)
                return abs(terms * mpmath.exp(-mu_ * mpmath.exp(z)) * z**n)

            def bound(u):  # F_pad(u)
                decay = mu_ * mpmath.cos(pad_) * mpmath.exp(u)
                return sum(abs(c) * mpmath.exp((s_ + p) * u - decay) for c, p in prefactor) * (abs(u) + pad_) ** n

            # both are below e^-30 of their peak beyond these ends, the left one past the bump
            # of e^(s u) |u|^n at u = -n/s
            peak = mpmath.log(s_ / (mu_ * mpmath.cos(pad_)))
            points = sorted({peak - 60 - 3 * n / s_, peak - 5, mpmath.mpf(0), peak, peak + 5})
            on_strip, whole = mpmath.quad(strip, points), mpmath.quad(bound, points)
        assert mass >= on_strip and mass >= whole
        assert mass <= 4 * whole


class TestSameBits:
    """Quadrature's output, bit for bit, over a fixed grid: a change to how the
    oracle computes its floats must leave every result as it is."""

    # (coeff, power) prefactors of two and three terms, some cancelling
    PREFACTORS = [((1, 0), (-2, 1)), ((3, 0), (1, 2)), ((1, 0), (-3, 1), (1, 2)), ((5, 0), (2, 1), (-1, 3))]

    @staticmethod
    def grid():
        from explogint.catalog import DEFAULT_MU_GRID, catalog, param_grid

        for entry in catalog():
            for param in param_grid(entry):
                spec = entry.build(param)
                yield from ((spec, mu) for mu in ([float(spec.mu)] if spec.mu else DEFAULT_MU_GRID))
        for prefactor, s, n, mu in itertools.product(
                TestSameBits.PREFACTORS, (Fraction(1, 2), Fraction(5, 2)), (0, 3, 7, 13, 14), (1e-3, 1.0, 1e3)):
            terms = tuple(PrefactorTerm(p, Fraction(c)) for c, p in prefactor)
            yield IntegralSpec(terms, ArgPoint.of(s), n), mu

    @staticmethod
    def digest(cases):
        """The number of quadratures of ``cases`` at both tolerances, how many converged, and
        a digest of their results' bits: the shipped oracle's, which sums its floats left to
        right, so the pins hold under every supported CPython (3.12 made sum() compensated)."""
        digest = hashlib.sha256()
        count = converged = 0
        for (spec, mu), tol in itertools.product(cases, (1e-10, 1e-13)):
            r = quadrature(spec, mu, rel_tol=tol)
            digest.update(repr((r.value.hex(), r.abs_error_estimate.hex(), r.nodes_used, r.converged)).encode())
            count, converged = count + 1, converged + r.converged
        return count, converged, digest.hexdigest()

    def test_results_keep_their_bits(self):
        count, _, digest = self.digest(self.grid())
        assert count == 456
        assert digest == "60b569ebae3bb7aab37344466373c60886312901f0adbf3a2cba04144727b3b8"

    def test_one_term_results_keep_their_bits(self):
        # one-term integrands beyond the catalog's n <= 3 and mu in [0.5, 10]: log powers to 14,
        # s to 19/2 and mu three decades either side of 1, each sum in the one-term path
        cases = [(IntegralSpec.simple(s, n), mu) for n, s, mu in itertools.product(
            (0, 1, 4, 9, 14), (Fraction(1, 2), 1, Fraction(19, 2)), (1e-3, 1.0, 1e3))]
        assert self.digest(cases) == (
            90, 90, "fcbad3e4400f625fa9e18b7372b9df280dc66ea21737b7dbff0eb64973165692")


class TestFiniteDifferences:
    def test_classic_weights(self):
        assert fd_weights(2, [-1, 0, 1]) == [1, -2, 1]
        assert fd_weights(1, [-2, -1, 0, 1, 2]) == [
            Fraction(1, 12),
            Fraction(-2, 3),
            Fraction(0),
            Fraction(2, 3),
            Fraction(-1, 12),
        ]

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            fd_weights(3, [-1, 0, 1])
        with pytest.raises(ValueError):
            fd_weights(1, [0, 0, 1])

    def test_derivatives_of_exp(self):
        # every derivative of e^x at 0 is 1
        for order, h in [(1, 1e-3), (2, 1e-2), (4, 5e-2), (5, 8e-2)]:
            value = nth_derivative_fd(math.exp, 0.0, order, h)
            assert abs(value - 1.0) < 1e-8
