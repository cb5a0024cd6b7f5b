"""Exact Gamma/psi values and their consistency with the numeric oracle."""

import math
from fractions import Fraction

import pytest

from explogint.ring import (
    GAMMA,
    LOG2_CONST,
    SQRT_PI_CONST,
    Grade,
    SymbolicConstant,
    grade,
    rational_const,
    sum_of_products,
    zeta_const,
)
from explogint.special_values import ArgPoint, gamma_deriv_at, psi_deriv_at

from special_numerics import digamma_m, gamma_derivative_fd, gamma_value

HALF = Fraction(1, 2)


def reference_psi(m: int, x: ArgPoint) -> SymbolicConstant:
    """psi^(m)(x) anywhere on the lattice by harmonic sums and Hurwitz peeling.

    psi(n) = -gamma + H_(n-1), psi(n + 1/2) = -gamma - 2 log2 + 2 sum_(k<=n) 1/(2k-1),
    and for m >= 1 zeta(z, q+1) = zeta(z, q) - q^(-z) walks zeta(m+1, x) back
    to zeta(m+1, 1) = zeta(m+1) or zeta(m+1, 1/2) = (2^(m+1) - 1) zeta(m+1).
    """
    n = x.twice // 2 if x.is_integer else (x.twice - 1) // 2
    if m == 0:
        if x.is_integer:
            return -GAMMA + rational_const(sum((Fraction(1, j) for j in range(1, n)), Fraction(0)))
        odd = sum((Fraction(1, 2 * j - 1) for j in range(1, n + 1)), Fraction(0))
        return -GAMMA - 2 * LOG2_CONST + rational_const(2 * odd)
    z = m + 1
    if x.is_integer:
        partial = sum((Fraction(1, j**z) for j in range(1, n)), Fraction(0))
        hurwitz = zeta_const(z) - rational_const(partial)
    else:
        partial = sum((Fraction(2**z, (2 * j + 1) ** z) for j in range(n)), Fraction(0))
        hurwitz = (2**z - 1) * zeta_const(z) - rational_const(partial)
    return (-1) ** (m + 1) * math.factorial(m) * hurwitz


def leibniz_reference(k: int, x: ArgPoint) -> SymbolicConstant:
    """Gamma^(k)(x) by G_(j+1) = sum_i C(j,i) psi^(j-i)(x) G_i at x itself,
    with Gamma(x) from factorials and double factorials: the route that
    predates the two base points, kept to check the shift against."""
    if x.is_integer:
        g = [rational_const(math.factorial(x.twice // 2 - 1))]
    else:
        n = (x.twice - 1) // 2
        g = [rational_const(Fraction(math.prod(range(1, 2 * n, 2)), 2**n)) * SQRT_PI_CONST]
    psi = [reference_psi(m, x) for m in range(k)]
    for j in range(k):
        g.append(sum_of_products((math.comb(j, i), psi[j - i], g[i]) for i in range(j + 1)))
    return g[k]


class TestArgPoint:
    def test_construction(self):
        assert ArgPoint.of(1).twice == 2
        assert ArgPoint.of(HALF).twice == 1
        assert ArgPoint.of(Fraction(7, 2)).value == Fraction(7, 2)

    def test_rejects_nonpositive_and_off_lattice(self):
        with pytest.raises(ValueError):
            ArgPoint(0)
        with pytest.raises(ValueError):
            ArgPoint(-3)
        with pytest.raises(ValueError):
            ArgPoint.of(Fraction(1, 3))

    def test_shift(self):
        assert ArgPoint.of(HALF).shifted(2) == ArgPoint.of(Fraction(5, 2))


class TestPsiValues:
    """psi is tabulated at 1 and 1/2; elsewhere the engine's psi is Gamma'/Gamma."""

    def test_psi_at_one(self):
        assert psi_deriv_at(0, ArgPoint.of(1)) == -GAMMA

    def test_psi_prime_at_one(self):
        assert psi_deriv_at(1, ArgPoint.of(1)) == zeta_const(2)

    def test_psi_double_prime_at_one(self):
        assert psi_deriv_at(2, ArgPoint.of(1)) == -2 * zeta_const(3)

    def test_psi_at_seven_halves(self):
        expected = (
            -GAMMA
            - 2 * LOG2_CONST
            + rational_const(2 * (1 + Fraction(1, 3) + Fraction(1, 5)))
        )
        x = ArgPoint.of(Fraction(7, 2))
        assert gamma_deriv_at(1, x) == gamma_deriv_at(0, x) * expected

    def test_psi_at_integers_is_harmonic_shift(self):
        for n in range(1, 10):
            x = ArgPoint.of(n)
            harmonic = sum((Fraction(1, k) for k in range(1, n)), Fraction(0))
            assert gamma_deriv_at(1, x) == gamma_deriv_at(0, x) * (-GAMMA + rational_const(harmonic))

    def test_psi_prime_at_half(self):
        # zeta(2, 1/2) = 3 zeta(2)
        assert psi_deriv_at(1, ArgPoint.of(HALF)) == 3 * zeta_const(2)

    def test_functional_equation_symbolically(self):
        # psi(x+1) - psi(x) = 1/x, times Gamma(x) Gamma(x+1)
        for twice in range(1, 21):
            x = ArgPoint(twice)
            g0, g1 = gamma_deriv_at(0, x), gamma_deriv_at(0, x.shifted(1))
            lhs = gamma_deriv_at(1, x.shifted(1)) * g0 - gamma_deriv_at(1, x) * g1
            assert lhs == g0 * g1 / x.value

    def test_derivative_shift_identity(self):
        # d^k/dx^k of Gamma(x+1) = x Gamma(x)
        for twice in range(1, 21):
            x = ArgPoint(twice)
            for k in range(7):
                rhs = x.value * gamma_deriv_at(k, x)
                if k:
                    rhs = rhs + k * gamma_deriv_at(k - 1, x)
                assert gamma_deriv_at(k, x.shifted(1)) == rhs

    def test_rejects_off_base_point(self):
        for twice in (3, 4, 7, 201):
            x = ArgPoint(twice)
            for m in (0, 2):
                with pytest.raises(ValueError, match=f"got {x}$"):
                    psi_deriv_at(m, x)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            psi_deriv_at(-1, ArgPoint.of(1))

    def test_matches_numeric_oracle(self, table):
        for m in range(7):
            for twice in (1, 2):
                x = ArgPoint(twice)
                exact = psi_deriv_at(m, x).evaluate(table)
                numeric = digamma_m(m, float(x.value))
                assert abs(exact - numeric) <= 1e-12 * max(1.0, abs(numeric))


class TestGammaValues:
    def test_at_one(self):
        assert gamma_deriv_at(0, ArgPoint.of(1)) == 1

    def test_at_half(self):
        assert gamma_deriv_at(0, ArgPoint.of(HALF)) == SQRT_PI_CONST

    def test_at_seven_halves(self):
        # (2*3-1)!!/2^3 = 1*3*5/8 = 15/8
        expected = rational_const(Fraction(15, 8)) * SQRT_PI_CONST
        assert gamma_deriv_at(0, ArgPoint.of(Fraction(7, 2))) == expected

    def test_integers_are_factorials(self):
        for n in range(1, 9):
            assert gamma_deriv_at(0, ArgPoint.of(n)) == rational_const(math.factorial(n - 1))

    def test_half_integer_family(self, table):
        for n in range(0, 7):
            point = ArgPoint(2 * n + 1)
            double_fact = math.prod(range(1, 2 * n, 2))
            expected = rational_const(Fraction(double_fact, 2**n)) * SQRT_PI_CONST
            assert gamma_deriv_at(0, point) == expected
            exact = gamma_deriv_at(0, point).evaluate(table)
            numeric = gamma_value(float(point.value))
            assert abs(exact - numeric) <= 1e-12 * max(1.0, abs(numeric))


class TestGammaDerivatives:
    def test_first_derivative_at_one(self):
        assert gamma_deriv_at(1, ArgPoint.of(1)) == -GAMMA

    def test_second_derivative_at_one(self):
        assert gamma_deriv_at(2, ArgPoint.of(1)) == zeta_const(2) + GAMMA**2

    def test_third_derivative_at_one(self):
        expected = -(GAMMA**3) - 3 * zeta_const(2) * GAMMA - 2 * zeta_const(3)
        assert gamma_deriv_at(3, ArgPoint.of(1)) == expected

    def test_fourth_derivative_is_weight_four(self):
        assert grade(gamma_deriv_at(4, ArgPoint.of(1))) == Grade("homogeneous", Fraction(4))

    def test_homogeneity_through_ten(self):
        for n in range(11):
            assert grade(gamma_deriv_at(n, ArgPoint.of(1))) == Grade("homogeneous", Fraction(n))

    def test_cached_blocks_are_stored_in_term_order(self):
        # Read the stored dict itself: the kernel emits it in term order.
        for twice in (1, 2, 7, 20):
            for k in range(9):
                d = gamma_deriv_at(k, ArgPoint(twice))._d
                width = max(map(len, d))
                padded = [e + (0,) * (width - len(e)) for e in d]
                assert padded == sorted(padded, key=lambda e: (sum(e), e), reverse=True), (k, twice)

    def test_memoized_results_are_identical(self):
        a = gamma_deriv_at(5, ArgPoint.of(1))
        b = gamma_deriv_at(5, ArgPoint.of(1))
        assert a is b  # write-once cache

    def test_finite_difference_consistency(self, table):
        # recurrence vs pure finite differencing of the Stirling-based Gamma
        for k in range(5):
            for twice in (2, 4, 5, 7):  # x = 1, 2, 5/2, 7/2
                x = ArgPoint(twice)
                exact = gamma_deriv_at(k, x).evaluate(table)
                fd = gamma_derivative_fd(k, float(x.value))
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_gamma_prime_is_gamma_times_psi(self):
        for twice in range(1, 13):
            x = ArgPoint(twice)
            assert gamma_deriv_at(1, x) == gamma_deriv_at(0, x) * reference_psi(0, x)

    def test_matches_leibniz_reference(self):
        cases = [(k, ArgPoint(twice)) for twice in range(1, 25) for k in range(11)]
        cases += [(k, ArgPoint(201)) for k in range(5)]
        for k, x in cases:
            assert gamma_deriv_at(k, x) == leibniz_reference(k, x), (k, x)
