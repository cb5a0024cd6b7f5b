"""Depth coverage: log powers past the catalog grid.

Weight homogeneity of I_n up to n = 24, and deep Gamma derivatives bound
to 50-digit constants against mpmath's numerical differentiation.  mpmath
is used here only, as an independent reference.
"""

from fractions import Fraction

import pytest

from explogint.evaluator import IntegralSpec, eval_general, eval_In
from explogint.ring import EULER_GAMMA, LOG2, LOG_MU, SQRT_PI, Grade, grade
from explogint.special_values import ArgPoint, gamma_deriv_at


def test_I_n_is_homogeneous_through_24():
    for n in range(25):
        assert grade(eval_In(n)) == Grade("homogeneous", Fraction(n))


def mp_value(const, mp, mu=1):
    """Bind a constant to mpmath values at the current mpmath precision."""
    values = {
        EULER_GAMMA: mp.euler,
        LOG_MU: mp.log(mu),
        LOG2: mp.log(2),
        SQRT_PI: mp.sqrt(mp.pi),
    }
    total = mp.mpf(0)
    for m in const.terms:
        v = mp.mpf(m.coeff.numerator) / m.coeff.denominator
        for g, e in m.powers:
            v *= (mp.zeta(g.k) if g.k else values[g]) ** e
        total += v
    return total


def test_gamma_20th_derivative_at_one_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = mp_value(gamma_deriv_at(20, ArgPoint.of(1)), mpmath.mp)
        # Cauchy-integral differentiation; the default finite-difference
        # method needs several seconds to build its high-precision caches.
        ref = mpmath.diff(mpmath.gamma, 1, 20, method="quad", radius=0.5).real
        assert abs(exact - ref) <= mpmath.mpf(10) ** -40 * abs(ref)


def test_eval_general_seven_halves_n14_matches_mpmath():
    # mu = 2 keeps every log_mu term of the closed form in play:
    # the integral is d^n/ds^n [mu^(-s) Gamma(s)] at s.  Besides s = 7/2,
    # n = 14, the points 41/2 and 15 lie 20 and 14 steps above their base
    # points 1/2 and 1.
    mpmath = pytest.importorskip("mpmath")
    for s, n in ((Fraction(7, 2), 14), (Fraction(41, 2), 6), (Fraction(15), 9)):
        closed = eval_general(IntegralSpec.simple(s, n))
        with mpmath.workdps(50):
            mu = mpmath.mpf(2)
            exact = sum(
                mu ** -(mpmath.mpf(e.numerator) / e.denominator) * mp_value(c, mpmath.mp, mu)
                for e, c in closed.terms
            )
            point = mpmath.mpf(s.numerator) / s.denominator
            ref = mpmath.diff(
                lambda t: mu**-t * mpmath.gamma(t), point, n, method="quad", radius=1
            ).real
            assert abs(exact - ref) <= mpmath.mpf(10) ** -40 * abs(ref), (s, n)
